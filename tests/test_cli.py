"""Command-line interface: payloads, exit codes, and determinism."""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import msflow
from msflow import cli, errors, homology
from msflow.homology import graph_presentation
from msflow.manifolds import GraphManifold, Gluing, SeifertPiece
from msflow.selftest import _random_fibers, _random_unimodular, random_graph_manifold

SWAP = ((0, 1), (1, 0))

# (pieces, edges) of two small documents past a size limit: a chain of 4,000
# genus-0 pieces (322 kB), whose presentation is 7,998 x 7,998 cells, and two
# genus-1999 pieces glued once (147 bytes), each block at the plan's
# class-length limit and the plan at twice its payload limit
LONG_CHAIN = ((SeifertPiece(0, 1, ()),) + (SeifertPiece(0, 2, ()),) * 3998 + (SeifertPiece(0, 1, ()),),
              tuple(Gluing(i, min(i, 1), i + 1, 0, SWAP) for i in range(3999)))
TWO_GENUS_1999 = ((SeifertPiece(1999, 1, ()),) * 2, (Gluing(0, 0, 1, 0, SWAP),))


def write_graph(tmp_path, name="graph.json", pieces=None, edges=None):
    g = GraphManifold(
        pieces or (SeifertPiece(0, 1, ()), SeifertPiece(0, 1, ())),
        edges or (Gluing(0, 0, 1, 0, SWAP),))
    path = tmp_path / name
    path.write_text(json.dumps(g.to_json()))
    return path


class TestBound:
    @pytest.mark.parametrize("euler,want", [(2, 10), (-3, 10), (0, 10), (1, 8), (-1, 8)])
    def test_seifert(self, euler, want):
        out = cli.run(["bound", "seifert", "--genus", "0", "--euler", str(euler)])
        assert out.exit_code == 0 and out.payload == {"bound": want}

    def test_seifert_with_fibers(self):
        out = cli.run(["bound", "seifert", "--genus", "3", "--euler", "5",
                       "--fibers", "2/1;3/1"])
        assert out.payload == {"bound": 28}

    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    def test_negative_leading_fiber(self, joined):
        # argparse alone reads the spaced "--fibers -2/1" as two options
        def fibers(value):
            return [f"--fibers={value}"] if joined else ["--fibers", value]

        out = cli.run(["bound", "seifert", "--genus", "0", "--euler", "1"] + fibers("-2/1"))
        assert out.exit_code == 0 and out.payload == {"bound": 8}
        out = cli.run(["plan", "seifert", "--genus", "0", "--euler", "2"] + fibers("-2/1;3/1"))
        assert out.exit_code == 0 and out.payload["total"] == 16
        assert out.payload["manifold"]["fibers"] == [[-2, 1], [3, 1]]

    def test_graph(self, tmp_path):
        path = write_graph(tmp_path)
        out = cli.run(["bound", "graph", str(path)])
        assert out.exit_code == 0 and out.payload == {"bound": 14}

    def test_sum(self, tmp_path):
        path = write_graph(tmp_path)
        out = cli.run(["bound", "sum", str(path), str(path)])
        assert out.payload == {"bound": 22}
        assert cli.run(["bound", "sum"]).payload == {"bound": 6}

    def test_one_piece_self_glued_component(self, tmp_path):
        # the sum takes a component that the graph bound and plan refuse
        path = write_graph(tmp_path, pieces=(SeifertPiece(0, 2, ()),), edges=(Gluing(0, 0, 0, 1, SWAP),))
        out = cli.run(["bound", "sum", str(path)])
        assert out.exit_code == 0 and out.payload == {"bound": 12}
        out = cli.run(["bound", "graph", str(path)])
        assert out.exit_code == 1
        assert out.payload == {"error": "the graph bound needs at least two pieces; use the Seifert bound instead"}
        out = cli.run(["plan", "graph", str(path)])
        assert out.exit_code == 1
        assert out.payload == {"error": "a one-piece graph manifold is planned as a Seifert piece"}

    def test_missing_file(self):
        out = cli.run(["bound", "graph", "no-such-file.json"])
        assert out.exit_code == 1 and "error" in out.payload

    def test_bad_flag_value(self):
        out = cli.run(["bound", "seifert", "--genus", "0", "--euler", "x"])
        assert out.exit_code == 1 and "error" in out.payload


class TestPlan:
    def test_maximal_matches_bound(self):
        out = cli.run(["plan", "seifert", "--genus", "0", "--euler", "2", "--class", "max"])
        assert out.exit_code == 0
        assert out.payload["total"] == 10
        assert out.payload["d2"] == {"lambda": [], "alpha": [2]}

    def test_explicit_class(self):
        out = cli.run(["plan", "seifert", "--genus", "1", "--euler", "3",
                       "--fibers", "2/1", "--class", "lambda=4;alpha=2,-3"])
        assert out.exit_code == 0
        assert out.payload["d2"] == {"lambda": [4], "alpha": [2, -3]}

    def test_degenerate_sphere_cell_fails_honestly(self):
        """(g=0, |e|=1, one fiber): construction needs 10, formula says 8."""
        out = cli.run(["plan", "seifert", "--genus", "0", "--euler", "1",
                       "--fibers", "2/1", "--class", "max"])
        assert out.exit_code == 2
        assert out.payload["total"] == 10 and out.payload["bound"] == 8

    def test_out_file(self, tmp_path):
        target = tmp_path / "ledger.json"
        out = cli.run(["plan", "seifert", "--genus", "0", "--euler", "2",
                       "--class", "max", "--out", str(target)])
        assert out.exit_code == 0
        assert json.loads(target.read_text()) == out.payload

    def test_graph_plan(self, tmp_path):
        path = write_graph(tmp_path)
        out = cli.run(["plan", "graph", str(path), "--class", "max"])
        assert out.exit_code == 0 and out.payload["total"] == 14

    def test_graph_rejects_nonzero_cycles(self, tmp_path):
        pieces = (SeifertPiece(0, 2, ()), SeifertPiece(0, 2, ()))
        edges = (Gluing(0, 0, 1, 0, SWAP), Gluing(0, 1, 1, 1, SWAP))
        path = write_graph(tmp_path, pieces=pieces, edges=edges)
        spec = json.dumps({
            "pieces": [{"lambda": [], "alpha": [2], "tau": [2]},
                       {"lambda": [], "alpha": [2], "tau": [2]}],
            "cycles": [1],
        })
        out = cli.run(["plan", "graph", str(path), "--class", spec])
        assert out.exit_code == 1
        assert "cycle coordinate 0" in out.payload["error"]

    def test_bad_class_text(self):
        out = cli.run(["plan", "seifert", "--genus", "0", "--euler", "2",
                       "--class", "alpha=2"])
        assert out.exit_code == 1
        out = cli.run(["plan", "seifert", "--genus", "0", "--euler", "2",
                       "--class", "lambda=;alpha=two"])
        assert out.exit_code == 1

    def test_wrong_shape_class(self):
        out = cli.run(["plan", "seifert", "--genus", "0", "--euler", "2",
                       "--class", "lambda=1;alpha=2"])
        assert out.exit_code == 1


class TestHomology:
    def test_poincare_sphere(self):
        out = cli.run(["homology", "seifert", "--genus", "0", "--euler", "-1",
                       "--fibers", "2/1;3/1;5/1"])
        assert out.exit_code == 0
        assert out.payload["group"]["group"] == "0"

    def test_class_report(self):
        out = cli.run(["homology", "seifert", "--genus", "0", "--euler", "3",
                       "--class", "max"])
        assert out.payload["maximal"] is True
        assert out.payload["admissible"] is True
        # 2h generates Z/3, so the maximal class is not trivial here
        assert out.payload["trivial_in_h1"] is False

    def test_trivial_class_detected(self):
        # H1 = Z/2, so 2h dies
        out = cli.run(["homology", "seifert", "--genus", "0", "--euler", "2",
                       "--class", "lambda=;alpha=2"])
        assert out.payload["trivial_in_h1"] is True

    def test_alpha0_rejected_at_unit_euler(self):
        out = cli.run(["homology", "seifert", "--genus", "0", "--euler", "1",
                       "--fibers", "2/1", "--class", "lambda=;alpha=1,2"])
        assert out.exit_code == 1

    def test_graph_group(self, tmp_path):
        path = write_graph(tmp_path)
        out = cli.run(["homology", "graph", str(path)])
        assert out.exit_code == 0 and out.payload["group"]["group"] == "0"

    def test_graph_class_admissibility(self, tmp_path):
        pieces = (SeifertPiece(0, 2, ()), SeifertPiece(0, 2, ()))
        edges = (Gluing(0, 0, 1, 0, SWAP), Gluing(0, 1, 1, 1, SWAP))
        path = write_graph(tmp_path, pieces=pieces, edges=edges)
        spec = json.dumps({
            "pieces": [{"lambda": [], "alpha": [2], "tau": [2]},
                       {"lambda": [], "alpha": [2], "tau": [2]}],
            "cycles": [1],
        })
        out = cli.run(["homology", "graph", str(path), "--class", spec])
        assert out.exit_code == 0
        assert out.payload["admissible"] is False

    def test_class_rejects_the_orbit_piece_key(self, tmp_path, capsys):
        cls = {"lambda": [], "alpha": [2], "tau": []}
        spec = json.dumps({"pieces": [dict(cls, piece=7), cls]})
        code = cli.main(["homology", "graph", str(write_graph(tmp_path)), "--class", spec])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {"error": "unknown class keys ['piece']"}

    @pytest.mark.parametrize("target,spec", [
        ("seifert", "lambda=x"),
        ("seifert", "lambda=;alpha=2"),
        ("graph", '{"pieces": ['),
        ("graph", '{"cycles": [0]}'),
    ], ids=["bad-text", "wrong-length", "malformed-json", "wrong-cycle-count"])
    def test_class_is_checked_before_the_group(self, monkeypatch, tmp_path, target, spec):
        calls = []
        compute = homology.group_from_presentation
        monkeypatch.setattr(homology, "group_from_presentation", lambda *a: calls.append(a) or compute(*a))
        for cached in (homology.seifert_h1, homology.piece_h1, homology.graph_presentation):
            cached.cache_clear()
        where = (["--genus", "0", "--euler", "3", "--fibers", "2/1"] if target == "seifert"
                 else [str(write_graph(tmp_path))])
        out = cli.run(["homology", target, *where, "--class", spec])
        assert out.exit_code == 1 and "error" in out.payload
        assert calls == []

    def test_no_dense_matrix_is_built(self, monkeypatch, tmp_path):
        built = []
        monkeypatch.setattr(homology.IntMatrix, "__post_init__", lambda m: built.append((m.rows, m.cols)))
        for cached in (homology.seifert_h1, homology.piece_h1, homology.graph_presentation):
            cached.cache_clear()
        pieces = (SeifertPiece(1, 1, ()), SeifertPiece(0, 2, ()), SeifertPiece(0, 1, ()))
        path = write_graph(tmp_path, pieces=pieces, edges=(Gluing(0, 0, 1, 0, SWAP), Gluing(1, 1, 2, 0, SWAP)))
        for argv in (["seifert", "--genus", "1", "--euler", "3", "--fibers", "2/1;5/3"], ["graph", str(path)]):
            out = cli.run(["homology", *argv, "--class", "max"])
            assert out.exit_code == 0 and "group" in out.payload
        assert built == []

    def test_fiber_ladder_finishes(self):
        # fibers 2/1;3/1;...;501/1: each fiber row's h entry is -1, and
        # pivoting on h first would fill each fiber row with every other
        fibers = ";".join(f"{j + 2}/1" for j in range(500))
        homology.seifert_h1.cache_clear()
        start = time.perf_counter()
        out = cli.run(["homology", "seifert", "--genus", "0", "--euler", "3", "--fibers", fibers, "--class", "max"])
        assert out.exit_code == 0 and out.payload["group"]["free_rank"] == 0
        assert time.perf_counter() - start < 10


class TestVerify:
    def test_torus_model(self):
        out = cli.run(["verify", "torus-model", "--lambda", "2"])
        assert out.exit_code == 0 and out.payload["pass"]

    def test_zero_lambda_is_usage_error(self):
        out = cli.run(["verify", "torus-model", "--lambda", "0"])
        assert out.exit_code == 1

    def test_csv_dump(self, tmp_path):
        target = tmp_path / "orbits.csv"
        out = cli.run(["verify", "torus-model", "--lambda", "2",
                       "--dump-csv", str(target)])
        assert out.exit_code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "orbit_b,time,t,x,z"
        assert len(lines) == 1 + 2 * 1001

    def test_tolerance_override(self, monkeypatch):
        monkeypatch.setenv("MSFLOW_TOL", "1e-18")
        out = cli.run(["verify", "torus-model", "--lambda", "2"])
        assert out.exit_code == 2
        monkeypatch.setenv("MSFLOW_TOL", "not-a-number")
        out = cli.run(["verify", "torus-model", "--lambda", "2"])
        assert out.exit_code == 1

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_tolerance_rejected(self, monkeypatch, raw):
        # err > nan and err > inf are never true, so the closure check would be off
        monkeypatch.setenv("MSFLOW_TOL", raw)
        out = cli.run(["verify", "torus-model", "--lambda", "3"])
        assert out.exit_code == 1
        assert "MSFLOW_TOL" in out.payload["error"]

    def test_torus_model_never_loads_numpy_random(self):
        src = str(Path(msflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("MSFLOW_TOL", None)
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "msflow", "verify", "torus-model",
                               "--lambda", "3"], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and json.loads(done.stdout)["pass"]
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
        assert "numpy" in imported
        assert not [name for name in imported if name.startswith("numpy.random")]

    def test_round_handle_and_collar(self):
        assert cli.run(["verify", "round-handle"]).exit_code == 0
        assert cli.run(["verify", "collar"]).exit_code == 0

    def test_glue_demo(self):
        out = cli.run(["verify", "glue-demo"])
        assert out.exit_code == 0 and out.payload["pass"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task to count threads")
class TestStartup:
    """`msflow.cli` caps OpenBLAS at one thread before numpy loads, unless
    the environment already says otherwise."""

    PROBE = ("import os, msflow.cli; "
             "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")

    def probe(self, **preset):
        src = str(Path(msflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("OPENBLAS_NUM_THREADS", None)
        env.update(preset)
        done = subprocess.run([sys.executable, "-c", self.PROBE], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        threads, value = done.stdout.split()
        return int(threads), value

    def test_import_starts_no_blas_threads(self):
        assert self.probe() == (1, "1")

    def test_preset_value_wins(self):
        assert self.probe(OPENBLAS_NUM_THREADS="2")[1] == "2"


class TestStiffTorusModel:
    """Beyond |lambda| = 21 the default step cannot resolve the model: exit 1
    naming the step, not the exit-2 "model is wrong" verdict."""

    # 10**400: lambda^2 + 1 does not fit a float, which is past every step's bound
    @pytest.mark.parametrize("lam", [40, -22, 10 ** 400, -10 ** 400],
                             ids=["40", "-22", "10**400", "-10**400"])
    def test_beyond_the_stable_step_is_exit_1(self, lam):
        out = cli.run(["verify", "torus-model", "--lambda", str(lam)])
        assert out.exit_code == 1
        assert "step" in out.payload["error"]

    def test_largest_stable_lambda_passes(self):
        out = cli.run(["verify", "torus-model", "--lambda", "21"])
        assert out.exit_code == 0 and out.payload["pass"]
        assert all(o["closure_error"] < 1e-6 for o in out.payload["orbits"])


class TestHarness:
    def test_unknown_command(self):
        out = cli.run(["conjecture"])
        assert out.exit_code == 1

    def test_payload_determinism(self):
        argv = ["plan", "seifert", "--genus", "1", "--euler", "2", "--class", "max"]
        a = json.dumps(cli.run(argv).payload, sort_keys=True)
        b = json.dumps(cli.run(argv).payload, sort_keys=True)
        assert a == b

    def test_homology_stdout_is_byte_identical_across_runs(self, tmp_path):
        """The elimination's pivot order reaches no byte of stdout, whatever
        the interpreter's hash seed."""
        rng = random.Random(20)
        pieces = tuple(SeifertPiece(rng.randint(0, 3), 1 if i in (0, 19) else 2,
                                    _random_fibers(rng, rng.randint(0, 3))) for i in range(20))
        edges = tuple(Gluing(i, 0 if i == 0 else 1, i + 1, 0, _random_unimodular(rng)) for i in range(19))
        path = write_graph(tmp_path, pieces=pieces, edges=edges)
        src = str(Path(msflow.__file__).resolve().parents[1])
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            done = subprocess.run([sys.executable, "-m", "msflow", "homology", "graph", str(path),
                                   "--class", "max"], env=env, capture_output=True, timeout=60, check=True)
            outs.append(done.stdout)
        assert len(json.loads(outs[0])["group"]["invariant_factors"]) > 1
        assert outs[0] == outs[1]

    def test_main_prints_single_json_document(self, capsys):
        code = cli.main(["bound", "seifert", "--genus", "0", "--euler", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out) == {"bound": 10}
        assert captured.out.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"], ["verify", "torus-model", "-h"]])
    def test_help_is_one_json_document(self, argv):
        """A fresh process answers -h/--help with its usage line as one JSON
        document on stdout, the help text on stderr, and exit 0; a narrow
        terminal does not wrap the payload's usage line."""
        src = str(Path(msflow.__file__).resolve().parents[1])
        env = dict(os.environ, COLUMNS="30",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "msflow", *argv], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout.count("\n") == 1
        usage = json.loads(done.stdout)["usage"]
        assert usage.startswith(f"usage: msflow {' '.join(argv[:-1])}".rstrip())
        assert " ".join(done.stderr.split()).startswith(usage)

    def test_main_keeps_diagnostics_off_stdout(self, capsys):
        code = cli.main(["bound", "graph", "no-such-file.json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in json.loads(captured.out)
        assert captured.err != ""

    def test_selftest_payload_has_no_timings(self):
        out = cli.run(["selftest"])
        assert out.exit_code == 0
        assert out.payload["passed"] is True
        assert len(out.payload["criteria"]) == 10
        for entry in out.payload["criteria"]:
            assert set(entry) == {"id", "name", "passed", "detail"}
        assert len(out.diagnostics) == 10


PIECE = {"genus": 0, "boundary": 1, "fibers": []}
GLUE = [0, 0, 1, 0, [[0, 1], [1, 0]]]
CLASS = {"lambda": [], "alpha": [2], "tau": []}


@pytest.mark.parametrize("graph,class_doc", [
    ({"pieces": 5}, None),
    ({"pieces": [PIECE, PIECE], "edges": 7}, None),
    ({"pieces": [dict(PIECE, fibers=3), PIECE], "edges": [GLUE]}, None),
    ({"pieces": [dict(PIECE, fibers=[5]), PIECE], "edges": [GLUE]}, None),
    (None, {"pieces": 5}),
    (None, {"cycles": 5}),
    (None, {"pieces": [CLASS, CLASS], "cycles": [None]}),
    (None, {"pieces": [dict(CLASS, **{"lambda": 5}), CLASS]}),
    (None, {"pieces": [dict(CLASS, alpha=5), CLASS]}),
    (None, {"pieces": [dict(CLASS, tau=5), CLASS]}),
], ids=["pieces", "edges", "fibers", "fiber-entry", "class-pieces", "cycles",
        "cycle-entry", "lambda", "alpha", "tau"])
def test_non_list_json_is_an_input_error(tmp_path, capsys, graph, class_doc):
    """Scalars where the schema wants a list exit 1 with an error document."""
    if class_doc is None:
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        argv = ["bound", "graph", str(path)]
    else:
        argv = ["homology", "graph", str(write_graph(tmp_path)), "--class", json.dumps(class_doc)]
    code = cli.main(argv)
    assert code == 1
    assert set(json.loads(capsys.readouterr().out)) == {"error"}


@pytest.mark.parametrize("graph,error", [
    ({"pieces": ["x" * 10**6]}, r"piece entry 'x+\.\.\. is not an object"),
    ({"pieces": [dict(PIECE, fibers=[["7" * 200_000, 1]]), PIECE], "edges": [GLUE]},
     r"numerator must be an integer, got '7+\.\.\."),
    ({"pieces": ["x" * 180]}, r"piece entry 'x{180}' is not an object"),
], ids=["piece-entry", "fiber-numerator", "short-entry"])
def test_error_documents_stay_small(tmp_path, capsys, graph, error):
    """An error echoes an input entry whole up to 200 characters and cut
    beyond, keeping the explanation, so each stream gets under 1 KB."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code = cli.main(["bound", "graph", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.encode()) < 1024 and len(captured.err.encode()) < 1024
    assert captured.out.count("\n") == 1
    assert re.fullmatch(error, json.loads(captured.out)["error"])


@pytest.mark.parametrize("argv,error", [
    (["bound", "seifert", "--genus", "0", "--euler", "x" * 100_000],
     r"argument --euler: invalid int value: 'x+\.\.\.x+'"),
    (["x" * 100_000], r"argument command: invalid choice: 'x+\.\.\.x+' \(choose from .*selftest'?\)"),
    (["verify", "collar", "y" * 100_000], r"unrecognized arguments: y+\.\.\.y+"),
], ids=["bad-int", "bad-choice", "unrecognized"])
def test_usage_errors_stay_small(capsys, argv, error):
    """argparse's own errors are cut to 200 characters like echoed input,
    keeping the explanation before the value and the choices after it."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.encode()) < 1024 and len(captured.err.encode()) < 1024
    assert captured.out.count("\n") == 1
    message = json.loads(captured.out)["error"]
    assert len(message) == 200 and re.fullmatch(error, message)
    assert captured.err == f"usage error: {message}\n"


def write_cycle_graph(tmp_path):
    """Two pieces glued along two edges: one independent cycle."""
    pieces = (SeifertPiece(0, 2, ()), SeifertPiece(0, 2, ()))
    edges = (Gluing(0, 0, 1, 0, SWAP), Gluing(0, 1, 1, 1, SWAP))
    return write_graph(tmp_path, pieces=pieces, edges=edges)


@pytest.mark.parametrize("command", ["plan", "homology"])
@pytest.mark.parametrize("cycles", [[0.9], ["0"], [True], [None]], ids=["float", "str", "bool", "null"])
def test_cycle_coordinates_must_be_integers(tmp_path, capsys, command, cycles):
    """Cycle coordinates follow the rule of piece coefficients: no coercion."""
    spec = json.dumps({"pieces": [dict(CLASS, tau=[2])] * 2, "cycles": cycles})
    code = cli.main([command, "graph", str(write_cycle_graph(tmp_path)), "--class", spec])
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert "cycle coordinate 0 must be an integer" in error


class TestPlanBuildsOnlyWhatItReturns:
    def test_plan_graph_builds_no_presentation(self, tmp_path):
        path = write_cycle_graph(tmp_path)
        graph_presentation.cache_clear()
        for spec in ("max", json.dumps({"pieces": [dict(CLASS, tau=[2])] * 2, "cycles": [0]})):
            assert cli.run(["plan", "graph", str(path), "--class", spec]).exit_code == 0
        info = graph_presentation.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    @given(seed=st.integers(min_value=0, max_value=2_000))
    @example(seed=1)  # a graph with a self-gluing
    @settings(max_examples=60, deadline=None)
    def test_cycle_rank_is_the_presentation_rank(self, seed):
        g = random_graph_manifold(random.Random(seed))
        _c, cycles = cli._parse_class(g, "max")
        assert cycles == (0,) * len(graph_presentation(g).nontree_edges)

    def test_one_piece_self_gluing_has_one_cycle(self):
        g = GraphManifold((SeifertPiece(0, 2, ()),), (Gluing(0, 0, 0, 1, ((1, 0), (0, -1))),))
        assert cli._parse_class(g, "max")[1] == (0,)
        assert len(graph_presentation(g).nontree_edges) == 1

    def test_graph_out_file_is_what_main_prints(self, tmp_path, capsys):
        target = tmp_path / "ledger.json"
        argv = ["plan", "graph", str(write_cycle_graph(tmp_path)), "--class", "max"]
        assert cli.main(argv + ["--out", str(target)]) == 0
        printed = capsys.readouterr().out.encode()
        assert target.read_bytes() == printed
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == printed

    def test_failed_bound_check_writes_no_out_file(self, tmp_path):
        target = tmp_path / "ledger.json"
        out = cli.run(["plan", "seifert", "--genus", "0", "--euler", "1", "--fibers", "2/1",
                       "--class", "max", "--out", str(target)])
        assert out.exit_code == 2
        assert not target.exists()


class TestDeeplyNestedJson:
    """Nesting deeper than the decoder's recursion limit is malformed input:
    exit 1 with one error document, never a RecursionError traceback."""

    def test_graph_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        out = cli.run(["bound", "graph", str(path)])
        assert out.exit_code == 1
        assert out.payload["error"].startswith("invalid JSON: ")

    def test_graph_class(self, tmp_path):
        out = cli.run(["homology", "graph", str(write_graph(tmp_path)), "--class", "[" * 60_000])
        assert out.exit_code == 1
        assert out.payload["error"].startswith("class is neither 'max' nor valid JSON: ")
        assert out.diagnostics[0].startswith("usage error: ")

    def test_fresh_process_prints_one_document(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        src = str(Path(msflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "msflow", "bound", "graph", str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout.count("\n") == 1
        assert set(json.loads(done.stdout)) == {"error"}
        assert "Traceback" not in done.stderr


class TestSizeLimits:
    """`plan` and `homology` refuse a manifold past their size limit before
    any work that grows with it; `bound` takes any size."""

    HUGE = "99999999999999999999"

    @pytest.mark.parametrize("argv,message", [
        (["plan", "seifert", "--genus", HUGE, "--euler", "2"],
         "the class length g + n + k of a block is 100000000000000000000; the limit is 2000"),
        (["plan", "seifert", "--genus", "3000000000", "--euler", "2"],
         "the class length g + n + k of a block is 3000000001; the limit is 2000"),
        (["plan", "seifert", "--genus", "100000", "--euler", "2", "--class", "max"],
         "the class length g + n + k of a block is 100001; the limit is 2000"),
        (["homology", "seifert", "--genus", HUGE, "--euler", "2"],
         "the generator count 2g + n + k is 199999999999999999999; the limit is 50000"),
        (["homology", "seifert", "--genus", "9" * 4300, "--euler", "2", "--class", "max"],
         "the generator count 2g + n + k is a 14286-bit number; the limit is 50000"),
    ], ids=["plan-huge", "plan-3e9", "plan-1e5", "homology-huge", "homology-digit-limit"])
    def test_refused(self, argv, message):
        out = cli.run(argv)
        assert out.exit_code == 1 and out.payload == {"error": message}
        assert out.diagnostics == (message,)

    @given(command=st.sampled_from(["plan", "homology"]), genus=st.integers(25_000, 10**30),
           euler=st.integers(-3, 3), fibers=st.sampled_from(["", "2/1", "-3/2;5/1"]),
           spec=st.sampled_from([None, "max", "lambda=;alpha=2"]))
    @settings(max_examples=60, deadline=None)
    def test_any_large_genus_is_refused(self, command, genus, euler, fibers, spec):
        argv = [command, "seifert", f"--genus={genus}", f"--euler={euler}", f"--fibers={fibers}"]
        out = cli.run(argv + ([] if spec is None else ["--class", spec]))
        assert out.exit_code == 1 and out.stdout.count("\n") == 1
        assert out.payload["error"].endswith("; the limit is " + ("2000" if command == "plan" else "50000"))

    def test_bound_takes_any_genus(self):
        out = cli.run(["bound", "seifert", "--genus", self.HUGE, "--euler", "2"])
        assert out.exit_code == 0 and out.payload == {"bound": 4 * int(self.HUGE) + 8}

    def test_plan_limit_is_inclusive(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "PLAN_MAX_CLASS_LENGTH", 6)
        # closed: g + n + 1
        assert cli.run(["plan", "seifert", "--genus", "3", "--euler", "2", "--fibers", "2/1;3/1"]).exit_code == 0
        out = cli.run(["plan", "seifert", "--genus", "4", "--euler", "2", "--fibers", "2/1;3/1"])
        assert out.payload == {"error": "the class length g + n + k of a block is 7; the limit is 6"}
        # graph pieces: g + n + k, the largest block counting
        edges = (Gluing(0, 0, 1, 0, SWAP), Gluing(1, 1, 1, 2, SWAP))
        for genus, exit_code in ((2, 0), (3, 1)):
            pieces = (SeifertPiece(0, 1, ()), SeifertPiece(genus, 3, ((2, 1),)))
            out = cli.run(["plan", "graph", str(write_graph(tmp_path, pieces=pieces, edges=edges))])
            assert out.exit_code == exit_code, out.payload

    def test_homology_limit_is_inclusive(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "HOMOLOGY_MAX_GENERATORS", 7)
        # closed: 2g + n + 1
        assert cli.run(["homology", "seifert", "--genus", "2", "--euler", "2", "--fibers", "2/1;3/1"]).exit_code == 0
        out = cli.run(["homology", "seifert", "--genus", "3", "--euler", "2", "--fibers", "2/1"])
        assert out.payload == {"error": "the generator count 2g + n + k is 8; the limit is 7"}
        # a graph: 2g + n + k per piece plus one per independent cycle
        edges = (Gluing(0, 0, 1, 0, SWAP), Gluing(1, 1, 1, 2, SWAP))
        pieces = (SeifertPiece(0, 1, ()), SeifertPiece(1, 3, ()))
        out = cli.run(["homology", "graph", str(write_graph(tmp_path, pieces=pieces, edges=edges))])
        assert out.exit_code == 0 and len(out.payload["group"]["generators"]) == 7
        pieces = (SeifertPiece(0, 1, ()), SeifertPiece(1, 3, ((2, 1),)))
        out = cli.run(["homology", "graph", str(write_graph(tmp_path, pieces=pieces, edges=edges))])
        assert out.payload == {"error": "the generator count 2g + n + k is 8; the limit is 7"}

    def test_plan_payload_limit_is_inclusive(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "PLAN_MAX_PAYLOAD", 13)
        # a sum over blocks of (g + n + k)^2: 2^2 + 3^2 = 13, then 2^2 + 4^2 = 20
        edges = (Gluing(0, 0, 1, 0, SWAP), Gluing(1, 1, 1, 2, SWAP))
        for genus, exit_code in ((0, 0), (1, 1)):
            pieces = (SeifertPiece(0, 1, ((2, 1),)), SeifertPiece(genus, 3, ()))
            out = cli.run(["plan", "graph", str(write_graph(tmp_path, pieces=pieces, edges=edges))])
            assert out.exit_code == exit_code, out.payload
        assert out.payload == {"error": "the sum over blocks of (g + n + k)^2 is 20; the limit is 13"}

    def test_presentation_cells_limit_is_inclusive(self, monkeypatch, tmp_path):
        monkeypatch.setattr(homology, "MAX_PRESENTATION_CELLS", 16)
        homology.seifert_h1.cache_clear()
        homology.graph_presentation.cache_clear()
        # closed: 1 + n relations over 2g + n + 1 generators
        message = "the presentation has 4 relations over 6 generators, 24 cells; the limit is 16"
        for genus, exit_code in ((0, 0), (1, 1)):
            out = cli.run(["homology", "seifert", "--genus", str(genus), "--euler", "2", "--fibers", "2/1;3/1;5/1"])
            assert out.exit_code == exit_code, out.payload
        assert out.payload == {"error": message}
        # a graph: one row per fiber and two per edge over every piece's generators
        for genus, exit_code in ((0, 0), (1, 1)):
            pieces = (SeifertPiece(0, 1, ((2, 1),)), SeifertPiece(genus, 1, ((3, 1),)))
            out = cli.run(["homology", "graph", str(write_graph(tmp_path, pieces=pieces))])
            assert out.exit_code == exit_code, out.payload
        assert out.payload == {"error": message}

    @pytest.mark.parametrize("command,graph,message", [
        ("homology", LONG_CHAIN,
         "the presentation has 7998 relations over 7998 generators, 63968004 cells; the limit is 4000000"),
        ("plan", TWO_GENUS_1999, "the sum over blocks of (g + n + k)^2 is 8000000; the limit is 4000000"),
    ], ids=["homology-long-chain", "plan-two-genus-1999"])
    def test_large_graph_exits_at_once(self, tmp_path, command, graph, message):
        path = write_graph(tmp_path, pieces=graph[0], edges=graph[1])
        src = str(Path(msflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "msflow", command, "graph", str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert done.returncode == 1
        assert done.stdout.count("\n") == 1 and json.loads(done.stdout) == {"error": message}


class TestIntegerDigitLimit:
    """An integer past Python's limit on the digits of an int parsed from text
    exits 1 with one message naming where it was and the limit, at each
    place msflow reads integers from text."""

    @pytest.fixture(autouse=True)
    def limit(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(previous)

    @staticmethod
    def assert_refused(out, what, digits):
        message = f"{what} has {digits} digits; integers are limited to 4300 digits"
        assert out.exit_code == 1 and out.payload == {"error": message}

    def test_fibers(self):
        big = "1" + "0" * 4999
        for fibers, what in ((f"{big}/1", "fiber numerator"), (f"3/{big}", "fiber denominator"),
                             (f"-{big}/1", "fiber numerator")):
            out = cli.run(["bound", "seifert", "--genus", "0", "--euler", "1", "--fibers", fibers])
            self.assert_refused(out, what, 5000)

    def test_genus_flag(self):
        out = cli.run(["bound", "seifert", "--genus", "1" + "0" * 4300, "--euler", "1"])
        self.assert_refused(out, "genus", 4301)

    def test_euler_flag(self):
        out = cli.run(["homology", "seifert", "--genus", "0", "--euler", "-" + "7" * 4301])
        self.assert_refused(out, "euler number", 4301)

    def test_lambda_flag(self):
        self.assert_refused(cli.run(["verify", "torus-model", "--lambda", "2" * 5000]), "lambda", 5000)
        out = cli.run(["verify", "torus-model", "--lambda", "2.5"])
        assert out.exit_code == 1 and out.payload == {"error": "argument --lambda: invalid int value: '2.5'"}

    def test_graph_file(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"pieces": [{"genus": 1%s, "boundary": 1}], "edges": []}' % ("0" * 4999))
        self.assert_refused(cli.run(["bound", "graph", str(path)]), "an integer in the graph document", 5000)

    def test_class_text(self):
        out = cli.run(["homology", "seifert", "--genus", "0", "--euler", "2", "--fibers", "2/1",
                       "--class", "lambda=;alpha=1%s,0" % ("0" * 4400)])
        self.assert_refused(out, "alpha coefficient", 4401)
        out = cli.run(["homology", "seifert", "--genus", "0", "--euler", "2", "--class", "lambda=;alpha=x"])
        assert out.exit_code == 1 and out.payload["error"].startswith("non-integer coefficient")

    def test_graph_class(self, tmp_path):
        spec = json.dumps({"pieces": [], "cycles": []}).replace("[]}", "[1%s]}" % ("0" * 4999))
        out = cli.run(["homology", "graph", str(write_graph(tmp_path)), "--class", spec])
        self.assert_refused(out, "an integer in the class JSON", 5000)


GROUPS = (errors.InvalidInput, errors.StepRejected, errors.ModelCheckFailed)
CONCRETE = [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.MsflowError)
            and cls not in (errors.MsflowError, *GROUPS)]


class TestErrorGroups:
    """errors.py's groups, not lists kept in cli.py, decide the exit code."""

    def test_every_class_but_step_too_large_has_one_group(self):
        assert len(CONCRETE) == 21
        for cls in CONCRETE:
            groups = [group for group in GROUPS if issubclass(cls, group)]
            assert len(groups) == (0 if cls is errors.StepTooLarge else 1), cls.__name__

    @pytest.mark.parametrize("error", CONCRETE, ids=lambda cls: cls.__name__)
    def test_exit_code_follows_the_group(self, monkeypatch, error):
        def failing(args):
            raise error("it broke")

        monkeypatch.setattr(cli, "_cmd_bound", failing)
        out = cli.run(["bound", "seifert", "--genus", "0", "--euler", "2"])
        assert out.exit_code == (2 if issubclass(error, errors.ModelCheckFailed) else 1)
        assert out.stdout == '{"error":"it broke"}\n'
        assert out.diagnostics == ("it broke",)


# ---------------------------------------------------------------------------
# The CLI contract under generated input

_FORMS = (
    ("bound", "seifert"), ("bound", "graph"), ("bound", "sum"),
    ("plan", "seifert"), ("plan", "graph"),
    ("homology", "seifert"), ("homology", "graph"),
    ("verify", "torus-model"), ("verify", "round-handle"), ("verify", "glue-demo"),
    ("verify", "collar"), ("selftest",), ("bound",), ("verify",), (),
)
_JUNK = (st.sampled_from(["--", "-", "-h", "--help", "--genus", "--class", "--x", "plan", "graph",
                          "=", "-2/1", "x" * 300])
         | st.text(max_size=6))
_BAD_INTS = st.sampled_from(["", "-", "x", "1.5", "1e3", "0x10", "2-", "nan", "∞", "- 2",
                             "9" * 5000, "-" + "9" * 5000, "1" + "0" * 4300]) | st.text(max_size=4)
_SMALL_INTS = st.integers(-3, 3).map(str) | st.sampled_from(["+2", "007", "-0", " 2", "1_0", "٣"])
_INTS = _SMALL_INTS | st.integers(-10**30, 10**30).map(str)
# small, or past the size limits of both `plan` and `homology`: a genus in
# between would run a large plan
_GENUS = st.integers(-5, 5).map(str) | st.integers(25_000, 10**30).map(str)
_CLASS_KEYS = st.sampled_from(["lambda", "alpha", "tau", "beta", "", " alpha"])
_CLASS_VALUES = st.lists(st.integers(-3, 3).map(str) | _BAD_INTS, max_size=4).map(",".join)
_CLASS_TEXT = st.lists(st.tuples(_CLASS_KEYS, st.sampled_from(["=", "", "=="]), _CLASS_VALUES)
                       .map("".join), min_size=1, max_size=4).map(";".join)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=True)
                 | st.text(max_size=4))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=8)
_CLASS_JSON = st.fixed_dictionaries(
    {}, optional={"pieces": st.lists(st.fixed_dictionaries(
        {"lambda": st.lists(st.integers(-3, 3), max_size=3), "alpha": st.lists(st.integers(-3, 3), max_size=4)},
        optional={"tau": st.lists(st.integers(-3, 3), max_size=2)}) | _JSON_VALUES, max_size=5),
                  "cycles": st.lists(st.integers(-2, 2) | _JSON_SCALARS, max_size=3)}).map(json.dumps)


@st.composite
def _fibers_text(draw):
    fraction = (st.tuples(st.integers(-6, 6), st.integers(-3, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}")
                | st.sampled_from(["2/", "/1", "x/1", "2/1/1", "9" * 5000 + "/1", ""]))
    return ";".join(draw(st.lists(fraction, max_size=5)))


@st.composite
def _graph_text(draw):
    """A graph document: valid, with one value replaced, truncated, or any JSON or text."""
    doc = random_graph_manifold(random.Random(draw(st.integers(0, 10**6)))).to_json()
    how = draw(st.sampled_from(["valid"] * 4 + ["replace", "truncate", "json", "text"]))
    if how == "replace":
        entry = draw(st.sampled_from(doc["pieces"] + doc["edges"]))
        key = draw(st.sampled_from(list(entry) if isinstance(entry, dict) else range(len(entry))))
        entry[key] = draw(_JSON_VALUES)
    elif how == "json":
        doc = draw(_JSON_VALUES)
    text = json.dumps(doc)
    if how == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return draw(st.text(max_size=20)) if how == "text" else text


@st.composite
def _argv(draw, folder):
    """An invocation: a subcommand form, its required options and some of its
    optional ones (each `--name=value` or spaced) in any order, and junk
    tokens anywhere."""
    form = draw(st.sampled_from(_FORMS))
    command, target = (*form, None, None)[:2]

    def path():
        # `plan` would run the long chain, a 5.5 MB plan in 2 s, where `homology` refuses it
        large = ["two-genus-1999"] if command == "plan" else ["two-genus-1999", "long-chain"]
        kind = draw(st.sampled_from(["graph", "graph", "missing", "folder", "nested"] + large * 2))
        if kind == "graph":
            document = folder / f"g{draw(st.integers(0, 2))}.json"
            document.write_text(draw(_graph_text()))
            return str(document)
        if kind in ("long-chain", "two-genus-1999"):
            # written each time, since --out or --dump-csv may have overwritten it
            pieces, edges = LONG_CHAIN if kind == "long-chain" else TWO_GENUS_1999
            return str(write_graph(folder, f"{kind}.json", pieces, edges))
        return str({"missing": folder / "missing.json", "folder": folder,
                    "nested": folder / "missing" / "out.json"}[kind])

    def integer(valid=_INTS):
        return draw(draw(st.sampled_from([valid] * 5 + [_BAD_INTS])))

    required, optional = [], []
    if target == "seifert":
        required += [("--genus", integer(_GENUS)), ("--euler", integer())]
        optional.append(("--fibers", draw(_fibers_text())))
    if command in ("plan", "homology") and target:
        optional.append(("--class", draw(st.just("max") | _CLASS_TEXT | _CLASS_JSON | st.text(max_size=8))))
    if command == "plan" and target:
        optional.append(("--out", str(folder / "ledger.json") if draw(st.booleans()) else path()))
    if target == "torus-model":
        lam = st.integers(-21, 21).map(str) | st.sampled_from(["22", "-40", "10" * 20])
        required.append(("--lambda", integer(lam)))
        optional.append(("--dump-csv", str(folder / "orbits.csv") if draw(st.booleans()) else path()))
    groups = [[name, value] if draw(st.booleans()) else [f"{name}={value}"]
              for name, value in required + [option for option in optional if draw(st.booleans())]]
    if target == "graph":
        groups.append([path()])
    if target == "sum":
        groups += [[path()] for _ in range(draw(st.integers(0, 3)))]
    argv = list(form) + [token for group in draw(st.permutations(groups)) for token in group]
    # a plain `selftest` runs the whole grid (0.5 s); TestHarness covers it
    for _ in range(draw(st.sampled_from([1, 2] if form == ("selftest",) else [0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@pytest.fixture(scope="module")
def fuzz_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestContractUnderFuzzing:
    """Any invocation gets exactly one line of JSON on stdout and an exit
    code in {0, 1, 2}, and no exception escapes `cli.run`, whatever the
    subcommand, flags, junk tokens, integer texts, --fibers and --class
    strings, graph documents, missing files or folders given as files.

    The genus is either small or past the size limits of both `plan` and
    `homology`, and the files include two large graph documents, so that
    draws meet all four size limits (`TestSizeLimits` checks those
    directly) but run no large plan.  Fiber counts and other graph sizes
    stay small, |lambda| <= 21 where it integrates, and `selftest` always
    carries a junk token, so that valid runs stay short."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_json_line_and_a_known_exit_code(self, data, fuzz_folder):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            out = cli.run(data.draw(_argv(fuzz_folder), label="argv"))
        finally:
            sys.set_int_max_str_digits(previous)
        assert out.exit_code in (0, 1, 2)
        assert out.stdout.endswith("\n") and out.stdout.count("\n") == 1
        assert isinstance(json.loads(out.stdout), dict)
