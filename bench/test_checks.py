"""Self-check of the benchmark's output checks.

Run from the repository root with ``python3 -m pytest bench/test_checks.py``.
Untouched program outputs must pass their reference check; corrupted ones
(an invariant factor changed, ``total`` off by 2, ...) must fail.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_closed_forms_match_worked_examples():
    assert checks.seifert_bound(0, 2, 0) == 10
    assert checks.seifert_bound(0, 1, 0) == 8
    assert checks.seifert_bound(3, 5, 2) == 28
    two_spheres = {"pieces": [{"genus": 0, "boundary": 1, "fibers": []}] * 2,
                   "edges": [[0, 0, 1, 0, [[0, 1], [1, 0]]]]}
    assert checks.graph_bound(two_spheres) == 14
    assert checks.sum_bound([two_spheres, two_spheres]) == 22
    assert checks.sum_bound([]) == 6
    assert checks.seifert_determinant(2, [[2, 1], [3, 1]]) == 17


def test_rank_mod_prime():
    assert checks.integer_rank([[1, 2], [2, 4]]) == 1
    assert checks.integer_rank([[2, 0], [0, 3]]) == 2
    assert checks.integer_rank([[0, 0]]) == 0


def test_generated_inputs_depend_only_on_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for name in workloads.WORKLOADS:
        ops_a = workloads.build(name, 7, a)
        ops_b = workloads.build(name, 7, b)
        assert [op.key for op in ops_a] == [op.key for op in ops_b]
    assert [op.key for op in workloads.build("cli-small", 8, b)] != \
        [op.key for op in workloads.build("cli-small", 7, a)]


def test_generated_graphs_glue_every_slot_once():
    rng = random.Random(0)
    for doc in [workloads.random_graph(rng, rng.randint(2, 5)) for _ in range(50)] + \
            [workloads.chain_graph(rng, 12)]:
        used = [(e[0], e[1]) for e in doc["edges"]] + [(e[2], e[3]) for e in doc["edges"]]
        want = [(i, s) for i, p in enumerate(doc["pieces"]) for s in range(p["boundary"])]
        assert sorted(used) == sorted(want)
        for *_, ((a, b), (c, d)) in doc["edges"]:
            assert abs(a * d - b * c) == 1


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "latency_p50_s", "latency_p90_s", "peak_rss_mb", "ok_ratio", "setup_s"}


# ---------------------------------------------------------------------------
# Real outputs, untouched and corrupted

def _corrupt_factor(p):
    factors = p["group"]["invariant_factors"]
    if factors:
        factors[-1] += 1
    else:
        p["group"]["free_rank"] += 1


def _corrupt_total(p):
    p["total"] += 2


def _corrupt_bound(p):
    p["bound"] += 1


def _corrupt_d2(p):
    d2 = p["d2"]["pieces"][0] if "pieces" in p["d2"] else p["d2"]
    d2["alpha"][-1] = 3


def _corrupt_floquet(p):
    p["orbits"][0]["floquet"] = [1, -1]


def _corrupt_error(p):
    del p["error"]


CORRUPTIONS = {
    "bound_seifert": [_corrupt_bound],
    "bound_graph": [_corrupt_bound],
    "bound_sum": [_corrupt_bound],
    "plan_seifert": [_corrupt_total, _corrupt_d2],
    "plan_graph": [_corrupt_total, _corrupt_d2],
    "homology_seifert": [_corrupt_factor],
    "homology_graph": [_corrupt_factor],
    "error": [_corrupt_error],
    "verify": [_corrupt_floquet],
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real output per check kind, from the seed-0 op lists."""
    workdir = tmp_path_factory.mktemp("bench")
    picked = {}
    for name in ("cli-small", "numerics"):
        for op in workloads.build(name, 0, workdir):
            if op.name in workloads.KNOWN_DEFECTS or op.name == "plan-sphere-cell":
                continue
            if op.check == "verify" and op.params["model"] != "torus-destruction":
                continue
            picked.setdefault(op.check, op)
    return {kind: (op, run.run_op(op, workdir)) for kind, op in picked.items()}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_untouched_output_passes_and_corrupted_fails(outputs, kind):
    op, r = outputs[kind]
    assert checks.check_op(op, r["exit"], r["stdout"], r["stderr"], r["out_file"]) is None
    for corrupt in CORRUPTIONS[kind]:
        payload = json.loads(r["stdout"])
        corrupt(payload)
        stdout = json.dumps(payload).encode() + b"\n"
        assert checks.check_op(op, r["exit"], stdout, r["stderr"], r["out_file"]) is not None, corrupt


def test_transport_failures_are_counted(outputs):
    op, r = outputs["bound_seifert"]
    assert checks.check_op(op, 1, r["stdout"], r["stderr"]) is not None
    assert checks.check_op(op, 0, r["stdout"] * 2, r["stderr"]) is not None
    assert checks.check_op(op, 0, b"", r["stderr"]) is not None
    assert checks.check_op(op, 0, r["stdout"], b"Traceback (most recent call last):\n") is not None


def test_out_file_must_match_stdout(tmp_path):
    op = next(op for op in workloads.build("plan-large", 0, tmp_path) if op.out_path is not None)
    small = copy.copy(op)
    small.params = {"genus": 1, "euler": 2, "fibers": [[2, 1]]}
    small.argv = ["plan", "seifert", "--genus", "1", "--euler", "2", "--fibers=2/1", "--class", "max",
                  "--out", op.out_path.name]
    r = run.run_op(small, tmp_path)
    assert checks.check_op(small, r["exit"], r["stdout"], r["stderr"], r["out_file"]) is None
    assert checks.check_op(small, r["exit"], r["stdout"], r["stderr"], r["out_file"] + b" ") is not None

