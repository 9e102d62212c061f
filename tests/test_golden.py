"""Golden ladder: sha256 of ``msflow`` stdout for a few plan and homology runs.

The digests were recorded before the planner was restructured around one
pipeline; any change to a ledger's bytes (labels, orbit order, class JSON,
key order) shows up here as a digest mismatch.  The two large
``homology seifert`` rows were recorded before the dense Smith normal form
gave way to sparse elimination; they pin invariant-factor lists at a size
where the elimination's pivot order differs from the dense one.  The
300-fiber row was recorded before the elimination chose its pivots by
Markowitz cost first, and the 300-piece chain row before the presentation
stopped being stored as a dense matrix.
"""

import hashlib
import json

import pytest

from msflow import cli
from msflow.planner import replay

SWAP = [[0, 1], [1, 0]]

TWO_PIECES = {
    "pieces": [{"genus": 0, "boundary": 1, "fibers": []},
               {"genus": 0, "boundary": 1, "fibers": []}],
    "edges": [[0, 0, 1, 0, SWAP]],
}

CHAIN3 = {
    "pieces": [{"genus": 1, "boundary": 1, "fibers": [[2, 1]]},
               {"genus": 0, "boundary": 2, "fibers": [[3, 2]]},
               {"genus": 0, "boundary": 1, "fibers": []}],
    "edges": [[0, 0, 1, 0, SWAP], [1, 1, 2, 0, [[1, 1], [0, 1]]]],
}

CHAIN3_CLASS = json.dumps({"pieces": [
    {"lambda": [3], "alpha": [2, -4], "tau": []},
    {"lambda": [], "alpha": [1, 5], "tau": [-3]},
    {"lambda": [], "alpha": [0], "tau": []},
]})

SEIFERT_WADA = ["plan", "seifert", "--genus", "2", "--euler", "-3", "--fibers", "3/2;5/1",
                "--class", "lambda=3,-2;alpha=2,4,-5"]


def _long_chain(length):
    """A chain whose pieces cycle through genus 0-2 and zero to two fibers,
    glued alternately by SWAP and by a unimodular matrix that moves the fiber."""
    fibers = ([], [[3, 1]], [[5, 2], [-2, 1]], [[7, -3]])
    pieces = [{"genus": i % 3, "boundary": 1 if i in (0, length - 1) else 2, "fibers": fibers[i % 4]}
              for i in range(length)]
    edges = [[i, min(i, 1), i + 1, 0, [[1, 2], [-1, -1]] if i % 2 else SWAP] for i in range(length - 1)]
    return {"pieces": pieces, "edges": edges}


def _fibers(n):
    """Fibers 2/1;3/1;...;(n+1)/1, large enough that elimination order matters."""
    return ";".join(f"{j + 2}/1" for j in range(n))


# (argv with {two}/{chain}/{long} standing for fixture paths, exit code, sha256 of stdout)
LADDER = [
    (["plan", "seifert", "--genus", "1", "--euler", "2"], 0,
     "45c48a66db64c3ea762e5cb9fadcada4030edc4810a85c47b2a23e9a1eff3e4f"),
    (["plan", "seifert", "--genus", "0", "--euler", "1", "--fibers", "2/1"], 2,
     "f8da4a08801aacec4dd20585891a0e8b8b7225ed4051c1e7aebf7a68bd94f735"),
    (SEIFERT_WADA, 0,
     "d0dc9a6fc228d7b97d5fe2fdd624996c5831033d10d6d1ffedb4e2d79405185a"),
    (["plan", "graph", "{two}"], 0,
     "762318175aca5123ce6a86e3368489bc04e679294eef2fa931de5122bcd806b9"),
    (["homology", "graph", "{two}", "--class", "max"], 0,
     "d3d8480b7863d7db17ac6f811f4dcb33c9a3a0cdfc8d0123d53333630cf978e3"),
    (["plan", "graph", "{chain}", "--class", CHAIN3_CLASS], 0,
     "63175d70a0868fe615a988d9dc5c8eda81586a39efa6e166dc17e10ce5847593"),
    (["homology", "graph", "{chain}", "--class", CHAIN3_CLASS], 0,
     "9d20572eec3ff334417c124d2be62db309d426036cbd1a98391ad0fbf6295e8e"),
    (["homology", "seifert", "--genus", "0", "--euler", "-1", "--fibers", "2/1;3/1;5/1",
      "--class", "max"], 0,
     "f3d43a70af8f63faffc671ee2f13a24c4f7f4ed65ba6fc2a72033324667e70fc"),
    (["homology", "seifert", "--genus", "0", "--euler", "0", "--fibers", "5/3",
      "--class", "lambda=;alpha=0,3"], 0,
     "83eb38ef1066f8c51148ce79e35be5cf4839849cdc9852818487b4a6c4f88d95"),
    (["homology", "seifert", "--genus", "2", "--euler", "3", "--fibers", "3/2;5/1",
      "--class", "max"], 0,
     "82d2bf10bb13179e71553b344928f93e98105cbfd34c6881ccd37597dc09b2d0"),
    (["homology", "seifert", "--genus", "20", "--euler", "3", "--fibers", _fibers(20),
      "--class", "max"], 0,
     "f25e077712d8fb734ca83f0a2de2830db3e94196f007837bb4e4a391bcdb7ae1"),
    (["homology", "seifert", "--genus", "0", "--euler", "3", "--fibers", _fibers(60),
      "--class", "max"], 0,
     "dfe3d977d72e9022c5f49bced22efdb7607155f532695c2bb5031d1c7c9c60fd"),
    (["homology", "seifert", "--genus", "0", "--euler", "3", "--fibers", _fibers(300),
      "--class", "max"], 0,
     "b049fd2b224088180e5f658e117a6fa87ecf2ed965198badd62eb6acb315bc6c"),
    (["homology", "graph", "{long}", "--class", "max"], 0,
     "f88f1369dfb5e6313322d8827579ec3134888ec98be8c77d1f2744838188c104"),
]


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, doc in (("two", TWO_PIECES), ("chain", CHAIN3), ("long", _long_chain(300))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out["{" + name + "}"] = str(path)
    return out


def _stdout(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("argv,code,digest", LADDER,
                         ids=[f"{a[0]}-{a[1]}-{i}" for i, (a, _, _) in enumerate(LADDER)])
def test_stdout_digest(capsys, paths, argv, code, digest):
    argv = [paths.get(a, a) for a in argv]
    got_code, out = _stdout(capsys, argv)
    assert got_code == code
    assert hashlib.sha256(out).hexdigest() == digest


def test_out_file_equals_stdout(capsys, tmp_path):
    target = tmp_path / "ledger.json"
    code, out = _stdout(capsys, SEIFERT_WADA + ["--out", str(target)])
    assert code == 0
    assert target.read_bytes() == out
    assert hashlib.sha256(out).hexdigest() == LADDER[2][2]


PLANS = {f"{a[0]}-{a[1]}-{i}": (a, digest)
         for i, (a, code, digest) in enumerate(LADDER) if a[0] == "plan" and code == 0}


@pytest.mark.parametrize("argv,digest", PLANS.values(), ids=PLANS.keys())
def test_replay_reproduces_golden_plan(capsys, paths, argv, digest):
    _code, out = _stdout(capsys, [paths.get(a, a) for a in argv])
    assert hashlib.sha256(out).hexdigest() == digest
    doc = json.loads(out)
    again = replay(doc["steps"]).to_json()
    assert {k: again[k] for k in ("steps", "orbits", "d2", "total")} == {
        k: doc[k] for k in ("steps", "orbits", "d2", "total")}
