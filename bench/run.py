"""End-to-end benchmark of the msflow CLI.

Usage (from the repository root):

    python3 bench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every op is one ``python -m msflow ...`` subprocess
against this tree's ``src``, run by one client in a closed loop (one op in
flight).  Passes over the workload's fixed op list repeat until the time is
used up; every op's output is checked against an independent reference
(``checks.py``).  With ``--trace 1`` the same ops run in-process with span
recorders around the package's public functions (``tracing.py``) and only
per-layer metrics are reported.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it print every metric by name and
the run's metadata.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
# a hung op is killed so that the whole run ends well within three minutes
RUN_DEADLINE_S = 150.0
GOLDEN = BENCH_DIR / "golden.json"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MSFLOW_TOL", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(workload: str, seed: int, workdir: Path) -> tuple[list[workloads.Op], float, str]:
    """Generate the inputs and warm up, SETUP_REPEATS times from scratch.

    Each repetition writes the inputs into a fresh directory, recompiles the
    package's bytecode and imports the CLI in a fresh interpreter.  Returns
    the ops of the last repetition, the median set-up time and the numpy
    version the warm-up interpreter saw.
    """
    times, ops, numpy_version = [], [], ""
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workdir / f"inputs-{i}"
        inputs.mkdir()
        ops = workloads.build(workload, seed, inputs)
        compileall.compile_dir(SRC / "msflow", force=True, quiet=1)
        probe = subprocess.run(
            [sys.executable, "-c", "import msflow.cli, numpy; print(numpy.__version__)"],
            env=child_env(), cwd=workdir, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if probe.returncode != 0:
            raise RuntimeError(f"warm-up import failed:\n{probe.stderr}")
        numpy_version = probe.stdout.strip()
        times.append(time.perf_counter() - start)
    return ops, statistics.median(times), numpy_version


def run_op(op: workloads.Op, workdir: Path, timeout: float = OP_TIMEOUT_S) -> dict:
    """Run one op as a subprocess; rusage comes from os.wait4 for this child alone."""
    if op.out_path is not None and op.out_path.exists():
        op.out_path.unlink()
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "msflow", *op.argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=child_env(), cwd=op.cwd)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    out_file = op.out_path.read_bytes() if op.out_path is not None and op.out_path.exists() else None
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode, "stdout": stdout, "stderr": stderr, "out_file": out_file}


class Verdicts:
    """Checks each op's output once per distinct result and keeps digests.

    A digest is the sha256 of an op's stdout, keyed by the op's content key.
    `changed` lists ops whose stdout differs from the recorded digest in
    ``golden.json`` or from an earlier pass of this run.
    """

    def __init__(self) -> None:
        self.golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.digests: dict[str, str] = {}
        self.changed: set[str] = set()
        self.failures: dict[str, str] = {}
        self._memo: dict[tuple, str | None] = {}

    def judge(self, op: workloads.Op, exit_code: int, stdout: bytes, stderr: bytes,
              out_file: bytes | None) -> bool:
        digest = hashlib.sha256(stdout).hexdigest()
        for ref in (self.golden.get(op.key), self.digests.get(op.key)):
            if ref is not None and ref != digest:
                self.changed.add(op.name)
        self.digests.setdefault(op.key, digest)
        memo_key = (op.key, exit_code, digest, hashlib.sha256(stderr).hexdigest(),
                    None if out_file is None else hashlib.sha256(out_file).hexdigest())
        if memo_key not in self._memo:
            self._memo[memo_key] = checks.check_op(op, exit_code, stdout, stderr, out_file)
        reason = self._memo[memo_key]
        if reason is not None:
            self.failures[op.name] = reason
        return reason is None


def percentile(values: list[float], q: float) -> float:
    """The q-quantile with linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def keep_going(started: float, passes: int, seconds: float) -> bool:
    """Start another pass unless it would probably end past `seconds`.

    Stopping when half a mean pass would overrun keeps the run length close
    to `seconds` on average, whatever the pass length.
    """
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / passes < seconds


def run_untraced(ops: list[workloads.Op], workdir: Path, seconds: float, verdicts: Verdicts,
                 deadline: float):
    """Run passes over `ops` and summarize each op by its median over passes.

    The per-op medians describe a typical pass: `wall_s` and `cpu_s` are their
    sums and the latency quantiles are taken over them, so one op slowed in
    one pass by a noisy neighbour does not move the result, and a quantile
    never lands on the extreme sample of a single op.
    """
    samples: dict[str, list[dict]] = {op.name: [] for op in ops}
    passes = attempted = failed = 0
    started = time.perf_counter()
    while not passes or keep_going(started, passes, seconds):
        for op in ops:
            r = run_op(op, workdir, min(OP_TIMEOUT_S, max(1.0, deadline - time.perf_counter())))
            failed += not verdicts.judge(op, r["exit"], r["stdout"], r["stderr"], r["out_file"])
            attempted += 1
            samples[op.name].append(r)
        passes += 1

    def per_op(key: str) -> dict[str, float]:
        return {name: statistics.median(r[key] for r in rs) for name, rs in samples.items()}

    wall, cpu, rss = per_op("wall"), per_op("cpu"), per_op("rss_mb")
    metrics = {
        "wall_s": (sum(wall.values()), "s"),
        "cpu_s": (sum(cpu.values()), "s"),
        "latency_p50_s": (statistics.median(wall.values()), "s"),
        "latency_p90_s": (percentile(list(wall.values()), 0.9), "s"),
        "peak_rss_mb": (max(rss.values()), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {"passes": passes, "latency_samples": attempted, "failed_ratio": failed / attempted,
             "op_latency_s": {name: round(v, 4) for name, v in wall.items()}}
    return metrics, attempted, failed, notes


def read_git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "msflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def steal_seconds() -> float | None:
    """CPU time the hypervisor took from this machine since boot, all CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests-out", type=Path,
                        help="merge this run's stdout digests into the given JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "msflow" / "cli.py").is_file():
        print(f"error: no msflow sources under {SRC}", file=sys.stderr)
        return 2

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "git_sha": read_git_sha(), "src_sha256": source_digest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "loadavg_before": os.getloadavg()}
    steal_before = steal_seconds()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        ops, setup_s, meta["numpy"] = setup(args.workload, args.seed, workdir)
        verdicts = Verdicts()
        if args.trace:
            import tracing

            metrics, attempted, failed, notes = tracing.run_traced(
                ops, workdir, args.seconds, verdicts, SRC, child_env(), keep_going)
        else:
            metrics, attempted, failed, notes = run_untraced(ops, workdir, args.seconds, verdicts, deadline)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    meta["loadavg_after"] = os.getloadavg()
    steal_after = steal_seconds()
    if steal_before is not None and steal_after is not None:
        meta["cpu_steal_s"] = round(steal_after - steal_before, 2)
    meta.update(notes, ops=[op.name for op in ops], digest_changes=sorted(verdicts.changed))

    if args.digests_out:
        merged = json.loads(args.digests_out.read_text()) if args.digests_out.exists() else {}
        merged.update(verdicts.digests)
        args.digests_out.write_text(json.dumps(merged, indent=0, sort_keys=True) + "\n")

    unexpected = {name: why for name, why in verdicts.failures.items() if name not in workloads.KNOWN_DEFECTS}
    for name, why in sorted(verdicts.failures.items()):
        tag = "known defect" if name in workloads.KNOWN_DEFECTS else "FAILED"
        print(f"# {tag}: {name}: {why[:300]}")
    for name in sorted(verdicts.changed):
        print(f"# stdout digest changed: {name}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
