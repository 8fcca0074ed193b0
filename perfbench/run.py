"""posmine benchmark: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload renewal --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``posmine`` is imported from its
``src`` directory.  ``--trace 0`` times the workload untraced and reports the
end-to-end metrics; ``--trace 1`` runs a share of the time untraced, replays
the same ops with every listed package function wrapped, and reports the
per-layer metrics.  Every op's output is checked by an oracle.  The last
line of standard output is the result as one JSON object; the full record
(machine, counts, digests, failures, trace tables) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import ROOT, WORKLOADS, Digest, Op, PackageMissing, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_RUNS = 5  # set-ups per run; setup_s is their median
DIGEST_OPS = 32  # the digest covers this many leading ops
UNTRACED_SHARE = 0.3  # of --seconds, run untraced before the traced replay
POOL_OPS = 3  # liminf ops timed at 1 and at N workers in a traced run

E2E_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "cycles_per_s": "cycles/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MiB",
    "failed_ratio": "ratio",
}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(pm) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "posmine": pm.version,
        "git_commit": git_commit(ROOT),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def pool_workers() -> int:
    # at least 2, so the process pool path runs even on a 1-core machine
    return max(2, os.cpu_count() or 1)


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile: with n >= 100 values, at least 10 lie above p90."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class SetupProbes:
    """SETUP_RUNS set-ups, each in a fresh interpreter.  They are spread over
    the timed run, between blocks and outside the timed time, so that
    setup_s sees the same machine as the other metrics of the run."""

    def __init__(self, workload: str, seed: int, tmpdir: Path, seconds: float):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(tmpdir)]
        self.seconds = seconds
        self.times: list[float] = []
        self.errors: list[str] = []

    def run_one(self) -> None:
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        self.times.append(probe["setup_s"])
        if probe["error"]:
            self.errors.append(f"warm-up: {probe['error']}")

    def when_due(self, timed_s: float) -> None:
        if len(self.times) < SETUP_RUNS and timed_s >= len(self.times) * self.seconds / SETUP_RUNS:
            self.run_one()

    def finish(self) -> None:
        while len(self.times) < SETUP_RUNS:
            self.run_one()


class Pass:
    """The ops of one pass over a workload, their times and oracle results."""

    def __init__(self):
        self.ops: list[Op] = []
        self.durations: list[float] = []
        self.rounds = 0.0
        self.cycles = 0
        self.failures: list[str] = []
        self.digest = Digest(DIGEST_OPS)
        self.summaries: list[str] = []
        self.outputs: dict[int, object] = {}
        self.blocks = 0
        self.wall = 0.0  # time inside blocks

    def _summary(self, op: Op, summary: str) -> None:
        self.summaries.append(summary)
        self.digest.add(op, summary)

    def run_op(self, wl: Workload, op: Op, keep_output: bool = False) -> float:
        t0 = time.perf_counter()
        try:
            res = wl.execute(op)
        except Exception as e:  # an op that raises is a failed op, not a dead run
            dt = time.perf_counter() - t0
            self.ops.append(op)
            self.durations.append(dt)
            self.failures.append(f"op {op.index} {op.kind}{op.params}: raised {e!r}")
            self._summary(op, f"raised {type(e).__name__}")
            return dt
        dt = time.perf_counter() - t0
        self.ops.append(op)
        self.durations.append(dt)
        try:
            outcome = wl.check(op, res)
        except Exception as e:
            self.failures.append(f"op {op.index} {op.kind}{op.params}: oracle raised {e!r}")
            self._summary(op, f"unchecked {type(e).__name__}")
            return dt
        self._summary(op, outcome.summary)
        if keep_output:
            self.outputs[op.index] = res
        if outcome.error:
            self.failures.append(f"op {op.index} {op.kind}{op.params}: {outcome.error}")
        else:
            self.rounds += outcome.rounds
            self.cycles += outcome.cycles
        return dt

    def run_for(self, wl: Workload, seconds: float, keep_kinds=(), between_blocks=None) -> None:
        """Run whole blocks (every cell of the workload once) until ``seconds``
        of block time have passed, so every run has the same op mix.
        ``between_blocks(timed_s)`` runs after each block, off the clock."""
        gc.collect()
        ops = wl.ops()
        block = len(workloads.CELLS[wl.name])
        while self.wall < seconds:
            t0 = time.perf_counter()
            for _ in range(block):
                op = next(ops)
                self.run_op(wl, op, keep_output=op.kind in keep_kinds)
            self.wall += time.perf_counter() - t0
            self.blocks += 1
            if between_blocks is not None:
                between_blocks(self.wall)


def timed_run(args, pm, tmpdir: Path, record: dict) -> tuple[dict, int, int, bool]:
    probes = SetupProbes(args.workload, args.seed, tmpdir, args.seconds)
    wl = Workload(pm, args.workload, args.seed, tmpdir)
    op = wl.warmup_op()
    warm = wl.check(op, wl.execute(op))

    p = Pass()
    p.run_for(wl, args.seconds, keep_kinds=("liminf",), between_blocks=probes.when_due)
    probes.finish()
    extra_errors = probes.errors + wl.pooled_errors()
    if warm.error:
        extra_errors.append(f"warm-up: {warm.error}")
    failed = len(p.failures)
    liminf_ops = [o for o in p.ops if o.kind == "liminf" and o.index in p.outputs]
    if liminf_ops:
        first = liminf_ops[0]
        err = wl.liminf_pool_error(first, p.outputs[first.index], pool_workers())
        record["checks"]["liminf_identical_across_workers"] = err is None
        if err:
            p.failures.append(err)
            failed += 1

    durs = sorted(p.durations)
    n = len(durs)
    attempted = n
    metrics = {
        "setup_s": statistics.median(probes.times),
        "rounds_per_s": p.rounds / p.wall,
        "op_s_p50": statistics.median(durs),
        "op_s_p90": quantile(durs, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": failed / attempted,
    }
    if args.workload == "renewal":
        metrics["cycles_per_s"] = p.cycles / p.wall
    record["counts"] = {
        "ops": n,
        "attempted": attempted,
        "failed": failed,
        "ops_beyond_p90": n - math.ceil(0.9 * n),
        "blocks": p.blocks,
        "rounds": p.rounds,
        "cycles": p.cycles,
        "wall_s": p.wall,
        "setup_runs_s": probes.times,
    }
    record["digest"] = {"ops": p.digest.ops, "sha256": p.digest.hexdigest()}
    record["failures"] = p.failures[:50]
    record["errors"] = extra_errors
    correct = failed == 0 and not extra_errors
    return metrics, attempted, failed, correct


def pool_probe(pm, seed: int) -> tuple[dict, list[str]]:
    """mc_revenue_liminf at 1 worker and at N workers on the same longgame
    liminf ops: pool start-up cost, speed-up, and the identical-result check.
    Runs untraced, after the wrappers are removed."""
    wl = Workload(pm, "longgame", seed, Path("."))
    block = itertools.islice(wl.ops(), len(workloads.LONGGAME_CELLS))
    ops = [o for o in block if o.kind == "liminf"][:POOL_OPS]
    n = pool_workers()
    an = pm.analysis
    errors = []
    startup = []
    for i in range(3):
        t0 = time.perf_counter()
        an.mc_revenue_liminf("frontier", 0.3, 1, 4, seed=seed + i, threads=n)
        startup.append(time.perf_counter() - t0)
    t_one = t_many = 0.0
    for op in ops:
        t0 = time.perf_counter()
        one = wl.execute(op)
        t_one += time.perf_counter() - t0
        t0 = time.perf_counter()
        err = wl.liminf_pool_error(op, one, n)
        t_many += time.perf_counter() - t0
        if err:
            errors.append(err)
    return {
        "analysis.pool_startup_s": statistics.median(startup),
        "analysis.pool_speedup": t_one / t_many,
        "workers": n,
    }, errors


def traced_run(args, pm, tmpdir: Path, record: dict) -> tuple[dict, int, int, bool]:
    from tracer import Tracer

    wl = Workload(pm, args.workload, args.seed, tmpdir)
    op = wl.warmup_op()
    warm = wl.check(op, wl.execute(op))

    plain = Pass()
    plain.run_for(wl, args.seconds * UNTRACED_SHARE)

    # replay the very same ops with the wrappers in place
    wl2 = Workload(pm, args.workload, args.seed, tmpdir)
    traced = Pass()
    tr = Tracer(pm)
    tr.install()
    try:
        t_start = time.perf_counter()
        for op in plain.ops:
            tr.op_id, tr.op_kind = op.index, op.kind
            tr.op_wall += traced.run_op(wl2, op)
        traced.wall = time.perf_counter() - t_start
        unwrapped = tr.unwrapped()
    finally:
        tr.uninstall()
    pool, pool_errors = pool_probe(pm, args.seed)

    errors = wl.pooled_errors() + wl2.pooled_errors() + pool_errors
    if warm.error:
        errors.append(f"warm-up: {warm.error}")
    digests_match = plain.summaries == traced.summaries
    if not digests_match:
        errors.append("traced replay produced different outputs from the untraced run")
    failed = len(plain.failures) + len(traced.failures)
    attempted = len(plain.ops) + len(traced.ops)

    functions = tr.functions()
    derived = tr.derived()
    derived["analysis.pool_startup_s"] = pool["analysis.pool_startup_s"]
    derived["analysis.pool_speedup"] = pool["analysis.pool_speedup"]
    derived["trace.overhead_ratio"] = sum(traced.durations) / sum(plain.durations)
    derived["trace.ops"] = len(traced.ops)
    derived["trace.unwrapped"] = len(unwrapped)

    record["counts"] = {
        "attempted": attempted,
        "failed": failed,
        "ops_untraced": len(plain.ops),
        "ops_traced": len(traced.ops),
        "wall_untraced_s": plain.wall,
        "wall_traced_s": traced.wall,
        "pool_workers": pool["workers"],
    }
    record["digest"] = {
        "ops": plain.digest.ops,
        "sha256": plain.digest.hexdigest(),
        "traced_sha256": traced.digest.hexdigest(),
        "all_ops_match": digests_match,
    }
    record["trace"] = {
        "functions": functions,
        "derived": derived,
        "unwrapped": unwrapped,
        "spans_sample": tr.spans,
    }
    record["failures"] = (plain.failures + traced.failures)[:50]
    record["errors"] = errors
    metrics = dict(derived)
    for fn, f in functions.items():
        for field in ("calls", "self_s", "errors"):
            metrics[f"{fn}.{field}"] = f[field]
    correct = failed == 0 and not errors
    return metrics, attempted, failed, correct


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per BENCHMARK.json section."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def print_report(args, record: dict, metrics: dict) -> None:
    m = record["machine"]
    print(f"posmine benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"click={m['click']} commit={m['git_commit'][:12]} loadavg={m['loadavg_start'][0]:.2f}")
    c = record["counts"]
    if args.trace:
        print(f"ops: {c['ops_untraced']} untraced, then the same {c['ops_traced']} traced; "
              f"outputs match: {record['digest']['all_ops_match']}")
        print(f"{'function':40s} {'calls':>10s} {'self_s':>10s} {'total_s':>10s} {'errors':>6s}")
        for name, f in record["trace"]["functions"].items():
            print(f"{name:40s} {f['calls']:10d} {f['self_s']:10.4f} {f['total_s']:10.4f} {f['errors']:6d}")
        for name, v in record["trace"]["derived"].items():
            print(f"{name:40s} {v:.6g}")
        for line in record["trace"]["unwrapped"]:
            print(f"not wrapped: {line}")
    else:
        for name, v in metrics.items():
            print(f"{name:14s} {v:16.6g} {E2E_UNITS[name]}")
        print(f"ops: {c['ops']} ({c['ops_beyond_p90']} beyond p90), failed {c['failed']} "
              f"of {c['attempted']}; digest {record['digest']['sha256'][:16]} "
              f"over the first {record['digest']['ops']} ops")
    for line in record["failures"] + record["errors"]:
        print(f"FAILED: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # The timed runs pin one worker: the CLI's revenue command reads this.
    os.environ["POSMINE_THREADS"] = "1"
    loadavg = os.getloadavg()
    try:
        pm = workloads.load_package()
    except PackageMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = workloads.make_tmpdir(OUT_DIR)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(pm),
        "checks": {},
    }
    record["machine"]["loadavg_start"] = loadavg
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, correct = run(args, pm, tmpdir, record)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    # the result line carries exactly the metrics BENCHMARK.json declares
    unit = declared_units()["per_layer" if args.trace else "end_to_end"]
    declared = {k: {"value": metrics[k], "unit": u} for k, u in unit.items()}
    record["metrics"] = declared if args.trace else {
        k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()
    }
    record["correct"] = correct
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print_report(args, record, metrics)
    print(f"record: {path.relative_to(ROOT)}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
