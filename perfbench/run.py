"""ghrlab benchmark controller.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One long-lived workload process (perfbench/worker.py) imports ghrlab from
./src and runs CLI operations that this controller sends back to back: a closed
loop with one client and no think time.  Every op is checked (exit code,
replay header, the CSV's own identities and, for recorded argvs, SHA-256).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs a
fixed list of ops alternately untraced and traced, and reports per-layer
metrics from the spans the tracer records.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before it
is {"context": ...}: versions, thread settings, seed and every op's argv.
Metric names and units come from BENCHMARK.json; perfbench/README.md defines
them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# The reference kernel below runs in this process; pin its BLAS as the
# workload process's is pinned, before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402

from checks import argv_key, check_output  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_ENV = {"GHRLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_SAMPLES = 5          # cold workload processes per run; setup_s is their median
OP_TIMEOUT_S = 120.0
REFERENCE_SEED = 0         # the seed whose op outputs refs.json records


def protocol_n1024(s):
    return [["protocol-success", "--n", "1024", "--trials", "8", "--seed", str(s)]]


def aleph_n256(s):
    return [["aleph-estimate", "--n", "256", "--trials", "32", "--seed", str(s)]]


def verifier_round(s):
    return [
        ["coupling-verify", "--n", "6"],
        ["bounds-validate", "--n", "256"],
        ["rect-spectrum", "--rect", "parity_even", "--n", "12"],
        ["protocol-failure-exact", "--n", "64", "--trials", "20", "--seed", str(s)],
        ["baseline-tghr", "--n", "1024", "--t", "256", "--trials", "50", "--seed", str(s)],
        ["reduction-demo", "--c1", "6", "--c2", "8", "--n", "16", "--trials", "3", "--seed", str(s)],
    ]


# workload -> (argvs of one op given its seed, ops in one pass of a traced run)
WORKLOADS = {
    "protocol-n1024": (protocol_n1024, 4),
    "aleph-n256": (aleph_n256, 32),
    "verifier-round": (verifier_round, 2),
}
# Subcommands that build delta tables for a list of --trials pairs.
PER_PAIR = ("aleph-estimate", "protocol-success", "protocol-failure-exact")


def op_seed(seed: int, i: int) -> int:
    """CLI --seed of op i under workload seed `seed`."""
    return (seed << 32) | i


class BenchError(Exception):
    """The benchmark cannot produce a result."""


_REF_A = np.random.default_rng(12345).standard_normal((256, 256))
# The kernel's median time on the 2-core VM where the bounds were set.
REF_KERNEL_S = 0.0115


def ref_kernel() -> float:
    """Machine slowness: the time of a fixed reference kernel, run in the
    controller's own process, over REF_KERNEL_S.  The kernel does float matmuls
    (the kind of work the table kernel does) and exact integer and Fraction
    sums (the bound grids and the coupling DP).  No ghrlab code runs here,
    so no change to the package can move it."""
    start = time.perf_counter()
    a = _REF_A
    for _ in range(6):
        a = np.tanh(_REF_A @ a)
    acc = Fraction(0)
    for m in range(200, 600):
        acc += Fraction(math.comb(m, m // 3), 1 << m)
    if not (np.isfinite(a).all() and 0 < acc < 1):
        raise BenchError("reference kernel went wrong")
    return (time.perf_counter() - start) / REF_KERNEL_S


class Worker:
    """One workload process and its request/reply pipes."""

    def __init__(self, work: Path) -> None:
        env = dict(os.environ, **WORKER_ENV)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT / "src"), str(work)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
        )

    def request(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write((json.dumps(msg) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError(f"workload process exited (code {self.proc.poll()})") from None
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise BenchError(f"workload process gave no reply to {msg.get('cmd')}"
                             f" (exit code {self.proc.poll()})")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Run:
    """State of one benchmark run: workers, op outcomes and slowness samples.

    The reference kernel runs once between any two ops, so each op's
    slowness is the mean of the samples taken just before and just after
    it; a cold start's spans the launch too."""

    def __init__(self, workload: str, seed: int, refs: dict, work: Path) -> None:
        self.make_argvs, self.pass_ops = WORKLOADS[workload]
        self.seed = seed
        self.refs = refs
        self.work = work
        self.workers: list[Worker] = []
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hash_checked = 0
        self.argvs: list = []
        self.kernel: list[float] = []
        self.sample_slowness()

    def sample_slowness(self) -> float:
        self.kernel.append(ref_kernel())
        return self.kernel[-1]

    def op(self, worker: Worker, argvs) -> tuple[float, float, bool, list | None]:
        """Run one op; return its latency, the slowness around it, whether
        it passed, and its span totals (traced ops only).  Checks and the
        kernel run after the op's clock stops."""
        op_id = self.next_op
        self.next_op += 1
        outs = [self.work / f"out{k}.csv" for k in range(len(argvs))]
        for out in outs:
            out.unlink(missing_ok=True)
        start = time.perf_counter()
        answer = worker.request({"cmd": "op", "op": op_id, "argvs": argvs})
        latency = time.perf_counter() - start
        before = self.kernel[-1]
        slowness = (before + self.sample_slowness()) / 2
        self.attempted += 1
        self.argvs.append(argvs)
        reasons = []
        for argv, code, out in zip(argvs, answer["codes"], outs):
            data = out.read_bytes() if out.exists() else None
            self.hash_checked += argv_key(argv) in self.refs
            reason = check_output(argv, code, data, self.refs)
            if reason:
                reasons.append(f"op {op_id} {argv_key(argv)}: {reason}")
        self.failed += bool(reasons)
        self.failures.extend(reasons)
        for reason in reasons:
            print(f"perfbench: FAILED {reason}", file=sys.stderr)
        return latency, slowness, not reasons, answer["stats"]

    def cold_start(self) -> tuple[Worker, float, float]:
        """Launch a workload process and run the reference op as its first
        op; return it, the time from launch to the end of that op, and the
        slowness around that time."""
        worker = Worker(self.work)
        self.workers.append(worker)
        _, slowness, _, _ = self.op(worker, self.make_argvs(op_seed(REFERENCE_SEED, 0)))
        return worker, time.perf_counter() - worker.started, slowness

    def close(self) -> None:
        for worker in self.workers:
            if worker.proc.poll() is None:
                worker.proc.kill()
            worker.close()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond it) at the highest percentile with at
    least ten ops beyond it, but never below the median: a run of fewer than
    twenty ops has no resolvable tail and reports its (upper) median."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Times are divided by the slowness around them: the machine's speed
    drifts by tens of percent within a run, and the unscaled median of a
    run that straddles a fast and a slow phase depends on where it splits."""
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        worker, setup, slowness = run.cold_start()
        raw_setups.append(setup)
        setups.append(setup / slowness)
        if len(setups) < SETUP_SAMPLES:
            worker.close()
    raw, scaled, oks = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        latency, slowness, ok, _ = run.op(worker, run.make_argvs(op_seed(run.seed, i)))
        raw.append(latency)
        scaled.append(latency / slowness)
        oks.append(ok)
        i += 1
    rss_kb = worker.request({"cmd": "rss"})["rss_kb"]
    worker.close()

    def figures(latencies, setup_samples):
        # a failed op misses every latency limit
        ranked = [x if ok else math.inf for x, ok in zip(latencies, oks)]
        return {
            "throughput_ops_per_s": sum(oks) / sum(latencies),
            "latency_p50_s": statistics.median(ranked),
            "latency_tail_s": tail(ranked)[0],
            "setup_s": statistics.median(setup_samples),
        }

    metrics = figures(scaled, setups)
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    metrics["success_rate"] = (run.attempted - run.failed) / run.attempted
    _, tail_pct, beyond = tail(scaled)
    context = {
        "timed_ops": len(raw),
        "tail_percentile": tail_pct,
        "tail_ops_beyond": beyond,
        "setup_samples_s": raw_setups,
        "unscaled": figures(raw, raw_setups),
        "bench.ref_slowness": statistics.median(run.kernel),
    }
    return metrics, context


FIELDS = {"calls": 0, "self_s": 1, "total_s": 2, "cells": 3, "bytes": 3}
REPORTS = ("bounds.hoeffding_dominance_report", "bounds.chernoff_dominance_report",
           "bounds.window_lower_dominance_report")


def traced(run: Run, seconds: float, names: list[str]) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the same fixed ops until
    `seconds` have passed.  Every pass runs the same ops, so per-op counts
    repeat exactly for a given seed however many passes fit."""
    worker, _, _ = run.cold_start()
    ops = [run.make_argvs(op_seed(run.seed, i)) for i in range(run.pass_ops)]
    busy = {False: 0.0, True: 0.0}
    totals: dict[str, list] = {}
    by_sub: dict[str, float] = {}
    tables = pairs = 0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for on in ((False, True) if passes % 2 == 0 else (True, False)):
            worker.request({"cmd": "trace", "on": on})
            for argvs in ops:
                latency, slowness, _, stats = run.op(worker, argvs)
                busy[on] += latency / slowness
                for argv, spans in zip(argvs, stats or []):
                    for name, row in spans.items():
                        acc = totals.setdefault(name, [0, 0.0, 0.0, 0])
                        for k, value in enumerate(row):
                            acc[k] += value
                    by_sub[argv[0]] = by_sub.get(argv[0], 0.0) + spans["cli.main"][2]
                    if argv[0] in PER_PAIR:
                        tables += spans.get("relation.delta_table", [0])[0]
                        pairs += int(argv[argv.index("--trials") + 1])
        passes += 1
    worker.request({"cmd": "trace", "on": False})
    worker.close()
    count = passes * len(ops)
    untraced_tp = count / busy[False]
    special = {
        "relation.delta_table.per_trial": tables / pairs if pairs else 0.0,
        "bounds.points": sum(totals.get(r, [0, 0, 0, 0])[3] for r in REPORTS) / count,
        "bench.trace_overhead": busy[False] / busy[True],
        "bench.ref_slowness": statistics.median(run.kernel),
        "bench.throughput_per_ref": untraced_tp,
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        elif name.startswith("cli.main."):
            metrics[name] = by_sub.get(name[len("cli.main."):-len(".s")], 0.0) / count
        else:
            layer, stat = name.rsplit(".", 1)
            metrics[name] = totals.get(layer, [0, 0.0, 0.0, 0])[FIELDS[stat]] / count
    context = {"passes": passes, "ops_per_pass": len(ops), "untraced_ops_per_s": untraced_tp}
    return metrics, context


def environment(workload: str, seed: int) -> dict:
    rev = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            rev = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ghrlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": rev,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "worker_env": WORKER_ENV,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 32:
        parser.error("--seed must be in [0, 2**32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ghrlab" / "cli.py").is_file():
        print(f"perfbench: no ghrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    refs = json.loads((HERE / "refs.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, refs, work)
    try:
        if args.trace:
            values, extra = traced(run, args.seconds, list(units))
        else:
            values, extra = end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    context = environment(args.workload, args.seed)
    context.update(extra, hash_checked=run.hash_checked, failures=run.failures, argvs=run.argvs)
    print(json.dumps({"context": context}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name] if math.isfinite(values[name]) else None,
                   "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
