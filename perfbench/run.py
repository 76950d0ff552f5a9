"""cqgraph benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree; cqgraph is imported from ``src/``.  One
process, one thread, a closed loop with concurrency 1: the next op starts
when the previous one returns.  The run

1. builds the workload's inputs and references from the seed (untimed);
2. sets up ``--setups`` times: a fresh import of cqgraph plus one untimed
   warm-up pass over all ops; ``setup_s`` is the median;
3. runs whole passes over the ops until they have taken ``--seconds``
   reference seconds (below) and the latencies have at least 10 samples
   above their 90th percentile.

Times are reported in reference seconds.  The host this was written on
changes speed by tens of percent within minutes, and the change slows all
interpreted code alike, so a calibration slice (fixed pure-Python work) runs
after every 10 ms of op time, and each time is scaled by 1 ms over the mean
time of the slices run around it.  A program change still moves the figures
in full; the host's speed does not.  Each op starts on a collected heap, and
the benchmark's own objects are frozen out of the collector (``gc.freeze``).

With ``--trace 1`` the timed part alternates untraced and traced passes,
and only per-layer figures are reported (see ``tracing.py``); end-to-end
figures come from untraced runs only.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record, with the environment, goes to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, WrongAnswer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"
MIN_TAIL = 10  # samples that must lie above the reported p90
SLICE_EVERY_S = 0.01  # op time between two calibration slices
REF_SLICE_S = 0.001  # one calibration slice takes this long at reference speed
NEAR_S = 0.05  # reach of the slices that set one op's speed
NEAR_SLICES = 8  # fewest slices that set one op's speed


def calibration_slice() -> float:
    """Time a fixed piece of pure-Python work (dict, tuple and list traffic,
    like the interpreter work cqgraph does); 0.7-1.7 ms on the 2-core
    virtual machine the benchmark was written on, as its host's load
    changed."""
    start = perf_counter()
    counts: dict = {}
    pairs = []
    for i in range(5000):
        key = i * 7919 % 1031
        counts[key] = counts.get(key, 0) + 1
        if i % 3 == 0:
            pairs.append((key, i))
    return perf_counter() - start


@dataclass
class Timed:
    """Timings of whole passes, in reference seconds.

    The host's speed drifts by tens of percent within minutes, and it slows
    all interpreted code alike.  So each pass runs a calibration slice after
    every ``SLICE_EVERY_S`` of op time, and times measured in the pass are
    scaled by ``REF_SLICE_S`` over the mean time of the slices run with them.
    """

    latencies: list = field(default_factory=list)  # correct ops only
    attempted: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)
    wall: float = 0.0  # reference seconds of op time, slices excluded
    raw_wall: float = 0.0  # the same, unscaled
    speeds: list = field(default_factory=list)  # REF_SLICE_S / mean slice, per pass
    raw_pass_s: list = field(default_factory=list)  # unscaled op time, per pass

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def answered(self) -> int:
        return len(self.latencies)

    @property
    def passes(self) -> int:
        return len(self.speeds)

    @property
    def ops_per_s(self) -> float:
        return self.answered / self.wall

    def p90(self) -> float:
        return statistics.quantiles(self.latencies, n=10)[-1]

    def tail(self) -> int:
        if self.answered < 2:
            return 0
        p90 = self.p90()
        return sum(x > p90 for x in self.latencies)


def freeze_heap():
    """Move every object alive now (inputs, references, ops, the harness)
    out of the collector's reach, so that a collection inside an op costs
    what it would in a process that holds only that op's data."""
    gc.collect()
    gc.freeze()


def fresh_import():
    """Import cqgraph (and its CLI) anew from src/; returns (package, seconds)."""
    for name in [m for m in sys.modules if m == "cqgraph" or m.startswith("cqgraph.")]:
        del sys.modules[name]
    start = perf_counter()
    cq = importlib.import_module("cqgraph")
    importlib.import_module("cqgraph.cli")
    took = perf_counter() - start
    if not Path(cq.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported cqgraph from {cq.__file__}, not from {SRC}")
    return cq, took


def local_speeds(spans: list, starts: list, slices: list) -> list:
    """Speed factor for each op, from the calibration slices run near it.

    ``spans`` are the ops' (start, end) and ``starts``/``slices`` the
    slices' start times and durations.  An op's window reaches
    ``NEAR_S`` either side of it, plus the slices its own time was owed
    after it ends, and widens by index until it holds ``NEAR_SLICES``.
    """
    out = []
    for t0, t1 in spans:
        lo = bisect.bisect_left(starts, t0 - NEAR_S)
        # the slices owed to an op take about a tenth of its length
        hi = bisect.bisect_right(starts, t1 + NEAR_S + 0.2 * (t1 - t0))
        while hi - lo < NEAR_SLICES and (lo > 0 or hi < len(starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
        out.append(REF_SLICE_S * (hi - lo) / sum(slices[lo:hi]))
    return out


def run_pass(ops: list, timed: Timed, tracer=None) -> float:
    """One pass over all ops, in order, accumulated into ``timed``.

    Returns the pass's speed factor (reference seconds per second).  Each
    latency is scaled by the speed measured around its own op instead,
    since the speed can change within a pass."""
    spans = []  # (start, end) of the ops that answered correctly
    op_time, due, starts, slices = 0.0, 0.0, [], []
    for op in ops:
        if tracer is not None:
            tracer.op_id = timed.attempted
        timed.attempted += 1
        gc.collect()  # garbage of the ops before is not this op's cost
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op; keep going
            timed.failures[f"{op.label}: {traceback.format_exception_only(exc)[-1].strip()[:160]}"] += 1
            result = exc
        t1 = perf_counter()
        op_time += t1 - t0
        due += t1 - t0
        while due >= SLICE_EVERY_S:
            due -= SLICE_EVERY_S
            starts.append(perf_counter())
            slices.append(calibration_slice())
        if isinstance(result, Exception):
            continue
        try:
            op.check(result)
        except Exception as exc:  # WrongAnswer, or output the check cannot read
            timed.wrong += 1
            kind = "WrongAnswer" if isinstance(exc, WrongAnswer) else type(exc).__name__
            timed.failures[f"{op.label}: {kind}: {exc}"[:200]] += 1
            continue
        spans.append((t0, t1))
    if not slices:
        starts.append(perf_counter())
        slices.append(calibration_slice())
    speed = REF_SLICE_S * len(slices) / sum(slices)
    timed.latencies.extend((t1 - t0) * near for (t0, t1), near in zip(spans, local_speeds(spans, starts, slices)))
    timed.wall += op_time * speed
    timed.raw_wall += op_time
    timed.speeds.append(speed)
    timed.raw_pass_s.append(op_time)
    return speed


def run_passes(ops: list, seconds: float) -> Timed:
    timed = Timed()
    while True:
        run_pass(ops, timed)
        if timed.wall >= seconds and (timed.tail() >= MIN_TAIL or timed.wall >= 4 * seconds):
            return timed


def run_traced(ops: list, seconds: float):
    """Untraced and traced passes in turn, so both meet the same machine noise."""
    from tracing import Tracer

    untraced, traced, tracer = Timed(), Timed(), Tracer()
    while untraced.wall + traced.wall < seconds or not traced.passes:
        run_pass(ops, untraced)
        with tracer:
            run_pass(ops, traced, tracer)
    return untraced, traced, tracer


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cqgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cqgraph_commit": git_commit(),
        "cqgraph_source_sha256": source_digest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, setups: int) -> int:
    if name not in WORKLOADS:
        print(f"perfbench: unknown workload {name!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    fresh_import()
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        workload = WORKLOADS[name](seed, workdir)
        setup_times = []
        for _ in range(setups):
            cq, import_s = fresh_import()
            ops = workload.bind(cq)
            freeze_heap()
            warm = Timed()  # failures are counted in the timed passes
            speed = run_pass(ops, warm)
            setup_times.append((import_s + warm.raw_wall) * speed)
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment(), "inputs": workload.info,
                  "setup_s_each": setup_times}
        if trace:
            untraced, timed, tracer = run_traced(ops, seconds)
        else:
            timed = run_passes(ops, seconds)
        if not timed.answered:
            print("perfbench: no op returned a correct answer", file=sys.stderr)
            for failure, count in timed.failures.most_common(5):
                print(f"  {count} x {failure}", file=sys.stderr)
            return 1
        if trace:
            speed = timed.wall / timed.raw_wall  # mean over the traced passes
            metrics = tracer.layer_metrics(timed.attempted, speed)
            metrics["trace.ops_per_s"] = (timed.ops_per_s, "1/s")
            metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s, "1/s")
            metrics["trace.overhead_frac"] = (untraced.ops_per_s / timed.ops_per_s - 1, "ratio")
            write_spans(name, seed, tracer.spans)
            wrong = untraced.wrong + timed.wrong
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "ops_per_s": (timed.ops_per_s, "1/s"),
                "op_p50_ms": (statistics.median(timed.latencies) * 1000, "ms"),
                "op_p90_ms": (timed.p90() * 1000, "ms"),
                "ok_frac": (timed.answered / timed.attempted, "ratio"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            wrong = timed.wrong
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update({
        "ops_per_pass": len(ops), "passes": timed.passes, "attempted": timed.attempted,
        "failed": timed.failed, "failed_frac": timed.failed / timed.attempted,
        "wrong": wrong, "samples": timed.answered, "samples_above_p90": timed.tail(),
        "speeds": timed.speeds, "raw_pass_s": timed.raw_pass_s,
        "raw_op_seconds": timed.raw_wall, "failures": dict(timed.failures.most_common()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(ops)} ops per pass, "
          f"{timed.passes} passes, {timed.attempted} attempted, {timed.failed} failed "
          f"(failed_frac {timed.failed / timed.attempted:.6g}), {wrong} wrong answers; "
          f"{timed.answered} latency samples, {timed.tail()} above p90")
    for failure, count in timed.failures.most_common():
        print(f"  failed {count} x {failure}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:14.6g} {unit}")
    print(json.dumps({"correct": wrong == 0, "attempted": timed.attempted, "failed": timed.failed,
                      "metrics": record["metrics"]}))
    return 0


def write_spans(name: str, seed: int, spans: list):
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def smoke() -> int:
    """Every workload, both modes, briefly: is every named metric emitted?"""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--setups", "1"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            doc = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(k for k in want if k in got and want[k] != got[k])}")
            if not doc["correct"]:
                problems.append(f"{workload} trace {trace}: wrong answers")
            print(f"smoke {workload} trace {trace}: {len(got)} metrics, "
                  f"{doc['attempted']} attempted, {doc['failed']} failed")
    for problem in problems:
        print("smoke FAILED:", problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups per run; setup_s is their median")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the metric names")
    args = parser.parse_args(argv)
    if not (SRC / "cqgraph" / "__init__.py").is_file():
        print(f"perfbench: no cqgraph sources in {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload or args.setups < 1 or args.seconds <= 0:
        parser.error("--workload is required; --setups and --seconds must be positive")
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.setups)


if __name__ == "__main__":
    sys.exit(main())
