"""koszulkit benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; koszulkit is imported from its
``src/`` directory, never from an installed copy.  Workloads are described in
``perfbench/NOTES.md``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the run's conditions and sample counts.

Untraced (``--trace 0``): set-up is repeated ``SETUPS`` times and timed, then
whole passes over the workload's inputs run until another pass would end
after ``--seconds`` (at least one pass).  A ``speed.Speedometer`` samples the
machine's speed throughout, and the times are reported in its reference
seconds, which a shared host's changing speed moves far less than wall
seconds.  Traced (``--trace 1``): one untraced pass, then one pass with
spans attached, reporting per-layer self times, call counts and size
counters in wall seconds.  Every operation's output is checked after the
timed region; exit code 1 means a check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
from speed import Speedometer
from workloads import LADDER, WORKLOADS, suite_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
SETUPS = 11


class Package:
    """Freshly imported koszulkit modules the workloads call into."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "koszulkit" or m.startswith("koszulkit.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("koszulkit.cli")
        self.quotient = importlib.import_module("koszulkit.quotient")
        origin = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"koszulkit was imported from {origin}, not from {SRC}")


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def setup(workload, seed, workdir):
    """Import koszulkit and build, write and parse the inputs; returns the
    start and end marks of that, the package and the operations."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = Speedometer.now()
    workdir.mkdir(parents=True)
    kk = Package()
    ops = workload.build(kk, seed, workdir)
    return (start, Speedometer.now()), kk, ops


def run_pass(workload, kk, ops):
    """One pass; returns (its start and end marks, per-op marks, outputs or
    exceptions).  A mark is a (wall, cpu) clock pair."""
    op_marks, outputs = [], []
    start = Speedometer.now()
    for op in ops:
        t = Speedometer.now()
        try:
            outputs.append(workload.run(kk, op))
        except Exception as ex:  # counted as a failed operation
            outputs.append(ex)
        op_marks.append((t, Speedometer.now()))
    return (start, Speedometer.now()), op_marks, outputs


def wall_s(marks):
    return marks[1][0] - marks[0][0]


def check_pass(workload, ops, outputs):
    """One line per failed operation of a pass."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            problems = [f"{type(out).__name__}: {out}"]
        else:
            try:
                problems = workload.check(op, out)
            except Exception as ex:  # a malformed output is a failed operation
                problems = [f"unreadable output: {type(ex).__name__}: {ex}"]
        if problems:
            failures.append(f"{op[0]}: {'; '.join(problems)}")
    return failures


def output_bytes(outputs):
    return sum(len(o[1]) for o in outputs if isinstance(o, tuple) and isinstance(o[1], str))


def tail(samples):
    """(percentile, value) of the highest sample with ten samples above it."""
    n = len(samples)
    return (100 * (n - 10) // n, sorted(samples)[n - 11]) if n > 10 else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, kk, ops, seconds):
    """Whole passes until another would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, kk, ops))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(wall_s(p[0]) for p in passes) > seconds:
            return passes


def traced_metrics(rec, ops, base, traced):
    """Per-layer metrics from a traced pass and an untraced one."""
    pass_s = wall_s(traced[0])
    op_walls = [wall_s(m) for m in traced[1]]
    outputs = traced[2]
    named = {n: s for n, s in rec.spans.items() if n != spans.COUNTERS_SPAN}
    out = {}
    for name, (calls, self_s) in sorted(named.items()):
        out[f"{name}.self_s"] = metric(self_s, "s")
        out[f"{name}.calls"] = metric(calls, "count")
    for layer in spans.LAYERS:
        total = sum(s for n, (_, s) in named.items() if n.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = metric(total, "s")
    for name in spans.COUNTERS:
        out[name] = metric(rec.counters.get(name, 0), "count")
    walls = dict(zip((op[0] for op in ops), op_walls))
    for rung, *_ in LADDER:
        out[f"dual_element.rung_s.{rung}"] = metric(walls.get(rung, 0.0), "s")
    out["cli.output_bytes"] = metric(output_bytes(outputs), "bytes")
    out["trace.counters_s"] = metric(rec.spans[spans.COUNTERS_SPAN][1], "s")
    out["trace.unspanned_s"] = metric(pass_s - rec.spanned_s, "s")
    out["trace.pass_s"] = metric(pass_s, "s")
    out["trace.untraced_pass_s"] = metric(base, "s")
    out["trace.overhead_frac"] = metric(pass_s / base - 1, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "koszulkit" / "__init__.py").is_file():
        print(f"error: no koszulkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("KOSZULKIT_SEED", None)  # it would override --seed in verify
    workload = WORKLOADS[args.workload]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }
    if workload.name.startswith("verify-"):
        record["suite_seeds"] = suite_seeds(args.seed, workload.seeds)

    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if args.trace:
            for _ in range(SETUPS):
                marks, kk, ops = setup(workload, args.seed, workdir)
                setups.append(marks)
            passes = [run_pass(workload, kk, ops)]
            rec = spans.Recorder()
            undo = spans.install(rec)
            try:
                traced = run_pass(workload, kk, ops)
            finally:
                spans.uninstall(undo)
            passes.append(traced)
        else:
            speedo = Speedometer()
            speedo.start()
            try:
                # set-ups are shorter than the timer's interval: a sample
                # before each one follows the speed through them
                for _ in range(SETUPS):
                    speedo.sample()
                    marks, kk, ops = setup(workload, args.seed, workdir)
                    setups.append(marks)
                speedo.sample()
                passes = untraced(workload, kk, ops, args.seconds)
            finally:
                speedo.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    problems = [f for p in passes for f in check_pass(workload, ops, p[2])]
    attempted = len(ops) * len(passes)
    failed = len(problems)

    if args.trace:
        walls = [wall_s(p[0]) for p in passes]
        setup_samples = [wall_s(m) for m in setups]
        op_s = [wall_s(m) for m in passes[-1][1]]
        metrics = traced_metrics(rec, ops, walls[0], passes[1])
        for name in workload.hot:
            if not rec.spans.get(name, [0])[0]:
                problems.append(f"hot span {name} recorded no calls")
        self_sum = sum(s for _, s in rec.spans.values())
        if abs(self_sum - rec.spanned_s) > 1e-6 * max(1.0, rec.spanned_s):
            problems.append(f"self times sum to {self_sum}, spans cover {rec.spanned_s}")
    else:
        # (reference (wall, cpu), program's own (wall, cpu)) per pass
        timed = [speedo.calibrated(*p[0]) for p in passes]
        walls = [ref[0] for ref, _ in timed]
        setup_samples = [speedo.calibrated(*m)[0][0] for m in setups]
        op_s = [speedo.calibrated(*m)[0][0] for m in passes[-1][1]]
        metrics = {
            "pass_s": metric(statistics.median(walls), "s"),
            "cpu_s": metric(statistics.median(ref[1] for ref, _ in timed), "s"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        kernel_s = speedo.kernel_s()
        record.update(
            pass_wall_s=[own[0] for _, own in timed],
            pass_process_s=[own[1] for _, own in timed],
            speed_samples=len(kernel_s),
            kernel_s_quartiles=statistics.quantiles(kernel_s, n=4),
        )
    record.update(
        loadavg_end=loadavg(),
        passes=len(passes),
        pass_s_samples=walls,
        pass_s_tail=tail(walls),
        op_s={op[0]: s for op, s in zip(ops, op_s)},
        setup_s_samples=setup_samples,
        fail_frac=f"{failed}/{attempted}",
        problems=problems,
    )
    print(json.dumps({"record": record}))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
