"""Benchmark of the mot pipeline: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload pave-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory and from nowhere else.  Set-up (imports, inputs, JSON
files, warm-up) is followed by whole rounds over the workload's fixed
operations until ``--seconds`` is spent.  The outputs of the first round
are checked against computations made apart from the program, every
later round must reproduce them exactly, and damaged copies of them must
fail the checks.  Times are scaled to reference speed by a calibration
loop run between chunks of operations (see ``Pace``).  The last line of
standard output is the result object; with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer ones (rounds
alternate untraced and traced).
"""

import time

T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys

# One process, one numerical-library thread: all load is the program's.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its limit; a
    BaseException so that no handler in the program swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


def timed(fn, limit):
    """(value, seconds, finished).  An operation stopped at ``limit`` is
    charged the limit."""
    finished = False
    value = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        value = fn()
        elapsed = time.perf_counter() - t0
        finished = True
    except OpTimeout:  # also an alarm that fires just after fn returned
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return value, (elapsed if finished else limit), finished


class Pace:
    """Converts operation times to reference-speed seconds.

    On a shared host the same work runs up to a third slower for seconds,
    sometimes minutes, at a time while other tenants load the machine.
    A fixed calibration loop runs before and after every chunk of about
    CHUNK_S of operations; each operation's time is scaled by the loop's
    reference time over the mean of the two loop times around it.  The
    loop does interpreter steps on a small array and, for a workload
    whose time goes to large coupling LPs (``large``), also pivots on a
    tableau of their size, which loads memory as well.  It does not call
    the program, so a change to the program cannot move it.  A time limit
    is charged as it is, unscaled.
    """

    CHUNK_S = 0.25
    # (array shape, steps, the part's time at reference speed)
    SMALL = ((12, 30), 300, 0.007)
    LARGE = ((100, 900), 20, 0.006)

    def __init__(self, large: bool):
        import numpy as np

        self.np = np
        self.parts = (self.SMALL, self.LARGE) if large else (self.SMALL,)
        self.ref_s = sum(ref for _, _, ref in self.parts)
        self.pending = []
        self.before = None
        for _ in range(3):  # warm-up
            self.loop()

    def loop(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for shape, steps, _ in self.parts:
            T = np.linspace(-1.0, 1.0, shape[0] * shape[1]).reshape(shape)
            for _ in range(steps):
                col = int(np.argmax(T[-1, :20]))
                row = int(np.argmin(np.abs(T[:-1, col])))
                T -= np.outer(T[:, col] * 1e-3, T[row])
                if shape is self.SMALL[0]:
                    sum({i: i for i in range(20)}.values()) + len([x for x in range(30) if x % 3])
        return time.perf_counter() - t0

    def scale(self, loop_times) -> float:
        return self.ref_s / statistics.mean(loop_times)

    def start(self):
        self.pending = []
        self.before = self.loop()

    def add(self, name, seconds, finished, last):
        """Queue one operation's time; returns the chunk's scaled times
        when the chunk is full or the round ends."""
        self.pending.append((name, seconds, finished))
        if not last and sum(s for _, s, _ in self.pending) < self.CHUNK_S:
            return []
        after = self.loop()
        scale = self.scale([self.before, after])
        out = [(n, s * scale if ok else s) for n, s, ok in self.pending]
        self.pending, self.before = [], after
        return out


def import_program():
    """Import mot from this checkout's src, failing if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "mot", "__init__.py")):
        sys.exit(f"error: no program at {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import mot

    if os.path.dirname(os.path.dirname(os.path.abspath(mot.__file__))) != SRC:
        sys.exit(f"error: mot was imported from {mot.__file__}, not {SRC}")
    import workloads

    return workloads


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - T0
    rss_after_import = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    signal.signal(signal.SIGALRM, _alarm)

    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)

    # Set-up several times; imports happen once and are added to the median.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
        ops = wl.setup()
        random.Random(args.seed).shuffle(ops)
        wl.warmup()
        setup_times.append(time.perf_counter() - t0)
    pace = Pace(large=wl.LARGE_LPS)
    setup_s = (import_s + statistics.median(setup_times)) * pace.scale([pace.loop() for _ in range(3)])

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    attempted = failed = 0
    # op_times: reference-speed seconds per operation; round_s: wall seconds
    op_times = {False: {op.name: [] for op in ops}, True: {op.name: [] for op in ops}}
    round_s = {False: [], True: []}
    paced = {False: [], True: []}
    summaries = []
    first = {}  # op name -> result of the first round
    digests = {}
    mismatches = []
    t_start = time.perf_counter()
    rnd = 0
    while True:
        traced = bool(tracer) and rnd % 2 == 1
        if traced:
            mark = tracer.mark()
            tracer.install()
        total = paced_total = 0.0
        try:
            pace.start()
            for k, op in enumerate(ops):
                value, seconds, finished = timed(op.run, op.limit)
                attempted += 1
                total += seconds
                for name, t in pace.add(op.name, seconds, finished, last=k == len(ops) - 1):
                    op_times[traced][name].append(t)
                    paced_total += t
                if not finished:
                    failed += 1
                    continue
                res = wl.result(op, value)
                h = digest(res)
                if op.name not in digests:
                    digests[op.name] = h
                    first[op.name] = res
                elif digests[op.name] != h:
                    mismatches.append(op.name)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            summaries.append(tracer.summary(mark))
        round_s[traced].append(total)
        paced[traced].append(paced_total)
        rnd += 1
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(round_s[False] + round_s[True])
        if rnd >= 2 and elapsed + typical / 2 >= args.seconds:
            break
    measured_s = time.perf_counter() - t_start
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks' imports

    # Checks, untimed, on the first round's outputs.
    errors = [f"{name}: output differs between rounds" for name in sorted(set(mismatches))]
    checked = {}
    for op in ops:
        if op.name in first:
            checked[op.name] = wl.check_input(op, first[op.name])
            errors += [f"{op.name}: {e}" for e in wl.check(op, checked[op.name])]
    # Self-test: damaged outputs must fail the same checks.
    corruptions = caught = 0
    for op in ops[:: max(1, len(ops) // 12)]:
        for label, bad in wl.corrupt(checked.get(op.name)) if op.name in checked else ():
            corruptions += 1
            if wl.check(op, bad):
                caught += 1
            else:
                errors.append(f"{op.name}: the checks accept a {label}")
    for e in errors[:20]:
        print("check failed:", e)
    print(
        f"{args.workload} seed {args.seed}: {rnd} rounds in {measured_s:.1f} s, "
        f"{attempted} operations, {failed} failed; checked {len(checked)} outputs, "
        f"{len(errors)} errors; self-test caught {caught} of {corruptions} damaged outputs"
    )

    with open(os.path.join(outdir, "timings.json"), "w") as fh:
        json.dump({"setup_s": setup_times, "import_s": import_s, "rounds_s": round_s[False],
                   "traced_rounds_s": round_s[True], "ops_s": op_times[False],
                   "traced_ops_s": op_times[True]}, fh)
    if tracer is None:
        per_op = [statistics.median(t) for t in op_times[False].values()]
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (statistics.median(paced[False]), "s"),
            "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        }
    else:
        metrics = per_layer(summaries, round_s, paced, peak_rss)
        tracer.write(os.path.join(outdir, "spans.json"))
        print(f"spans: {len(tracer.name_idx)} written; not in this program: {tracer.skipped}")
    print(f"rss: {rss_after_import:.1f} MB after imports, {peak_rss:.1f} MB peak")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def per_layer(summaries, round_s, paced, peak_rss):
    """Counts from the first traced round (every round makes the same
    calls); times as medians over the traced rounds."""
    units = {"calls": "count", "self_s": "s"}
    first = summaries[0]
    out = {}
    for key, value in first.items():
        kind = key.rsplit(".", 1)[-1]
        if kind == "self_s":
            out[key] = (statistics.median(s[key] for s in summaries), "s")
        elif kind in units:
            out[key] = (value, units[kind])
    out["lp.rows.max"] = (first["lp.rows.max"], "rows")
    out["lp.cols.max"] = (first["lp.cols.max"], "cols")
    out["lp.cells.sum"] = (first["lp.cells.sum"], "cells")
    out["lp.infeasible"] = (first["lp.infeasible"], "count")
    out["lp.unbounded"] = (first["lp.unbounded"], "count")
    out["coupling.mask_lp_per_call"] = (first["coupling.mask_lp_per_call"], "ratio")
    out["paving.merge_hit_ratio"] = (first["paving.merge_hit_ratio"], "ratio")
    out["trace.overhead_s"] = (statistics.median(paced[True]) - statistics.median(paced[False]), "s")
    traced = statistics.median(round_s[True])
    out["trace.self_share"] = (statistics.median(s["trace.self_sum_s"] for s in summaries) / traced, "ratio")
    out["peak_rss_mb"] = (peak_rss, "MB")
    return out


if __name__ == "__main__":
    main()
