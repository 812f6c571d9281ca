"""Benchmark driver for the tss toolkit.

    python3 perfbench/run.py --workload table_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; `tss` is imported from its `src/`.
One process, one thread, closed loop: each operation starts when the previous
one returns, and whole cycles of the workload's operations are repeated until
`--seconds` have passed and the workload's minimum number of cycles is done.
Every output is checked by the independent oracle in `oracle.py` after the
timed loop.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
cycles with the same cycles under span recording, and prints the per-layer
metrics.  The last line of standard output is one JSON object.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 15
TAIL_WINDOW = 100  # least operations in one window of the tail metric
SELF_TIME_GAP = 0.05  # traced: largest share by which self times may miss the timed seconds


def load_library():
    """Import `tss` from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "tss" / "__init__.py").is_file():
        print(f"error: no tss package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import tss
    if Path(tss.__file__).resolve().parent != SRC / "tss":
        print(f"error: imported tss from {tss.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


@dataclass(frozen=True)
class Failure:
    """An operation that raised; its check always fails."""

    text: str


class Loop:
    """Runs whole cycles of a workload and keeps what the metrics and the
    oracle need: every operation's time, and one copy of each distinct output."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[list[float]] = [[] for _ in wl.cycle]  # per operation of the cycle
        self.cycle_rates: list[float] = []
        self.outputs: dict[tuple, list] = {}  # (op index, digest) -> [op, output, count]

    def run(self, seconds: float | None = None, cycles: int | None = None, tracer=None) -> float:
        """Run until `cycles` are done, or until `seconds` have passed and the
        workload's minimum cycle count is reached.  Returns the timed total."""
        wl, times = self.wl, self.times
        start, done, total = time.perf_counter(), 0, 0.0
        while True:
            gc.collect()
            spent = 0.0
            for index, op in enumerate(wl.cycle):
                t0 = time.perf_counter()
                try:
                    out = op.run() if tracer is None else tracer.run_op(op.key, op.run)
                except Exception as exc:  # counted as a failed operation
                    out = Failure(f"{type(exc).__name__}: {exc}")
                t1 = time.perf_counter()
                times[index].append(t1 - t0)
                spent += t1 - t0
                digest = out if isinstance(out, Failure) else wl.digest(out)
                slot = self.outputs.setdefault((index, digest), [op, out, 0])
                slot[2] += 1
            self.cycle_rates.append(len(wl.cycle) / spent)
            total += spent
            done += 1
            if cycles is not None:
                if done >= cycles:
                    return total
            elif done >= wl.min_cycles and time.perf_counter() - start >= seconds:
                return total

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, first errors) after checking each distinct output once."""
        failed, errors = 0, []
        for op, out, count in self.outputs.values():
            if isinstance(out, Failure):
                err = out.text
            else:
                try:
                    err = op.check(out)
                except Exception as exc:  # e.g. no JSON on stdout after exit code 2
                    err = f"unreadable output ({type(exc).__name__}: {exc})"
            if err:
                failed += count
                errors.append(f"{op.key}: {err}")
        return sum(map(len, self.times)), failed, errors[:5]

    def all_times(self) -> list[float]:
        return sorted(t for ts in self.times for t in ts)

    def tail_windows(self) -> list[list[float]]:
        """The raw operation times, sorted, in windows of consecutive whole
        cycles holding at least TAIL_WINDOW operations; a shorter remainder
        joins the last window, and a run with fewer operations is one window."""
        cycles = list(zip(*self.times))
        per = -(-TAIL_WINDOW // len(self.wl.cycle))
        windows = [cycles[k:k + per] for k in range(0, len(cycles), per)]
        if len(windows) > 1 and len(windows[-1]) < per:
            last = windows.pop()
            windows[-1] += last
        return [sorted(t for cycle in window for t in cycle) for window in windows]


def tail(sorted_times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    at least ten samples beyond it; the maximum when there are ten or fewer."""
    n = len(sorted_times)
    if n <= 10:
        return sorted_times[-1], 100.0, 0
    return sorted_times[n - 11], 100.0 * (n - 10) / n, 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter to the point where the first
    timed operation would start, over SETUP_REPEATS child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(t1 - t0)
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, warm up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    for warm in wl.warmup:
        warm()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    loop = Loop(wl)
    head = f"{args.workload} seed {args.seed}: {len(wl.cycle)} operations per cycle; " + "; ".join(wl.notes)
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        # alternate untraced and traced cycles so that drift in the host's
        # speed falls on both sides of the overhead ratio alike
        untraced = traced = 0.0
        cycles, start = 0, time.perf_counter()
        while cycles == 0 or time.perf_counter() - start < args.seconds:
            untraced += loop.run(cycles=1)
            tracer.install()
            try:
                traced += loop.run(cycles=1, tracer=tracer)
            finally:
                tracer.uninstall()
            cycles += 1
        attempted, failed, errors = loop.check()
        layers = tracer.layer_metrics()
        layers["trace.overhead_share"] = traced / untraced - 1.0
        # the layers' self times and the roots' glue must add up to the
        # traced operations' seconds as the loop timed them from outside
        accounted = sum(layers[name] for name in tracing.SELF_TIME_METRICS) * tracer.ops + tracer.root_self_s
        gap = abs(traced - accounted) / traced
        sums_ok = tracer.bad_spans == 0 and gap < SELF_TIME_GAP
        print(head)
        print(f"traced {cycles} cycles ({tracer.ops} operations), each after the same cycle untraced; "
              f"self times account for {accounted:.4f} of {traced:.4f} timed s (gap {gap:.2%}), "
              f"{tracer.bad_spans} spans outside their parent or with negative self time")
        for name, value in layers.items():
            print(f"  {name:38s} {value:.6g}")
        if tracer.node_log:
            first = dict(reversed(tracer.node_log))
            print("solver.nodes per instance: " + json.dumps(first, sort_keys=True))
        units = {name: "s" for name in tracing.SELF_TIME_METRICS}
        units.update({name: "count" for name in tracing.WORK_COUNTS + tracing.EVENT_COUNTS})
        units.update({"solver.nodes_per_s": "1/s", "trace.overhead_share": "share"})
        result_metrics = {name: metric(value, units[name]) for name, value in layers.items()}
        correct = failed == 0 and sums_ok
    else:
        timed = loop.run(seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, errors = loop.check()
        setup = measure_setup(args)
        times = loop.all_times()
        # the tail of each window, median over windows: a few preempted
        # runs then move one window's tail, not the run's
        windows = loop.tail_windows()
        tails = [tail(window) for window in windows]
        tail_value = statistics.median(t[0] for t in tails)
        _, tail_pct, beyond = tails[0]
        t_q = quartiles(times)
        r_q = quartiles(loop.cycle_rates)
        s_q = quartiles(setup)
        print(head)
        print(f"  setup_s     {s_q[1]:.4f} s    quartiles {s_q[0]:.4f} {s_q[2]:.4f} over {len(setup)} set-ups")
        print(f"  ops_per_s   {attempted / timed:.4f} 1/s  {attempted} operations in {timed:.3f} s; per cycle "
              f"median {r_q[1]:.4f}, quartiles {r_q[0]:.4f} {r_q[2]:.4f} over {len(loop.cycle_rates)} cycles")
        print(f"  op_p50_ms   {t_q[1] * 1e3:.4f} ms   quartiles {t_q[0] * 1e3:.4f} {t_q[2] * 1e3:.4f}")
        print(f"  op_tail_ms  {tail_value * 1e3:.4f} ms   median over {len(windows)} windows of each window's "
              f"p{tail_pct:.2f} ({len(windows[0])} operations in the first, {beyond} beyond it)")
        print(f"  fail_share  {failed / attempted:.4g}       {failed} of {attempted} operations")
        print(f"  peak_rss_mb {peak_rss_mb:.2f} MB")
        result_metrics = {
            "setup_s": metric(s_q[1], "s"),
            "ops_per_s": metric(attempted / timed, "1/s"),
            "op_p50_ms": metric(t_q[1] * 1e3, "ms"),
            "op_tail_ms": metric(tail_value * 1e3, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        correct = failed == 0
    for err in errors:
        print(f"  FAILED {err}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
