"""Pursuit benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src/` directory
next to this one.  With --trace 0 the run times whole rounds of ops until
S seconds of op time have passed and reports the end-to-end metrics, times
scaled to a reference machine speed by a probe timed around every op; with
--trace 1 it runs every op both untraced and traced, checks that both
print the same output, and reports per-layer self times and counts.  The
last line of standard output is the result as one JSON object.  Results
and spans are also written to perfbench/out/.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 3
# allowed gap between an op's traced wall time and the sum of its self times
SELF_TIME_TOLERANCE_S = 1e-3
# the speed probe's typical time on the 2-core machine of the reference
# figures; end-to-end times are scaled to a machine where it takes this long
REFERENCE_PROBE_S = 0.0015

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _import_program():
    """Import `pursuit` from this checkout's src/, never from elsewhere."""
    if not (SRC / "pursuit" / "__init__.py").is_file():
        raise ImportError(f"no pursuit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pursuit

    if Path(pursuit.__file__).resolve().parent != SRC / "pursuit":
        raise ImportError(f"pursuit imported from {pursuit.__file__}, not {SRC}")
    import tracing
    import workloads

    return tracing, workloads


def _call(wl, op):
    """Run one op; returns (output, None) or (None, error text)."""
    try:
        return wl.run(op), None
    except Exception:
        return None, traceback.format_exc()


def _traced(wl, op, capture, tracer):
    """Run one op under the tracer; returns (seconds, output, error text)."""
    capture.records.clear()
    tracer.install()
    root = tracer.open(tracing.ROOT)
    start = time.perf_counter()
    try:
        out, err = _call(wl, op)
    finally:
        took = time.perf_counter() - start
        tracer.close(root)
        tracer.uninstall()
    return took, out, err


def _untraced(wl, op, capture, probe):
    """Run one op while sampling the speed; returns (seconds, scaled seconds, output, error)."""
    capture.records.clear()
    (out, err), took, scaled = probe.run(lambda: _call(wl, op))
    return took, scaled, out, err


def _problems(wl, op, out, capture) -> list[str]:
    try:
        return wl.check(op, out, capture)
    except Exception:
        return ["checker raised:\n" + traceback.format_exc()]


def _report(label: str, problems: list[str]) -> None:
    for p in problems[:10]:
        print(f"{label}: {p}", file=sys.stderr)


class _SpeedProbe:
    """Samples the machine's speed while the untraced ops run.

    The CPU speed of a small shared VM drifts by tens of percent, within
    an op as well as for minutes at a time.  While a block runs, a SIGALRM
    timer times a small fixed pure-Python and NumPy loop every INTERVAL_S,
    and the loop also runs once before and once after the block.  The
    block's net time (wall time minus the samples) times
    REFERENCE_PROBE_S over the mean sample is its scaled time.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self._data = np.random.default_rng(0).integers(0, 1 << 30, 20_000)
        self.samples: list[float] = []
        self._spent = 0.0

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(6_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        np.sort(self._data)
        took = time.perf_counter() - start
        self.samples.append(took)
        self._spent += took

    def run(self, fn):
        """Call fn(); returns (its result, net seconds, scaled seconds)."""
        first = len(self.samples)
        self._sample()
        spent = self._spent
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            net = time.perf_counter() - start - (self._spent - spent)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return result, net, self._scaled(net, first)

    def scale(self, seconds: float) -> float:
        """Scale a time measured just before this call."""
        first = len(self.samples)
        for _ in range(5):
            self._sample()
        return self._scaled(seconds, first)

    def _scaled(self, seconds: float, first: int) -> float:
        return seconds * REFERENCE_PROBE_S / statistics.fmean(self.samples[first:])


def _setup(wl, capture, probe: _SpeedProbe) -> list[float]:
    """Set up SETUP_REPS times: build the inputs, run the warm-up ops.

    Returns the scaled time of each repetition.
    """
    def once():
        wl.setup()
        for op in wl.warm_up_ops():
            capture.records.clear()
            _, err = _call(wl, op)
            if err:
                raise RuntimeError(f"warm-up op {op} failed:\n{err}")

    return [probe.run(once)[2] for _ in range(SETUP_REPS)]


@dataclass
class _Tally:
    """What the ops of one run did."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    per_op: list[dict[str, float]] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)
    check_s: float = 0.0


def _run_op(wl, op, capture, tracer, probe: _SpeedProbe, tally: _Tally, label: str) -> float:
    """Run, check and (with a tracer) trace one op; returns the seconds it took."""
    tally.attempted += 1
    # a traced op runs beside an untraced one, each first on every other op
    order = [False, True] if tracer else [False]
    if tally.attempted % 2 == 0:
        order.reverse()
    problems, took, out = [], {}, {}
    for traced in order:
        if traced:
            first = len(tracer.spans)
            took[True], out[True], err = _traced(wl, op, capture, tracer)
        else:
            took[False], scaled, out[False], err = _untraced(wl, op, capture, probe)
        if err:
            tally.failed += 1
            _report(label, [err])
            break
        if traced:
            totals = tracer.op_totals(first)
            self_sum = sum(v for k, v in totals.items() if k.endswith(".s"))
            if abs(self_sum - took[True]) > SELF_TIME_TOLERANCE_S:
                problems.append(f"self times sum to {self_sum:.6f} s, traced op took {took[True]:.6f} s")
            tally.per_op.append(totals)
        else:
            tally.latencies.append(took[False])
            tally.scaled.append(scaled)
            start = time.perf_counter()
            problems += _problems(wl, op, out[False], capture)
            tally.check_s += time.perf_counter() - start
    if tracer and len(out) == 2:
        if not workloads.same_output(out[False], out[True]):
            problems.append("traced op printed a different output")
        tally.overheads.append(took[True] - took[False])
    del out
    capture.records.clear()
    if problems:
        tally.correct = False
        _report(label, problems)
    return sum(took.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Set up, then run whole rounds of ops until `seconds` of op time have passed."""
    wl = workloads.WORKLOADS[name]()
    tally = _Tally()
    tracer = tracing.Tracer() if trace else None
    probe = _SpeedProbe()
    import_s = probe.scale(import_s)
    round_s: list[float] = []  # wall time of each round, traced copies included
    round_scaled: list[list[float]] = []  # scaled time of each round's untraced ops
    with tracing.Capture() as capture:
        reps = _setup(wl, capture, probe)
        while not round_s or sum(round_s) < seconds:
            spent, first = 0.0, len(tally.scaled)
            for op in wl.round_ops(seed, len(round_s)):
                label = f"{name} op {tally.attempted + 1} ({op.kind}, seed {op.seed})"
                spent += _run_op(wl, op, capture, tracer, probe, tally, label)
            round_s.append(spent)
            round_scaled.append(tally.scaled[first:])
            if len(round_s) == 1:
                # the heap creeps up over repeated rounds, so the peak is
                # taken over set-up and the first round alone
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if trace:
        metrics = {}
        for metric, unit in tracing.PER_LAYER:
            if metric == "trace.overhead_s":
                value = statistics.fmean(tally.overheads) if tally.overheads else 0.0
            else:
                value = statistics.fmean(t.get(metric, 0.0) for t in tally.per_op) if tally.per_op else 0.0
            metrics[metric] = {"value": value, "unit": unit}
    else:
        rounds = [r for r in round_scaled if r]  # a round whose every op failed has no time
        values = {
            # the median round keeps one rare slow game from swinging the rate
            "ops_per_s": statistics.median(len(r) / sum(r) for r in rounds) if rounds else 0.0,
            # each round weighs every op kind once, whatever the number of rounds
            "op_p50_s": statistics.median(statistics.median(r) for r in rounds) if rounds else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": import_s + statistics.median(reps),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    raw = {"ops_per_s": len(wl.round_ops(seed, 0)) / statistics.median(round_s)} if not trace else {}
    _write(name, seed, trace, result, dict(
        raw_wall=raw, latencies_s=tally.latencies, scaled_latencies_s=tally.scaled,
        round_s=round_s, scaled_round_s=round_scaled, scaled_setup_reps_s=reps,
        probe_s=probe.samples, check_s=tally.check_s), tracer)
    return result


def _write(name, seed, trace, result, extra, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    detail = dict(result, workload=name, seed=seed, **extra)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "counts"],
                       "spans": tracer.spans}, fh)


def _print_table(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']} ops, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    import_s = time.perf_counter() - _START
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), import_s)
        _print_table(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


try:
    tracing, workloads = _import_program()
except ImportError as exc:
    if __name__ == "__main__":
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise

if __name__ == "__main__":
    raise SystemExit(main())
