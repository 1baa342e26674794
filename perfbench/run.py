"""Benchmark of the iufst library: one entry point, four seeded workloads.

    python3 perfbench/run.py [--workload simulate|decide|verify|build|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ``src/``.
Load is a closed loop with one client in one thread: the next operation
starts when the previous one returns.  Every answer is checked against an
independent reference (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics: after a short warm-up, the
round of operations is repeated for about ``--seconds``, and at least
three times (whole rounds only, so every run sees the same mix); its times
are scaled to a reference host speed measured alongside.  ``--trace 1``
runs one round bare, the same round with the per-layer tracer installed and
the round bare again; it reports the layer metrics and writes the traced
round's spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any answer is wrong, 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OK, RAISED, UNKNOWN, WRONG  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 11
WARMUP_S = 3.0
MIN_ROUNDS = 3
# The host runs the same code up to 1.8x slower, in phases of a second to
# minutes, and a pure Python loop slows as much as the library does.  So the
# timed run also times a fixed calibration kernel, about every
# CALIBRATE_EVERY_S between ops, and scales its times to a host on which
# that kernel takes CALIBRATION_REF_S.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_REF_S = 0.006
# Tail latency: the highest of these percentiles with at least ten samples
# beyond it in MIN_ROUNDS rounds.  It is fixed per workload, so a faster
# commit, which fits more rounds into the run, reports the same percentile.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "answered_ratio": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_kernel():
    """Fixed work that never touches the library, about 6 ms: a subset
    construction over a 37-state nondeterministic automaton (344 subsets;
    frozensets, dicts and tuples, as in convert and build_transducer), then
    a text round-trip of its transitions (as in textio)."""
    n = 37
    delta = {(q, a): frozenset(((3 * q + a) % n, (5 * q + 2 * a + 1) % n))
             for q in range(n) for a in (0, 1)}
    start = frozenset((0,))
    seen = {start: 0}
    todo = [start]
    edges = []
    while todo:
        subset = todo.pop()
        for a in (0, 1):
            succ = frozenset(x for q in subset for x in delta[q, a])
            if succ not in seen:
                seen[succ] = len(seen)
                todo.append(succ)
            edges.append((seen[subset], a, seen[succ]))
    text = "\n".join(f"{p} {a} {q}" for p, a, q in edges)
    return len([tuple(map(int, line.split())) for line in text.splitlines()])


class Host:
    """Times the calibration kernel through a run, to scale the run's times
    to the reference host speed."""

    def __init__(self):
        self.times: list[float] = []
        self.last = time.perf_counter()

    def calibrate(self):
        gc.collect()
        t0 = time.perf_counter()
        calibration_kernel()
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def between_ops(self):
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def factor(self):
        """Reference speed / this run's speed: multiply a wall time by it.

        The mean leaves out the fastest and the slowest tenth of the
        kernel's times, so one preempted kernel does not move it.
        """
        times = sorted(self.times)
        cut = len(times) // 10
        return CALIBRATION_REF_S / statistics.mean(times[cut:len(times) - cut])


def percentile(sorted_xs, p):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest ladder percentile with at least ten of ``n`` samples beyond it."""
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 100.0)


class Pass:
    """Outcomes of ops run in a closed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outcomes: list[tuple[str, bool]] = []  # (outcome, documented)
        self.errors: dict[str, str] = {}
        self.round_walls: list[float] = []

    def count(self, outcome, documented=None):
        return sum(1 for o, d in self.outcomes if o == outcome and documented in (None, d))

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def wrong(self):
        return self.count(WRONG)

    @property
    def unanswered(self):
        return self.count(UNKNOWN) + self.count(RAISED)

    @property
    def unexpected(self):
        """Wrong answers, plus unknown or raised ops that are not documented seed failures."""
        return self.wrong + self.count(UNKNOWN, False) + self.count(RAISED, False)


def attempt(lib, op, scratch, result, tracer=None, host=None):
    """Run one op, check its answer, and record both in ``result``.

    Returns the time spent outside the op: checking the answer is the
    benchmark's own work, so it runs with the tracer paused and is left
    out of the wall time, like the garbage collection after each op and
    the host calibration.
    """
    def call():
        return op.call(scratch)

    t0 = time.perf_counter()
    try:
        value = tracer.op(call) if tracer else call()
        outcome = None
    except lib.budget_errors:
        outcome = UNKNOWN
    except Exception as exc:  # an op that raises is counted, not fatal
        outcome = RAISED
        result.errors.setdefault(op.label, f"{type(exc).__name__}: {exc}")
    result.latencies.append(time.perf_counter() - t0)
    c0 = time.perf_counter()
    if tracer:
        tracer.on = False
    if outcome is None:
        try:
            outcome = op.check(value)
        except Exception as exc:  # a check that cannot run proves nothing
            outcome = WRONG
            result.errors.setdefault(op.label, f"check failed: {type(exc).__name__}: {exc}")
        if outcome == WRONG:
            result.errors.setdefault(op.label, "wrong answer")
    if tracer:
        tracer.on = True
    result.outcomes.append((outcome, op.documented))
    # start every op on a collected heap, so a collection an earlier op's
    # garbage would trigger is not charged to a later, smaller op
    gc.collect()
    if host is not None:
        host.between_ops()
    return time.perf_counter() - c0


def run_ops(lib, ops, seconds=None, tracer=None, between=None, host=None):
    """Repeat the round of ops for about ``seconds``, at least MIN_ROUNDS
    times (once if ``seconds`` is None), calling ``between()`` after each
    round.

    Records each round's wall time, which leaves out the checks and the
    work ``between()`` does.
    """
    result = Pass()
    gc.collect()
    start = time.perf_counter()
    while True:
        scratch: dict = {}
        outside = 0.0
        round_start = time.perf_counter()
        for op in ops:
            outside += attempt(lib, op, scratch, result, tracer, host)
        result.round_walls.append(time.perf_counter() - round_start - outside)
        if seconds is None:
            break
        if between is not None:
            between()
            gc.collect()
        # at least MIN_ROUNDS, then stop at the round boundary closest to the deadline
        elapsed = time.perf_counter() - start
        if (len(result.round_walls) >= MIN_ROUNDS
                and elapsed + (time.perf_counter() - round_start) / 2 >= seconds):
            break
    return result


def warm_up(lib, ops, seconds):
    """Run ops from the start of a round until ``seconds`` have passed.

    The first seconds of a new process run slower (about 1.4x in a tight
    loop on a 2-vCPU virtual machine); these ops are checked but not timed.
    """
    result = Pass()
    scratch: dict = {}
    start = time.perf_counter()
    for op in ops:
        attempt(lib, op, scratch, result)
        if time.perf_counter() - start >= seconds:
            break
    return result


def timed_run(name, seed, seconds):
    setup_times = []
    host = Host()

    def set_up():
        gc.collect()
        t0 = time.perf_counter()
        made = workloads.setup(name, seed)
        setup_times.append(time.perf_counter() - t0)
        return made

    def set_up_aside():
        # a set-up between rounds imports the library afresh; put the ops'
        # own modules back, so an import inside a library call finds them
        ours = workloads.library_modules()
        set_up()
        workloads.library_modules(replace=ours)
        host.calibrate()

    # The set-ups are spread over the run (two after each round, the rest
    # at the end), so that their median is not taken from one second of a
    # host whose speed drifts; the ops keep the library of the first one.
    lib, ops = set_up()
    tracing.assert_untraced()
    warm = warm_up(lib, ops, WARMUP_S)
    host.calibrate()
    res = run_ops(lib, ops, seconds, between=lambda: (set_up_aside(), set_up_aside()),
                  host=host)
    while len(setup_times) < SETUP_REPEATS:
        set_up()
        host.calibrate()
    tracing.assert_untraced()
    f = host.factor()
    # The typical round: each distinct op's median latency over all its
    # samples.  Its percentiles fall on one op, where percentiles of all
    # samples would jump across the gap between two ops of different cost
    # whenever noise reorders a few samples.
    n = len(ops)
    samples: dict[str, list[float]] = {}
    for i, op in enumerate(ops):
        samples.setdefault(op.label, []).extend(res.latencies[i::n])
    typical = sorted(statistics.median(xs) for xs in samples.values())
    p = tail_percentile(MIN_ROUNDS * n)
    wall = {
        # all rounds, not the median one: a total weighs each host phase by its length
        "ops_per_s": res.attempted / sum(res.round_walls),
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_tail_ms": percentile(typical, p) * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    metrics = {
        "ops_per_s": wall["ops_per_s"] / f,
        "latency_p50_ms": wall["latency_p50_ms"] * f,
        "latency_tail_ms": wall["latency_tail_ms"] * f,
        "answered_ratio": 1 - res.unanswered / res.attempted - res.wrong / res.attempted,
        "setup_s": wall["setup_s"] * f,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {key: f"wall {value:.6g}" for key, value in wall.items()}
    notes["latency_tail_ms"] += f", p{p:g} of the typical round of {len(typical)}"
    notes["answered_ratio"] = f"failed_ratio {1 - metrics['answered_ratio']:.4f}"
    notes["setup_s"] += f", median of {len(setup_times)}"
    print(f"workload {name}, seed {seed}: {res.attempted} ops in {len(res.round_walls)} rounds "
          f"of {n}, {sum(res.round_walls):.2f} s timed, closed loop with 1 client; "
          f"host factor {f:.4f} from {len(host.times)} calibrations")
    for key, unit in END_TO_END.items():
        print(f"  {key:<16} {metrics[key]:>14.6g} {unit:<8} {notes.get(key, '')}")
    return res, warm, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced_run(name, seed):
    lib, ops = workloads.setup(name, seed)
    tracing.assert_untraced()
    # bare, traced, bare: the overhead compares against the mean of the
    # bare rounds, so a cold first round does not pass as tracing cost
    before = run_ops(lib, ops)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        traced = run_ops(lib, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    after = run_ops(lib, ops)
    bare = (before.round_walls[0] + after.round_walls[0]) / 2
    values = tracer.metrics(traced.round_walls[0] / bare - 1)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{name}.tsv"
    tracer.write(spans)
    print(f"workload {name}, seed {seed}: one round of {len(ops)} ops bare, traced, bare; "
          f"{len(tracer.start)} spans in {spans.relative_to(ROOT)}")
    for key, unit in tracing.LAYER_METRICS.items():
        print(f"  {key:<36} {values[key]:>14.6g} {unit}")
    idle = tracer.not_called()
    if idle:
        print("  not called: " + ", ".join(idle))
    if tracer.missing:
        print("  not found in the library: " + ", ".join(tracer.missing))
    # an op whose oracle skipped words it was asked to compare gave a wrong "ok"
    for i, msg in tracer.mismatches:
        traced.outcomes[i] = (WRONG, ops[i].documented)
        traced.errors.setdefault(ops[i].label, msg)
    merged = Pass()
    for p in (before, traced, after):
        merged.outcomes += p.outcomes
        merged.errors.update(p.errors)
    return merged, Pass(), {k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
                            for k, v in values.items()}


def report(res, warm, metrics):
    """Print failures, then the result line; return the exit code.

    ``attempted`` and ``failed`` count the measured ops; a wrong answer in
    the warm-up counts against ``correct`` as well.
    """
    print(f"  outcomes: {res.count(OK)} ok, {res.count(UNKNOWN)} unknown "
          f"({res.count(UNKNOWN, True)} documented), {res.count(RAISED)} raised "
          f"({res.count(RAISED, True)} documented), {res.wrong} wrong")
    for label, err in sorted({**warm.errors, **res.errors}.items()):
        print(f"  {label}: {err}")
    correct = res.wrong + warm.wrong == 0
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.unexpected, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so peak memory and set-up stay its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return max(code, 1)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import iufst
    except ImportError as exc:
        print(f"cannot import iufst from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(iufst.__file__).resolve().is_relative_to(src):
        print(f"iufst was imported from {iufst.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.trace:
        return report(*traced_run(args.workload, args.seed))
    return report(*timed_run(args.workload, args.seed, args.seconds))


if __name__ == "__main__":
    sys.exit(main())
