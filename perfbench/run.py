"""The repository benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload structural --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  It times whole passes of the
workload (see ``workloads.py``): the first always, and another while it
is expected to end within ``--seconds``.  Times are read on the
calibrated clock (``clock.py``): host seconds rescaled to a reference
CPU speed, measured while the work runs, so a shared host's contention
does not show as a change in the program.  It checks the outputs
outside the timed region and prints a summary followed by one JSON line:

* ``--trace 0``: the end-to-end metrics (``setup_s``, ``pass_s``,
  ``peak_rss_mb``), measured with nothing wrapped;
* ``--trace 1``: the per-layer metrics.  The run times an untraced
  pass, a pass with every layer wrapped (``layers.py``) and a pass with
  the program's own span recording on (``Observability.recording()``),
  reports each layer's calls and self time from the wrapped pass, both
  overheads against the untraced pass, and writes the spans to
  ``.bench_build/perfbench/``.

An operation (one ATPG call, or one pair's characterization) fails when
it raises, when a check in ``checks.py`` rejects its outputs, or when a
deterministic count differs between passes or from an earlier run of
the same seed in this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import clock  # standard library only
import layers  # standard library only; wraps the program lazily

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
# What ``main`` imports before its first set-up, timed on the calibrated
# clock in fresh interpreters (a process imports only once): two before
# the timed passes and two after.
IMPORT_PROBES = 2
IMPORT_PROBE = (
    "import clock; timer = clock.Clock().start(); "
    "import run, checks, workloads, repro.obs; "
    "print(timer.stop().seconds)"
)

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))
# A run must end within 180 s.  After this many seconds the traced run's
# third pass starts no operation but its first, so a host running at a
# third of its quiet speed still finishes; the pass's overhead compares
# the operations it ran with the same operations of the untraced pass.
RECORDED_DEADLINE_S = 120.0
STARTED = time.monotonic()


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and the failure messages of each.

    ``after`` runs once an operation ends, with the pass's clock paused;
    after ``deadline`` (``time.monotonic``) a pass starts no operation
    but its first.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, List[str]] = {}
        self.after = lambda op: None
        self.deadline = float("inf")
        self.ran = 0  # operations run in the current pass

    def guard(self, op, call) -> None:
        if self.ran and time.monotonic() > self.deadline:
            return
        self.ran += 1
        self.attempted += 1
        started = time.perf_counter()
        try:
            call()
        except Exception:  # one broken operation must not end the run
            op.error = f"{op.key}: raised\n{traceback.format_exc()}"
        op.span = (started, time.perf_counter())
        self.after(op)

    def fail(self, key: str, messages: List[str]) -> None:
        if messages:
            self.failures.setdefault(key, []).extend(messages)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import checks
        import workloads
        from repro.harness.config import HarnessConfig
        from repro.obs import Observability
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; expected one of "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workload = workloads.WORKLOADS[args.workload]
    config = HarnessConfig.quick()
    tally = Tally()

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        with clock.Clock() as timer:
            inputs = workload.setup(config, args.seed)
        setup_times.append(timer.seconds)
    import_times = []
    if not args.trace:
        import_times += [probe_import_seconds() for _ in range(IMPORT_PROBES)]

    baseline = checks.load_baseline(ROOT)
    # Each operation of the first pass, checked; later passes must
    # repeat its counts exactly.
    first: Dict[str, object] = {}
    mismatches = 0

    def settle(timer: clock.Clock, spans: Dict, op) -> None:
        """Check an operation with the clock paused, then drop its
        results and caches, so the next one starts from the same memory
        whatever the order."""
        nonlocal mismatches
        spans[op.key] = op.span
        with timer.paused():
            if op.key not in first:
                first[op.key] = op
                tally.fail(op.key, checks.check_op(op, baseline))
            elif op.error is not None:
                tally.fail(op.key, [op.error])
            elif op.science != first[op.key].science:
                mismatches += 1
                tally.fail(op.key, [f"{op.key}: counts differ between passes"])
            op.result = op.circuit = op.pair = None
            workload.reset()
            gc.collect()

    def timed_pass(obs_factory, recorder=None):
        """The pass's clock, and each operation's perf_counter span."""
        traced = recorder is not None
        with recorder.installed() if traced else contextlib.nullcontext():
            # Every operation starts right after a full collection (the
            # later ones in ``settle``), so how much cyclic garbage an
            # operation accumulates, and its memory high-water mark, do
            # not depend on what ran before it.
            gc.collect()
            with clock.Clock() as timer:
                spans: Dict[str, tuple] = {}
                tally.after = functools.partial(settle, timer, spans)
                tally.ran = 0
                with recorder.span(layers.ROOT) if traced else contextlib.nullcontext():
                    workload.run_pass(
                        inputs, config, args.seed, obs_factory, tally.guard
                    )
        return timer, spans

    untraced = lambda: None  # noqa: E731  (obs=None, the engines' default)
    if args.trace:
        plain, plain_spans = timed_pass(untraced)
        recorder = layers.SpanRecorder()
        traced, _ = timed_pass(untraced, recorder)
        tally.deadline = STARTED + RECORDED_DEADLINE_S
        recorded = timed_pass(Observability.recording)
    else:
        # Whole passes only: another starts while it is expected to end
        # within --seconds; the first always runs.
        timers: List[clock.Clock] = []
        walls: List[float] = []
        while not walls or sum(walls) + statistics.median(walls) <= args.seconds:
            timers.append(timed_pass(untraced)[0])
            walls.append(timers[-1].wall)
        import_times += [probe_import_seconds() for _ in range(IMPORT_PROBES)]
    ops = list(first.values())
    mismatches += stored_mismatches(args.workload, args.seed, ops, tally)

    if args.trace:
        metrics = per_layer_metrics(
            inputs, ops, recorder, plain, traced, mismatches
        )
        metrics["obs.recording_overhead_pct"] = overhead_pct(
            (plain, plain_spans), recorded
        )
        recorder.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        passes = [timer.seconds for timer in timers]
        metrics = {
            "setup_s": statistics.median(import_times)
            + statistics.median(setup_times),
            "pass_s": statistics.median(passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        print(f"pass_s per pass: {passes} wall: {walls} (n={len(walls)})")
        print(f"setup_s imports: {import_times} set-ups: {setup_times}")

    for key, messages in sorted(tally.failures.items()):
        for message in messages:
            print(f"FAILED {message}", file=sys.stderr)
    units = dict(END_TO_END if not args.trace else PER_LAYER)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def stored_mismatches(workload: str, seed: int, ops, tally: Tally) -> int:
    """Counts must also repeat across runs: the first run of a seed in
    this checkout stores them, later runs compare against them."""
    if any(op.error is not None for op in ops):
        return 0
    current = json.loads(json.dumps({op.key: op.science for op in ops}))
    path = OUT / f"science-{workload}-{seed}.json"
    if not path.exists():
        OUT.mkdir(parents=True, exist_ok=True)
        scratch = path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(current, sort_keys=True))
        os.replace(scratch, path)
        return 0
    stored = json.loads(path.read_text())
    differing = [key for key in current if current[key] != stored.get(key)]
    for key in differing:
        tally.fail(key, [f"{key}: counts differ from an earlier run ({path})"])
    return len(differing)


def probe_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    return float(done.stdout)


def overhead_pct(base, other) -> float:
    """Calibrated time of ``other``'s operations against the same
    operations of ``base``; each is ``(clock, spans by operation)``."""

    def seconds(timer, spans, keys) -> float:
        return sum(
            timer.calibrated(spans[key][1]) - timer.calibrated(spans[key][0])
            for key in keys
        )

    keys = list(other[1])
    before = seconds(*base, keys)
    return 100.0 * (seconds(*other, keys) - before) / before


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# (name, unit) of every per-layer metric, in output order.
PER_LAYER = tuple(
    (f"{layer}.{field}", unit)
    for layer in layers.LAYERS
    for field, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("atpg.implicate.node_evals", "count"),
    ("search.invalid_fraction", "ratio"),
    ("atpg.learning.hit_rate", "ratio"),
    ("atpg.backtracks", "count"),
    ("atpg.frames_expanded", "count"),
    ("atpg.detect_ratio", "ratio"),
    ("atpg.fe_pct", "%"),
    ("atpg.fc_pct", "%"),
    ("atpg.retimed_faults_per_s", "1/s"),
    ("sim.events", "count"),
    ("sim.expansion_events", "count"),
    ("sim.fault.us_per_event", "us"),
    ("collapse.representatives", "count"),
    ("reach.valid_states", "count"),
    ("reach.iterations", "count"),
    ("cycles.count", "count"),
    ("synth.gates", "count"),
    ("retime.added_dffs", "count"),
    ("bench.untraced_pass_s", "s"),
    ("bench.traced_pass_s", "s"),
    ("bench.speed_factor", "ratio"),
    ("bench.layer_coverage_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("obs.recording_overhead_pct", "%"),
    ("bench.repeat_mismatches", "count"),
)


def per_layer_metrics(
    inputs, ops, recorder, plain, traced, mismatches
) -> Dict[str, float]:
    """``inputs`` are the ATPG workloads' pairs (None on characterize,
    whose pairs are built, and sized, inside the pass); ``plain`` and
    ``traced`` are the two passes' clocks, and ``ops`` are the plain
    pass's operations.  ``obs.recording_overhead_pct`` comes from
    ``overhead_pct``."""
    pairs = list(inputs.values()) if inputs else []
    table = recorder.layer_table(traced.calibrated)
    wall, traced_wall = plain.seconds, traced.seconds
    metrics: Dict[str, float] = {}
    for layer in layers.LAYERS:
        calls, self_s = table.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    unattributed = table[layers.ROOT][1]

    def total(key: str) -> float:
        return sum(
            value
            for op in ops
            for name, value in op.science.items()
            if name == key or name.endswith("/" + key)
        )

    atpg_ops = [op for op in ops if "atpg.faults_total" in op.science]
    universe = sum(op.science["cover.faults_total"] for op in atpg_ops)

    def weighted(key: str) -> float:
        """A percentage over the full fault universe of every call."""
        if not universe:
            return 0.0
        return sum(
            op.science[key] * op.science["cover.faults_total"]
            for op in atpg_ops
        ) / universe

    retimed = [op for op in atpg_ops if op.key.endswith(":retimed")]
    retimed_s = sum(
        plain.calibrated(op.span[1]) - plain.calibrated(op.span[0])
        for op in retimed
    )
    valid = total("search.valid_events")
    invalid = total("search.invalid_events")
    targeted = total("atpg.faults_total")
    events = total("sim.events") + total("sim.expansion_events")
    lookups = recorder.counts["atpg.learning.lookups"]
    metrics.update(
        {
            "atpg.implicate.node_evals": recorder.counts[
                "atpg.implicate.node_evals"
            ],
            "search.invalid_fraction": (
                invalid / (valid + invalid) if valid + invalid else 0.0
            ),
            "atpg.learning.hit_rate": (
                recorder.counts["atpg.learning.hits"] / lookups
                if lookups
                else 0.0
            ),
            "atpg.backtracks": total("atpg.backtracks"),
            "atpg.frames_expanded": total("atpg.frames_expanded"),
            "atpg.detect_ratio": (
                total("atpg.faults_detected") / targeted if targeted else 0.0
            ),
            "atpg.fe_pct": weighted("fe_pct"),
            "atpg.fc_pct": weighted("fc_pct"),
            "atpg.retimed_faults_per_s": (
                sum(op.science["atpg.faults_total"] for op in retimed)
                / retimed_s
                if retimed
                else 0.0
            ),
            "sim.events": total("sim.events"),
            "sim.expansion_events": total("sim.expansion_events"),
            "sim.fault.us_per_event": (
                metrics["sim.fault.self_s"] * 1e6 / events if events else 0.0
            ),
            "collapse.representatives": total("collapse.representatives"),
            "reach.valid_states": total("reach.valid_states"),
            "reach.iterations": recorder.counts["reach.iterations"],
            "cycles.count": total("cycles.count"),
            "synth.gates": sum(
                pair.original_circuit.num_gates() for pair in pairs
            )
            if pairs
            else total("original/gates"),
            "retime.added_dffs": sum(
                pair.retimed_circuit.num_dffs()
                - pair.original_circuit.num_dffs()
                for pair in pairs
            )
            if pairs
            else total("retimed/dffs") - total("original/dffs"),
            "bench.untraced_pass_s": wall,
            "bench.traced_pass_s": traced_wall,
            "bench.speed_factor": wall / plain.wall,
            "bench.layer_coverage_pct": (
                100.0 * (traced_wall - unattributed) / traced_wall
            ),
            "bench.trace_overhead_pct": 100.0 * (traced_wall - wall) / wall,
            "bench.repeat_mismatches": mismatches,
        }
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
