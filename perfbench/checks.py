"""Correctness checks, run outside the timed region.

Each returns a list of failure messages for one operation; an empty
list means the operation's outputs are right.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.fault.simulator import FaultSimulator

from workloads import Op

BASELINE = Path("benchmarks") / "baselines" / "harness-quick.json"

# EXPERIMENTS.md Tables 2 and 6: (#DFF original, #DFF retimed,
# valid states original, valid states retimed).
RECORDED_PAIRS = {
    "dk16.ji.sd": (5, 17, 27, 168),
    "pma.jo.sd": (5, 18, 24, 158),
    "s510.jc.sd": (6, 16, 47, 408),
    "s510.jo.sr": (6, 21, 47, 192),
    "s820.jc.sr": (5, 16, 25, 92),
}

# The harness names simulation-based cells after the paper's tool.
_CELL_ENGINE = {"simbased": "attest"}


def load_baseline(root: Path) -> Dict[str, Dict[str, float]]:
    """The committed quick-preset cells, by key (``hitec:s820.jc.sr``)."""
    with open(root / BASELINE) as handle:
        records = json.load(handle)["records"]
    return {record["key"]: record["counters"] for record in records}


def reference_detections(op: Op) -> List[str]:
    """Every detection the run claims must hold on the interpreted
    reference simulator, fault-simulating the emitted test set."""
    claimed = [
        fault
        for fault, status in op.result.statuses.items()
        if status.state == "detected"
    ]
    if not claimed:
        return []
    simulator = FaultSimulator(op.circuit, faults=claimed, backend="interpreted")
    report = simulator.run(op.result.test_set.sequences)
    missed = [fault for fault in claimed if fault not in report.detected]
    if missed:
        return [
            f"{op.key}: {len(missed)} claimed detections do not hold on "
            f"the reference simulator (first: {missed[0]})"
        ]
    return []


def baseline_counters(
    op: Op, baseline: Dict[str, Dict[str, float]]
) -> List[str]:
    """A quick-preset ATPG call's counters equal its committed cell."""
    engine, name, side = op.key.split(":")
    cell = baseline.get(f"{_CELL_ENGINE.get(engine, engine)}:{name}")
    if cell is None:
        return []
    prefix = f"{side}/"
    diffs = [
        f"{key[len(prefix):]} {op.science.get(key[len(prefix):])} != {value}"
        for key, value in sorted(cell.items())
        if key.startswith(prefix) and op.science.get(key[len(prefix):]) != value
    ]
    if diffs:
        return [f"{op.key}: counters drift from the baseline: {diffs[:5]}"]
    return []


def recorded_pair(op: Op, valid_states: bool) -> List[str]:
    """A pair's registers (and valid states) match the recorded tables."""
    expected = RECORDED_PAIRS.get(op.pair.name)
    if expected is None:
        return []
    found = (
        op.pair.original_circuit.num_dffs(),
        op.pair.retimed_circuit.num_dffs(),
    )
    if valid_states:
        found += (
            op.science["original/reach.valid_states"],
            op.science["retimed/reach.valid_states"],
        )
    if found != expected[: len(found)]:
        return [f"{op.pair.name}: {found} != recorded {expected[:len(found)]}"]
    return []


def retiming_invariants(op: Op) -> List[str]:
    """Theorems 2 and 4: retiming keeps the maximum sequential depth and
    the maximum cycle length."""
    failures = []
    for key in ("seqdepth.depth", "cycles.max_length"):
        before = op.science[f"original/{key}"]
        after = op.science[f"retimed/{key}"]
        if before != after:
            failures.append(f"{op.key}: {key} {before} -> {after}")
    return failures


def check_op(op: Op, baseline: Dict[str, Dict[str, float]]) -> List[str]:
    """All checks that apply to ``op``."""
    if op.error is not None:
        return [op.error]
    if op.result is None:
        return retiming_invariants(op) + recorded_pair(op, valid_states=True)
    failures = reference_detections(op) + baseline_counters(op, baseline)
    if op.key.endswith(":original"):
        failures += recorded_pair(op, valid_states=False)
    return failures
