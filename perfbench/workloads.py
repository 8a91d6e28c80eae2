"""The benchmark's workloads: their inputs and the pass each one times.

Every ATPG call uses the quick preset's budget on the deterministic
WorkClock, so the work a pass does is a pure function of its inputs: a
faster build does the same search, and a change in any count below is
a science drift, not noise.  Everything runs in this process on one
thread.

Inputs and the seed.  Every seed runs the quick preset's own circuits
and fault samples, so every ATPG call's counters must equal its
committed ``harness-quick.json`` cell.  The seed orders the pass: seed
0 runs the operations in the order listed below, any other seed in a
permutation drawn from it (and builds the pairs in that order).  Each
operation starts from cold caches, so the order moves neither the work
nor the memory high-water mark; the checks hold every operation's
counts to the same values in every order.

Seeds that changed the work itself were measured and dropped: a fresh
fault sample per seed (the preset's ``fault_sample_seed``) moved an
``attest`` pass's simulated machine-steps 2.8-4.1 M over ten seeds and
a ``structural`` pass's wall 26-40 s over six, and regenerating the
machines moved pass wall 19-43 s over eight suites.  No bound the
benchmark may set covers those spreads.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cycles import count_dff_cycles
from repro.analysis.density import reachability_report
from repro.analysis.seqdepth import sequential_depth_report
from repro.circuit.netlist import Circuit
from repro.fault.analysis import analyze_faults, clear_analysis_cache
from repro.fsm.benchmarks import benchmark_fsm
from repro.harness.atpg_tables import run_engine_on_circuit
from repro.harness.config import HarnessConfig
from repro.harness.suite import (
    CircuitPair,
    build_pair,
    clear_caches,
    parse_circuit_name,
)
from repro.lint.gate import GLOBAL_LEDGER
from repro.obs import Observability
from repro.sim.compile import clear_program_cache

# The quick preset's Table 2/4 cells on one pair: HITEC and SEST on the
# same circuits, so the learning layer is the only difference between
# the two halves.  ``s820.jc.sr`` rather than ``dk16.ji.sd`` because a
# traced run times three passes, and the dk16+s820 pass (~43 s) would
# put that run within a few tens of seconds of its time limit.
STRUCTURAL = (("hitec", "s820.jc.sr"), ("sest", "s820.jc.sr"))

# Table 3's circuits minus ``s510.ji.sr``, which has no recorded
# Table 2/6 row to check against; four pairs keep an attest run (set-up,
# pass and checks) under a minute.
ATTEST_CIRCUITS = ("dk16.ji.sd", "pma.jo.sd", "s510.jc.sd", "s510.jo.sr")


def sides(pair: CircuitPair) -> Tuple[Tuple[str, Circuit], ...]:
    return (
        ("original", pair.original_circuit),
        ("retimed", pair.retimed_circuit),
    )


@dataclasses.dataclass
class Op:
    """One timed operation and its deterministic outputs.

    ``science`` holds every count the operation produced; two runs of
    one commit on one seed must give identical dicts.  ``result`` is
    the ATPG result (None for the pre-ATPG analyses); it and the
    circuits are dropped once the pass has been checked.
    """

    key: str
    circuit: Optional[Circuit]
    science: Dict[str, float]
    result: object = None
    pair: Optional[CircuitPair] = None
    error: Optional[str] = None
    span: Tuple[float, float] = (0.0, 0.0)  # perf_counter at start, end


def cold_start() -> None:
    """Drop every in-process cache a fresh ``repro run`` starts without."""
    clear_caches()
    benchmark_fsm.cache_clear()
    GLOBAL_LEDGER.clear()


def clear_pass_caches() -> None:
    """Drop the caches a pass fills (the built pairs stay)."""
    clear_analysis_cache()
    clear_program_cache()
    GLOBAL_LEDGER.clear()


def atpg_pass(
    calls: Sequence[Tuple[str, str, str]],
    pairs: Dict[str, CircuitPair],
    config: HarnessConfig,
    obs_factory: Callable[[], Optional[Observability]],
    guard: Callable[[Op, Callable[[], None]], None],
) -> List[Op]:
    """``run_engine_on_circuit`` for every ``(engine, circuit, side)``."""
    ops: List[Op] = []
    for engine, name, side in calls:
        pair = pairs[name]
        circuit = dict(sides(pair))[side]
        op = Op(f"{engine}:{name}:{side}", circuit, {}, pair=pair)

        def call(op=op, engine=engine, circuit=circuit) -> None:
            op.result = run_engine_on_circuit(
                circuit, engine, config, obs=obs_factory()
            )
            op.science = {
                **op.result.counters(),
                "fe_pct": op.result.fault_efficiency,
                "fc_pct": op.result.fault_coverage,
            }

        guard(op, call)
        ops.append(op)
    return ops


def characterize_pass(
    names: Sequence[str],
    config: HarnessConfig,
    obs_factory: Callable[[], Optional[Observability]],
    guard: Callable[[Op, Callable[[], None]], None],
) -> List[Op]:
    """Synthesis, retiming and every structural analysis, from cold."""
    ops: List[Op] = []
    for name in names:
        op = Op(f"characterize:{name}", None, {})

        def call(op=op, name=name) -> None:
            op.pair = build_pair(name, config.retime_target_ratio)
            for side, circuit in sides(op.pair):
                reach = reachability_report(circuit)
                depth = sequential_depth_report(circuit)
                cycles = count_dff_cycles(circuit)
                analysis = analyze_faults(circuit, obs=obs_factory())
                counts = {
                    "dffs": circuit.num_dffs(),
                    "gates": circuit.num_gates(),
                    "reach.valid_states": reach.num_valid_states,
                    "reach.iterations": reach.iterations,
                    "seqdepth.depth": depth.depth,
                    "seqdepth.expansions": depth.expansions,
                    "cycles.count": cycles.num_cycles,
                    "cycles.max_length": cycles.max_cycle_length,
                    **analysis.counters(),
                }
                op.science.update(
                    (f"{side}/{key}", value) for key, value in counts.items()
                )

        guard(op, call)
        ops.append(op)
    return ops


@dataclasses.dataclass(frozen=True)
class Workload:
    """How one workload sets up and what one pass runs.

    ``plan`` lists ``(engine, circuit)`` ATPG calls, each run on both
    sides of the pair; a workload without engines characterizes
    ``circuits`` instead.
    """

    circuits: Tuple[str, ...]
    plan: Tuple[Tuple[str, str], ...] = ()

    def order(self, seed: int) -> Tuple[Tuple[str, ...], List[Tuple[str, str, str]]]:
        """The seed's order: circuits to build, and ``(engine, circuit,
        side)`` calls (characterize: the circuits alone)."""
        circuits = list(self.circuits)
        calls = [
            (engine, name, side)
            for engine, name in self.plan
            for side in ("original", "retimed")
        ]
        if seed:
            shuffle = random.Random(seed).shuffle
            shuffle(circuits)
            shuffle(calls)
        return tuple(circuits), calls

    def setup(
        self, config: HarnessConfig, seed: int
    ) -> Optional[Dict[str, CircuitPair]]:
        """Build the pass's inputs from cold; returns the pairs to test."""
        cold_start()
        circuits, _ = self.order(seed)
        for name in circuits:
            benchmark_fsm(parse_circuit_name(name)[0])
        if not self.plan:
            return None
        return {
            name: build_pair(name, config.retime_target_ratio)
            for name in circuits
        }

    def reset(self) -> None:
        """Drop what an operation leaves cached, before each one: no
        operation reuses another's work, so the order moves neither the
        work nor the memory high-water mark."""
        clear_pass_caches()
        if not self.plan:
            # Synthesis and retiming are part of the operation, so pairs
            # built earlier must not be reused.
            clear_caches()

    def run_pass(self, inputs, config, seed, obs_factory, guard) -> List[Op]:
        """The pass in the seed's order; ``guard`` runs each operation
        and resets the caches after it."""
        self.reset()
        circuits, calls = self.order(seed)
        if self.plan:
            return atpg_pass(calls, inputs, config, obs_factory, guard)
        return characterize_pass(circuits, config, obs_factory, guard)


WORKLOADS: Dict[str, Workload] = {
    "structural": Workload(
        circuits=tuple(dict.fromkeys(name for _, name in STRUCTURAL)),
        plan=STRUCTURAL,
    ),
    "attest": Workload(
        circuits=ATTEST_CIRCUITS,
        plan=tuple(("simbased", name) for name in ATTEST_CIRCUITS),
    ),
    "characterize": Workload(circuits=ATTEST_CIRCUITS),
}
