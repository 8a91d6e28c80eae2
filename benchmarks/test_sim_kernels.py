"""Microbenchmarks: interpreted vs compiled word-op simulation kernels.

Unlike the bench_* table regenerations these are true microbenchmarks —
the same fault-simulation workload is timed on both simulation backends
for a few Table-2 circuits, so the kernel speedup is visible in
isolation from engine search.  A second case times five-valued
implication (the PODEM engines' inner loop) on the scalar reference
and on the compiled, frame-cached :meth:`UnrolledModel.simulate`.
Results persist into ``benchmarks/baselines/pytest-bench.json``
(advisory, never gates).
"""

import pytest

from repro._util import make_rng
from repro.atpg import UnrolledModel, Variable
from repro.fault import FaultSimulator
from repro.fault.collapse import collapse_faults
from repro.harness.suite import synthesize_named

from tests.helpers import reference_frames

# A small spread of Table-2 circuits: the smallest, a mid-size FSM and
# one of the larger s-series synthesis results.
CIRCUITS = ("dk16.ji.sd", "s510.jc.sr", "s820.jc.sr")
BACKENDS = ("interpreted", "compiled")


def _workload(circuit, seed=29, num_sequences=8, length=24):
    rng = make_rng(seed)
    return [
        [
            [rng.randrange(2) for _ in circuit.inputs]
            for _ in range(length)
        ]
        for _ in range(num_sequences)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", CIRCUITS)
def test_fault_sim_kernels(benchmark, name, backend):
    circuit = synthesize_named(name).circuit
    sequences = _workload(circuit)
    simulator = FaultSimulator(circuit, backend=backend)
    simulator.run(sequences)  # warm the program/kernel caches

    report = benchmark.pedantic(
        simulator.run, args=(sequences,), rounds=3, iterations=1
    )
    # Backends must agree on the science; the oracle test pins this
    # exhaustively, the bench just refuses to time a wrong kernel.
    reference = FaultSimulator(circuit, backend="interpreted").run(
        sequences
    )
    assert report.detected == reference.detected
    assert report.undetected == reference.undetected


def _decision_walk(model, seed=41, steps=120):
    """A PODEM-shaped mutation sequence: assign a random free variable,
    now and then flip or drop the latest one."""
    rng = make_rng(seed)
    walk, stack = [], []
    for _ in range(steps):
        if stack and rng.random() < 0.3:
            variable = stack.pop()
            walk.append((variable, None))
            continue
        if model.num_dffs and rng.random() < 0.3:
            variable = Variable("state", 0, rng.randrange(model.num_dffs))
        else:
            variable = Variable(
                "pi", rng.randrange(model.num_frames), rng.randrange(model.num_pis)
            )
        stack.append(variable)
        walk.append((variable, rng.randrange(2)))
    return walk


@pytest.mark.parametrize("implementation", ("scalar", "compiled"))
@pytest.mark.parametrize("name", CIRCUITS)
def test_five_valued_implication(benchmark, name, implementation):
    circuit = synthesize_named(name).circuit
    fault = collapse_faults(circuit).representatives[0]
    model = UnrolledModel(circuit, fault, max_frames=3)
    model.set_frames(3)
    walk = _decision_walk(model)
    evaluate = reference_frames if implementation == "scalar" else (
        UnrolledModel.simulate
    )

    def run():
        model.reset_assignments()
        last = None
        for variable, value in walk:
            if value is None:
                model.unassign(variable)
            else:
                model.assign(variable, value)
            last = evaluate(model)
        return last

    last = benchmark.pedantic(run, rounds=3, iterations=1)
    # Refuse to time a wrong kernel: the end state must match the
    # scalar reference frame by frame.
    assert [list(values) for values in last] == reference_frames(model)
