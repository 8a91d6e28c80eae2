"""Differential oracle: compiled, incremental five-valued implication vs
the scalar reference.

:meth:`UnrolledModel.simulate` evaluates each frame through the
circuit's rail-code kernel and reuses the frames a mutation did not
touch.  Both moves must be invisible: after any sequence of assign,
unassign, flip, window and reset operations, every frame must equal
the from-scratch scalar evaluation (``tests.helpers.reference_frames``,
gate by gate through ``eval_gate5``).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import UnrolledModel, Variable
from repro.circuit import (
    D,
    DBAR,
    ONE,
    X,
    ZERO,
    CircuitBuilder,
    GateType,
    eval_gate5,
    five_join,
    five_split,
)
from repro.circuit.netlist import NodeKind
from repro.fault import Fault
from repro.sim.compile import (
    RAIL_D,
    RAIL_DBAR,
    RAIL_DECODE,
    RAIL_ONE,
    RAIL_X,
    RAIL_ZERO,
    compiled_program_cached,
)

from tests.helpers import random_circuit, reference_frames

FIVE = (ZERO, ONE, X, D, DBAR)
RAIL_OF = {
    RAIL_DECODE[code]: code
    for code in (RAIL_X, RAIL_ZERO, RAIL_ONE, RAIL_D, RAIL_DBAR)
}


def _assert_matches_reference(model):
    frames = model.simulate()
    assert all(isinstance(values, bytes) for values in frames)
    assert [list(values) for values in frames] == reference_frames(model)


def _fault_sites(circuit, kind):
    if kind == "pi":
        return list(circuit.inputs)
    if kind == "dff":
        return list(circuit.dff_names())
    return [
        name
        for name in circuit.node_names()
        if circuit.node(name).kind is NodeKind.GATE
    ]


class TestRandomDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_dffs=st.integers(min_value=0, max_value=3),
        max_frames=st.integers(min_value=1, max_value=4),
        fault_kind=st.sampled_from(("none", "gate", "pi", "dff")),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_incremental_simulate_equals_scalar(
        self, seed, num_dffs, max_frames, fault_kind, data
    ):
        circuit = random_circuit(seed, num_gates=14, num_dffs=num_dffs)
        fault = None
        if fault_kind != "none":
            sites = _fault_sites(circuit, fault_kind)
            if not sites:
                fault_kind = "none"
            else:
                fault = Fault(
                    data.draw(st.sampled_from(sites), label="site"),
                    data.draw(st.sampled_from((ZERO, ONE)), label="stuck"),
                )
        model = UnrolledModel(circuit, fault, max_frames=max_frames)
        num_pis, num_dffs = model.num_pis, model.num_dffs
        bit = st.sampled_from((ZERO, ONE))
        operations = data.draw(
            st.lists(
                st.sampled_from(
                    ("pi", "state", "unassign", "flip", "frames", "reset")
                ),
                max_size=25,
            ),
            label="operations",
        )
        _assert_matches_reference(model)
        for operation in operations:
            assigned = [
                Variable("pi", frame, position)
                for frame, position in sorted(model.pi_assignment)
            ] + [
                Variable("state", 0, position)
                for position in sorted(model.state_assignment)
            ]
            if operation == "pi":
                frame = data.draw(
                    st.integers(0, model.num_frames - 1), label="frame"
                )
                position = data.draw(st.integers(0, num_pis - 1))
                model.assign(Variable("pi", frame, position), data.draw(bit))
            elif operation == "state" and num_dffs:
                position = data.draw(st.integers(0, num_dffs - 1))
                model.assign(Variable("state", 0, position), data.draw(bit))
            elif operation in ("unassign", "flip") and assigned:
                variable = data.draw(st.sampled_from(assigned))
                if operation == "unassign":
                    model.unassign(variable)
                else:
                    flipped = ONE if model.value_of(variable) == ZERO else ZERO
                    model.assign(variable, flipped)
            elif operation == "frames":
                model.set_frames(
                    data.draw(st.integers(1, max_frames), label="count")
                )
            elif operation == "reset":
                model.reset_assignments()
            _assert_matches_reference(model)


class TestCacheInvalidation:
    """Each mutation kind must make the cached model re-simulate."""

    def _counter_model(self, two_bit_counter, fault=None):
        model = UnrolledModel(two_bit_counter, fault, max_frames=3)
        model.set_frames(3)
        for position in range(2):
            model.assign(Variable("state", 0, position), ZERO)
        for frame in range(3):
            model.assign(Variable("pi", frame, 0), ONE)
        _assert_matches_reference(model)
        return model

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.assign(Variable("pi", 1, 0), ZERO),
            lambda m: m.assign(Variable("state", 0, 1), ONE),
            lambda m: m.unassign(Variable("pi", 0, 0)),
            lambda m: m.unassign(Variable("state", 0, 0)),
            lambda m: m.set_frames(1),
            lambda m: (m.set_frames(1), m.set_frames(3)),
            lambda m: m.reset_assignments(),
        ],
        ids=[
            "assign-pi",
            "assign-state",
            "unassign-pi",
            "unassign-state",
            "shrink",
            "shrink-grow",
            "reset",
        ],
    )
    @pytest.mark.parametrize("faulty", [False, True])
    def test_mutation_resimulates(self, two_bit_counter, mutate, faulty):
        fault = Fault("d0", ZERO) if faulty else None
        model = self._counter_model(two_bit_counter, fault)
        mutate(model)
        _assert_matches_reference(model)

    def test_untouched_frames_are_shared(self, two_bit_counter):
        model = self._counter_model(two_bit_counter)
        before = model.simulate()
        model.assign(Variable("pi", 2, 0), ZERO)
        after = model.simulate()
        assert after[0] is before[0] and after[1] is before[1]
        assert after[2] is not before[2]
        _assert_matches_reference(model)


class TestFaultSiteFeedback:
    def test_site_reading_its_own_effect(self):
        """g = AND(q, a) with q <- g and g stuck-at-1.  Frame 0 from q=0
        puts D-bar on g; frame 1 reads it back with a = X: AND(D-bar, X)
        is good 0 / faulty X, which collapses to X before the fault
        forces the faulty side, so g stays X (not D-bar)."""
        builder = CircuitBuilder("self_loop")
        a = builder.input("a")
        builder.gate(GateType.AND, ["q", a], name="g")
        circuit = builder._circuit
        circuit.add_dff("q", "g", init=ZERO)
        circuit.add_output("g")
        model = UnrolledModel(circuit, Fault("g", ONE), max_frames=2)
        model.set_frames(2)
        model.assign(Variable("state", 0, 0), ZERO)
        frames = model.simulate()
        g = model.index_of("g")
        assert frames[0][g] == DBAR and frames[1][g] == X
        _assert_matches_reference(model)


def _single_gate(gate, arity):
    builder = CircuitBuilder(f"{gate.value}{arity}")
    inputs = [builder.input(f"i{k}") for k in range(arity)]
    out = builder.gate(gate, inputs, name="y")
    builder.output(out)
    return builder.build()


_GATE_ARITIES = [(GateType.BUF, 1), (GateType.NOT, 1)] + [
    (gate, arity)
    for gate in (
        GateType.AND,
        GateType.OR,
        GateType.NAND,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
    )
    for arity in (2, 3, 4)
]


class TestKernelLines:
    @pytest.mark.parametrize(
        "gate,arity",
        _GATE_ARITIES,
        ids=[f"{g.value}{n}" for g, n in _GATE_ARITIES],
    )
    def test_exhaustive_against_eval_gate5(self, gate, arity):
        """All 5^n input tuples, fault-free and with the gate output
        stuck at 0 and at 1."""
        circuit = _single_gate(gate, arity)
        program = compiled_program_cached(circuit)
        five = program.five_valued
        out = program.index["y"]
        cases = [(-1, None)] + [(out, ZERO), (out, ONE)]
        for fault_slot, stuck_at in cases:
            tables = five.slot_tables(fault_slot, stuck_at or ZERO)
            for inputs in itertools.product(FIVE, repeat=arity):
                values = [RAIL_X] * program.num_slots
                for slot, literal in zip(program.input_slots, inputs):
                    values[slot] = RAIL_OF[literal]
                five.kernel(values, tables)
                expected = eval_gate5(gate, list(inputs))
                if stuck_at is not None:
                    expected = five_join(five_split(expected)[0], stuck_at)
                assert RAIL_DECODE[values[out]] == expected, (inputs, stuck_at)

    @pytest.mark.parametrize("gate", [GateType.CONST0, GateType.CONST1])
    def test_constants(self, gate):
        builder = CircuitBuilder(gate.value)
        builder.input("i")
        builder.output(builder.gate(gate, [], name="y"))
        program = compiled_program_cached(builder.build())
        out = program.index["y"]
        for stuck_at in (None, ZERO, ONE):
            tables = program.five_valued.slot_tables(
                -1 if stuck_at is None else out, stuck_at or ZERO
            )
            values = [RAIL_X] * program.num_slots
            program.five_valued.kernel(values, tables)
            expected = eval_gate5(gate, [])
            if stuck_at is not None:
                expected = five_join(five_split(expected)[0], stuck_at)
            assert RAIL_DECODE[values[out]] == expected

    def test_and_collapses_mixed_pair_to_x(self):
        """AND(D, X) is good X / faulty 0.  Kept as two independent
        ternary lanes, that pair makes AND(AND(D, X), D-bar) read 0
        (good 0, faulty 0); the D-calculus collapses the inner pair to
        X, so the outer gate is good 0 / faulty X, which is X too."""
        inner = eval_gate5(GateType.AND, [D, X])
        assert inner == X
        assert eval_gate5(GateType.AND, [inner, DBAR]) == X
        builder = CircuitBuilder("and_chain")
        a, b, c = builder.inputs("a", "b", "c")
        builder.output(builder.and_(builder.and_(a, b, name="g"), c, name="y"))
        program = compiled_program_cached(builder.build())
        values = [RAIL_X] * program.num_slots
        for slot, literal in zip(program.input_slots, (D, X, DBAR)):
            values[slot] = RAIL_OF[literal]
        program.five_valued.kernel(values, program.five_valued.slot_tables())
        assert RAIL_DECODE[values[program.index["g"]]] == X
        assert RAIL_DECODE[values[program.index["y"]]] == X
