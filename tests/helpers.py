"""Shared test helpers: deterministic random circuit generation,
simulation-based functional comparison, and the scalar five-valued
reference for the iterative-array model."""

from repro._util import make_rng
from repro.circuit import (
    X,
    ZERO,
    CircuitBuilder,
    GateType,
    eval_gate5,
    five_join,
    five_split,
)
from repro.sim import TernarySimulator


def random_circuit(seed, num_inputs=4, num_gates=12, num_dffs=2):
    """A random valid sequential circuit (deterministic per seed)."""
    rng = make_rng(seed)
    builder = CircuitBuilder(f"rand{seed}")
    signals = [builder.input(f"x{i}") for i in range(num_inputs)]
    dff_names = [f"q{j}" for j in range(num_dffs)]
    signals.extend(dff_names)
    gates = [
        GateType.AND,
        GateType.OR,
        GateType.NAND,
        GateType.NOR,
        GateType.XOR,
        GateType.NOT,
    ]
    created = []
    for _ in range(num_gates):
        gate = rng.choice(gates)
        arity = 1 if gate is GateType.NOT else rng.randint(2, 3)
        fanin = [rng.choice(signals + created) for _ in range(arity)]
        created.append(builder.gate(gate, fanin))
    circuit = builder._circuit
    for name in dff_names:
        circuit.add_dff(name, rng.choice(created), init=rng.randrange(2))
    for _ in range(2):
        circuit.add_output(rng.choice(created))
    circuit.check()
    return circuit


def sequences_match(left, right, seed=0, num_sequences=8, length=20):
    """Compare PO traces of two circuits with identical PI interfaces."""
    rng = make_rng(seed)
    sim_l, sim_r = TernarySimulator(left), TernarySimulator(right)
    for _ in range(num_sequences):
        state_l, state_r = sim_l.initial_state(), sim_r.initial_state()
        for _ in range(length):
            vector = [rng.randrange(2) for _ in left.inputs]
            po_l, state_l = sim_l.step(vector, state_l)
            po_r, state_r = sim_r.step(vector, state_r)
            if po_l != po_r:
                return False
    return True


def reference_frames(model):
    """Scalar twin of :meth:`UnrolledModel.simulate`: every frame of the
    model's window evaluated gate by gate through
    :func:`~repro.circuit.gates.eval_gate5`, from scratch.

    The differential oracle and the kernel microbenchmark compare the
    compiled, cached path against it; no engine calls it.
    """
    program = model.program
    structure = model.structure
    fault = model.fault
    fault_index = model.index_of(fault.node) if fault is not None else -1
    fault_value = fault.stuck_at if fault is not None else ZERO

    def inject(value):
        good, _ = five_split(value)
        return five_join(good, fault_value)

    frames = []
    for frame in range(model.num_frames):
        values = [X] * program.num_slots
        for position, slot in enumerate(program.input_slots):
            values[slot] = model.pi_assignment.get((frame, position), X)
        for position, slot in enumerate(program.dff_out_slots):
            if frame == 0:
                values[slot] = model.state_assignment.get(position, X)
            else:
                values[slot] = frames[-1][program.dff_d_slots[position]]
        if fault_index in program.source_slots:
            values[fault_index] = inject(values[fault_index])
        for _, out_slot, in_slots in program.plan:
            value = eval_gate5(
                structure.gate[out_slot], [values[i] for i in in_slots]
            )
            values[out_slot] = (
                inject(value) if out_slot == fault_index else value
            )
        frames.append(values)
    return frames
