"""Iterative-array (time-frame) model for structural sequential ATPG.

The classical model ([15] in the paper): a sequential circuit is
unrolled into identical combinational frames, frame ``f``'s register
outputs fed by frame ``f-1``'s register D-inputs.  The single stuck-at
fault is present in *every* frame (a permanent defect).

:class:`UnrolledModel` evaluates the window in five-valued D-calculus
on the circuit's compiled rail-code kernel
(:class:`~repro.sim.compile.FiveValuedProgram`), one kernel call per
frame, and keeps the frames it computed: a decision in frame ``f``
cannot change an earlier frame, so the next :meth:`UnrolledModel.
simulate` re-runs only from the earliest frame a mutation touched.
Decision variables are the primary inputs of every frame and the
frame-0 state (the machine state the ATPG will later have to justify);
everything else is derived by simulation.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import D, DBAR, ONE, X, ZERO
from ..circuit.netlist import Circuit, NodeKind
from ..errors import AtpgError
from ..fault.model import Fault
from ..sim.compile import (
    RAIL_DECODE,
    RAIL_OF_BIT,
    RAIL_X,
    CompiledProgram,
    compiled_program_cached,
)

# Good-circuit ternary value of each five-valued literal, indexed by
# the literal (a table lookup in place of ``five_split(v)[0]``).
_GOOD = {ZERO: ZERO, ONE: ONE, X: X, D: ONE, DBAR: ZERO}
GOOD_VALUE = tuple(_GOOD[literal] for literal in range(len(_GOOD)))


@dataclasses.dataclass(frozen=True)
class Variable:
    """One decision variable: a PI of some frame, or a frame-0 state bit."""

    kind: str  # "pi" | "state"
    frame: int  # always 0 for state variables
    position: int  # PI index or DFF index


class SlotStructure:
    """Slot-indexed netlist lookups for the PODEM search, built once per
    compiled program (every fault's model of a circuit shares one)."""

    def __init__(self, program: CompiledProgram):
        circuit = program.circuit
        index = program.index
        nodes = [circuit.node(name) for name in program.order]
        self.pi_position: Dict[int, int] = {
            slot: position for position, slot in enumerate(program.input_slots)
        }
        self.dff_position: Dict[int, int] = {
            slot: position
            for position, slot in enumerate(program.dff_out_slots)
        }
        self.gate = [
            node.gate if node.kind is NodeKind.GATE else None for node in nodes
        ]
        self.fanin: List[Tuple[int, ...]] = [
            tuple(index[name] for name in node.fanin) for node in nodes
        ]
        fanouts = circuit.fanouts()
        self.fanout: List[Tuple[int, ...]] = [
            tuple(index[name] for name in fanouts[node.name]) for node in nodes
        ]
        # Static observability distances for objective heuristics:
        # gate-count distance to the nearest PO, and to the nearest
        # register D-input (a path into the next frame).
        self.dist_po = self._reverse_distance(program.output_slots)
        self.dist_dff = self._reverse_distance(program.dff_d_slots)

    def _reverse_distance(self, targets: Sequence[int]) -> List[int]:
        """Min gate-count distance from each node to any target node."""
        INF = 10 ** 9
        dist = [INF] * len(self.fanin)
        worklist = []
        for slot in dict.fromkeys(targets):
            dist[slot] = 0
            worklist.append(slot)
        # Breadth-first over the reversed combinational graph.
        while worklist:
            next_list = []
            for slot in worklist:
                if slot in self.dff_position:
                    continue  # distances are per-frame (combinational)
                for fanin_slot in self.fanin[slot]:
                    if dist[fanin_slot] > dist[slot] + 1:
                        dist[fanin_slot] = dist[slot] + 1
                        next_list.append(fanin_slot)
            worklist = next_list
        return dist


_STRUCTURES: "weakref.WeakKeyDictionary[CompiledProgram, SlotStructure]" = (
    weakref.WeakKeyDictionary()
)


def slot_structure(program: CompiledProgram) -> SlotStructure:
    structure = _STRUCTURES.get(program)
    if structure is None:
        structure = _STRUCTURES[program] = SlotStructure(program)
    return structure


class UnrolledModel:
    """Five-valued multi-frame evaluation engine for one fault.

    All value arrays are indexed by the compiled topological order; use
    :meth:`index_of` to translate node names.  Mutate the decision
    variables only through :meth:`assign`, :meth:`unassign`,
    :meth:`set_frames` and :meth:`reset_assignments`: those are what
    invalidate the frame cache.
    """

    def __init__(
        self,
        circuit: Circuit,
        fault: Optional[Fault],
        max_frames: int,
    ):
        program = compiled_program_cached(circuit)
        self.circuit = circuit
        self.fault = fault
        self.max_frames = max_frames
        self.program = program
        self.structure = slot_structure(program)
        if fault is not None and fault.node not in program.index:
            raise AtpgError(f"fault site {fault.node!r} not in circuit")
        self._fault_index = (
            program.index[fault.node] if fault is not None else -1
        )
        five = program.five_valued
        self._kernel = five.kernel
        self._tables = five.slot_tables(
            self._fault_index, fault.stuck_at if fault is not None else ZERO
        )
        # A PI or DFF-output fault site is injected as its source loads.
        self._source_fault = (
            self._fault_index
            if self._fault_index in program.source_slots
            else -1
        )
        self._dff_pairs = tuple(
            zip(program.dff_out_slots, program.dff_d_slots)
        )

        # Decision-variable assignments (ternary 0/1; absent = X).
        self.pi_assignment: Dict[Tuple[int, int], int] = {}
        self.state_assignment: Dict[int, int] = {}
        self.num_frames = 1
        # Leading frames still valid for the current assignment: rail
        # codes (fed forward to the next frame) and decoded literals
        # (handed to callers, immutable).
        self._rails: List[List[int]] = []
        self._frames: List[bytes] = []

        self.dist_po = self.structure.dist_po
        self.dist_dff = self.structure.dist_dff

    # -- compiled lookups -------------------------------------------------

    @property
    def num_pis(self) -> int:
        return len(self.program.input_slots)

    @property
    def num_dffs(self) -> int:
        return len(self.program.dff_out_slots)

    @property
    def num_nodes(self) -> int:
        return self.program.num_slots

    def index_of(self, name: str) -> int:
        return self.program.index[name]

    def po_indices(self) -> Sequence[int]:
        return self.program.output_slots

    def dff_out_indices(self) -> Sequence[int]:
        return self.program.dff_out_slots

    def dff_d_indices(self) -> Sequence[int]:
        return self.program.dff_d_slots

    # -- assignment management ----------------------------------------------

    def _invalidate(self, frame: int) -> None:
        """Drop the cached frames from ``frame`` on."""
        del self._frames[frame:]
        del self._rails[frame:]

    def assign(self, variable: Variable, value: int) -> None:
        if value not in (ZERO, ONE):
            raise AtpgError("decision values must be 0 or 1")
        if variable.kind == "pi":
            self.pi_assignment[(variable.frame, variable.position)] = value
            self._invalidate(variable.frame)
        else:
            self.state_assignment[variable.position] = value
            self._invalidate(0)

    def unassign(self, variable: Variable) -> None:
        if variable.kind == "pi":
            self.pi_assignment.pop((variable.frame, variable.position), None)
            self._invalidate(variable.frame)
        else:
            self.state_assignment.pop(variable.position, None)
            self._invalidate(0)

    def value_of(self, variable: Variable) -> Optional[int]:
        if variable.kind == "pi":
            return self.pi_assignment.get((variable.frame, variable.position))
        return self.state_assignment.get(variable.position)

    def state_cube(self) -> Dict[int, int]:
        """The frame-0 state requirements accumulated by the search."""
        return dict(self.state_assignment)

    # -- simulation ----------------------------------------------------------

    def simulate(self) -> List[bytes]:
        """Evaluate all ``num_frames`` frames; returns five-valued value
        arrays (``values[frame][node_index]``).

        Frames cached since the last mutation are reused, the rest are
        recomputed forward.  The returned frames are shared with the
        cache: read them, never write them (they are ``bytes``).
        """
        rails, frames = self._rails, self._frames
        program = self.program
        kernel, tables = self._kernel, self._tables
        pi_assignment = self.pi_assignment
        blank = [RAIL_X] * program.num_slots
        for frame in range(len(frames), self.num_frames):
            values = blank[:]
            for position, slot in enumerate(program.input_slots):
                assigned = pi_assignment.get((frame, position))
                if assigned is not None:
                    values[slot] = RAIL_OF_BIT[assigned]
            if frame == 0:
                dff_out = program.dff_out_slots
                for position, assigned in self.state_assignment.items():
                    values[dff_out[position]] = RAIL_OF_BIT[assigned]
            else:
                previous = rails[frame - 1]
                for out_slot, d_slot in self._dff_pairs:
                    values[out_slot] = previous[d_slot]
            source = self._source_fault
            if source >= 0:
                values[source] = tables[source][values[source]]
            kernel(values, tables)
            rails.append(values)
            frames.append(bytes(values).translate(RAIL_DECODE))
        return frames[:]

    # -- window control ------------------------------------------------------

    def set_frames(self, count: int) -> None:
        if count < 1 or count > self.max_frames:
            raise AtpgError(
                f"frame count {count} outside [1, {self.max_frames}]"
            )
        self.num_frames = count
        # Drop PI assignments beyond the window; they only fed frames
        # past it, so the frames inside stay valid.
        for key in [k for k in self.pi_assignment if k[0] >= count]:
            del self.pi_assignment[key]
        self._invalidate(count)

    def reset_assignments(self) -> None:
        self.pi_assignment.clear()
        self.state_assignment.clear()
        self._invalidate(0)

