"""Layer spans recorded from outside the program.

The traced run wraps one public entry point per layer (or a few) and
records a span per call: name, start, end and parent.  A layer's self
time is its spans' durations minus the parts their child spans cover;
whatever the pass does outside every layer span stays with the root
span and shows as unattributed.  Per-gate functions such as
``eval_gate5`` are deliberately not wrapped: they run millions of times
per pass and the wrapper would dominate what it measures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

# (layer, module, attribute).  ``Class.method`` attributes are patched on
# the class that defines them, so subclasses (SestEngine) inherit the
# wrapper; plain functions are patched in every module holding them.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("atpg.implicate", "repro.atpg.frames", "UnrolledModel.simulate"),
    ("atpg.justify", "repro.atpg.hitec", "Justifier.justify"),
    ("atpg.learning", "repro.atpg.learning", "IllegalStateCache.is_illegal"),
    ("atpg.learning", "repro.atpg.learning", "IllegalStateCache.learn"),
    ("atpg.search", "repro.atpg.hitec", "HitecEngine.run"),
    ("atpg.search", "repro.atpg.simbased", "SimBasedEngine.run"),
    ("sim.fault", "repro.fault.simulator", "FaultSimulator.run"),
    ("sim.fault", "repro.fault.simulator", "FaultSimulator.run_analyzed"),
    ("sim.fault", "repro.fault.simulator", "FaultSimulator.detects"),
    ("sim.fault", "repro.fault.simulator", "FaultSimulator.good_trace_states"),
    ("expand", "repro.fault.analysis.expand", "expand_result"),
    ("collapse", "repro.fault.analysis", "analyze_faults"),
    ("collapse", "repro.fault.analysis", "analyze_faults_cached"),
    ("lint", "repro.lint.gate", "gate_circuit"),
    ("reach", "repro.analysis.density", "ReachableStates.__init__"),
    ("reach", "repro.analysis.density", "ReachableStates.reachable_bdd"),
    ("reach", "repro.analysis.density", "reachability_report"),
    ("reach", "repro.logic.bdd", "BddManager.range_of"),
    ("seqdepth", "repro.analysis.seqdepth", "sequential_depth_report"),
    ("cycles", "repro.analysis.cycles", "count_dff_cycles"),
    ("synth", "repro.synth.synthesize", "synthesize"),
    ("retime", "repro.harness.suite", "select_retiming"),
    ("retime", "repro.retime.core", "backward_retime"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(l for l, _, _ in LAYER_TARGETS))
ROOT = "pass"


def _note_implicate(model, result, counts: Counter) -> None:
    # One call re-simulates every frame of the window.
    counts["atpg.implicate.node_evals"] += model.num_frames * model.num_nodes


def _note_illegal(cache, result, counts: Counter) -> None:
    counts["atpg.learning.lookups"] += 1
    counts["atpg.learning.hits"] += bool(result)


def _note_image(manager, result, counts: Counter) -> None:
    # reachable_bdd takes one image per fixpoint iteration.
    counts["reach.iterations"] += 1


# Per-call counters taken where the work happens: (attribute, hook).
_NOTES: Dict[str, Callable] = {
    "UnrolledModel.simulate": _note_implicate,
    "IllegalStateCache.is_illegal": _note_illegal,
    "BddManager.range_of": _note_image,
}


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent_index]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, layer: str, attribute: str, original: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        note = _NOTES.get(attribute)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if note is not None:
                note(args[0], result, counts)
            return result

        return functools.update_wrapper(wrapper, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every layer target for the duration of the block."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for layer, module_name, attribute in LAYER_TARGETS:
                owner, name = _resolve(module_name, attribute)
                original = owner.__dict__[name]
                wrapped = self.wrap(layer, attribute, original)
                if isinstance(owner, type):
                    undo.append((owner, name, original))
                    setattr(owner, name, wrapped)
                    continue
                # A module-level function is also bound by name wherever
                # it was imported; rebind every such reference.
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if not namespace:
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapped)
            yield
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def layer_table(
        self, convert: Callable[[float], float] = lambda t: t
    ) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self seconds)``, plus the root's self time;
        ``convert`` maps span times onto another clock first."""
        times = [(convert(start), convert(end)) for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), (start, end) in zip(self.spans, times):
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, List[float]] = {}
        for (name, *_), (start, end), children in zip(self.spans, times, child_time):
            entry = table.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - children
        return {name: (int(c), s) for name, (c, s) in table.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )


def _resolve(module_name: str, attribute: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]
