"""Spans around the program's layer entry points, from the outside.

Tracing wraps the public functions of each layer wherever a caller can
resolve them: every module attribute bound to the function (a
``from x import f`` copies the binding, and the ``repro`` package binds
``repro.espresso`` to the *function*, not the subpackage) and, for
methods, the class attribute.  Each call records a span with its
parent; a layer's self time is its spans' durations minus the part
their child spans cover.  The op itself is the root span, so whatever
no layer claims stays visible as the op's own time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer).  The layer names the per-layer
#: metric the span's self time goes to.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.robustness.repair", "repair_config_batch", "repair"),
    ("repro.robustness.repair", "repair_config", "repair"),
    ("repro.kernels.batcharena", "ConfigArena.from_config", "arena.pack"),
    ("repro.kernels.batcharena", "ConfigArena.from_row_subsets",
     "arena.pack"),
    ("repro.kernels.batcharena", "ConfigArena.from_configs", "arena.pack"),
    ("repro.kernels.batcharena", "ConfigArena.patch_overlay", "arena.pack"),
    ("repro.kernels.batcharena", "ConfigArena.error_counts_vs",
     "arena.eval"),
    ("repro.kernels.batcharena", "ConfigArena.eval_slices", "arena.eval"),
    ("repro.kernels.batcharena", "CoverArena.from_covers", "arena.pack"),
    ("repro.kernels.batcharena", "CoverArena.eval_slices", "arena.eval"),
    ("repro.robustness.yield_engine", "estimate_yield", "yield"),
    ("repro.core.defects", "DefectMap.sample", "defects.sample"),
    ("repro.core.defects", "DefectMap.sample_row_correlated",
     "defects.sample"),
    ("repro.espresso.espresso", "espresso", "espresso"),
    ("repro.espresso.expand", "expand", "espresso.expand"),
    ("repro.espresso.irredundant", "irredundant", "espresso.irredundant"),
    ("repro.espresso.reduce", "reduce_cover", "espresso.reduce"),
    ("repro.espresso.essential", "essential_primes", "espresso.essential"),
    ("repro.store.service", "SynthesisService.get_or_compute", "store"),
    ("repro.store.service", "SynthesisService.minimize", "store"),
    ("repro.store.service", "SynthesisService.place_route", "store"),
    ("repro.store.service", "SynthesisService.yield_run", "store"),
    ("repro.mapping.gnor_map", "map_cover_to_gnor", "mapping.map"),
    ("repro.mapping.partition", "Partitioner.partition", "mapping.partition"),
    ("repro.fpga.emulate", "run_emulation", "fpga.flow"),
    ("repro.fpga.netlist", "build_netlist", "fpga.netlist"),
    ("repro.fpga.placement", "place", "fpga.place"),
    ("repro.fpga.routing", "route", "fpga.route"),
    ("repro.fpga.timing", "analyze_timing", "fpga.timing"),
)

#: Whose work a store miss computes, by artifact kind: the compute
#: callback's own time goes to that layer, not to the store.
COMPUTE_LAYER = {"minimize": "espresso", "yield": "yield",
                 "place_route": "fpga.flow", "table2_workload": "fpga.flow"}


def rebind(original, replacement) -> List[tuple]:
    """Point every program binding of ``original`` at ``replacement``.

    Returns the undo list ``[(owner, attribute, original), ...]``.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class Tracer:
    """In-memory span recorder.

    A span is ``[layer, start, end, parent index, op id]``; spans stay
    in memory until the run ends.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self.op_id = 0
        #: calls of ``espresso()`` itself and the cubes they returned
        self.espresso_calls = 0
        self.cubes_out = 0

    # -- recording -----------------------------------------------------
    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent,
                           self.op_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        tracer = self

        if layer == "store" and fn.__name__ == "get_or_compute":
            @functools.wraps(fn)
            def traced(service, kind, request, compute, *args, **kwargs):
                inner = tracer._wrap(compute,
                                     COMPUTE_LAYER.get(kind, "store"))
                index = tracer.open(layer)
                try:
                    return fn(service, kind, request, inner, *args,
                              **kwargs)
                finally:
                    tracer.close(index)
            return traced

        counts_cubes = fn.__name__ == "espresso"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counts_cubes:
                tracer.espresso_calls += 1
                tracer.cubes_out += len(result.cover)
            return result
        return traced

    # -- installing ----------------------------------------------------
    def install(self) -> None:
        for module_name, path, layer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, layer))
                else:
                    wrapped = self._wrap(raw, layer)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
            else:
                fn = getattr(module, path)
                self._undo += rebind(fn, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- deriving ------------------------------------------------------
    def self_times(self, ops: Optional[set] = None) -> Dict[int, Dict[str, float]]:
        """op id -> layer -> exclusive seconds."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[int, Dict[str, float]] = {}
        for i, (layer, start, end, _parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            per_op = out.setdefault(op, {})
            per_op[layer] = per_op.get(layer, 0.0) + (end - start) - child[i]
        return out
