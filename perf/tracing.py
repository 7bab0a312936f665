"""Host-time tracing for the benchmark: layer spans and per-op aggregates.

Every span is recorded from inside ``perf/``: the tracer wraps the
program's entry points from the outside and restores them afterwards.
A method is wrapped on its class and a function on every module-level
binding of it, never on an instance.  An instance attribute named
``check`` would make ``PrivilegeCheckUnit.check_block_summary`` refuse
every probe and so change the path being measured.  Install the tracer
before the kernels it should see are built: pipelines and CPUs keep
bound methods they looked up at construction.

Each layer keeps (calls, total, self) host seconds.  Self time is the
duration minus the time spent in wrapped callees.  A re-entrant call of
the same layer counts once, because under the contract monitor
``_traced_check`` calls ``PrivilegeCheckUnit.check`` a second time.
Coarse layers (op, kernel boot, ``Machine.run``, world build) are also
kept as span records with id, parent and op id.  Per-instruction
layers are only aggregated per op, so memory stays bounded.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple

#: (calls, total_s, self_s) of one layer over some interval.
Totals = Tuple[int, float, float]


class _Layer:
    __slots__ = ("active", "calls", "total", "self_time")

    def __init__(self):
        self.active = False
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs timing wrappers and records what they measure."""

    def __init__(self):
        self.layers: Dict[str, _Layer] = {}
        self.spans: List[dict] = []
        #: One entry per finished op: its coarse timing and layer deltas.
        self.ops: List[dict] = []
        # Child-time accumulators; the bottom entry collects time spent
        # in layers while no layer is open.
        self._children = [0.0]
        self._open_spans: List[int] = []
        self._op_id: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    # -- installation ----------------------------------------------------
    def wrap_method(self, cls, attr: str, layer: str,
                    coarse: bool = False) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(layer, original, coarse))

    def wrap_function(self, function, layer: str) -> None:
        """Rebind every module-level binding of ``function``."""
        wrapper = self._wrapper(layer, function, False)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is function:
                    self._patches.append((module, attr, function))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _layer(self, name: str) -> _Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = _Layer()
        return layer

    def _wrapper(self, name: str, original, coarse: bool):
        """Time ``original`` into layer ``name``; a coarse layer also
        stores a span record per call."""
        layer = self._layer(name)
        fn = self._recorded(name, original) if coarse else original
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if layer.active:
                return original(*args, **kwargs)
            layer.active = True
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = children.pop()
                children[-1] += elapsed
                layer.active = False
                layer.calls += 1
                layer.total += elapsed
                layer.self_time += elapsed - child

        return traced

    def _recorded(self, name: str, fn):
        """``fn``, storing a span record with id, parent and op per call."""

        def recorded(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append(None)  # reserve the id; filled on exit
            self._open_spans.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open_spans.pop()
                self.spans[span_id] = {
                    "id": span_id, "parent": parent, "op": self._op_id,
                    "name": name,
                    "start": start - self._epoch, "end": end - self._epoch,
                }

        return recorded

    # -- measurement -----------------------------------------------------
    def snapshot(self) -> Dict[str, Totals]:
        return {name: (layer.calls, layer.total, layer.self_time)
                for name, layer in self.layers.items()}

    @staticmethod
    def delta(before: Dict[str, Totals],
              after: Dict[str, Totals]) -> Dict[str, Totals]:
        out = {}
        for name, (calls, total, self_time) in after.items():
            calls0, total0, self0 = before.get(name, (0, 0.0, 0.0))
            out[name] = (calls - calls0, total - total0, self_time - self0)
        return out

    def run_op(self, op_id: int, variant: int, fn, *args):
        """Return ``fn(*args)``, traced as one op: a root span whose self
        time is unattributed."""
        before = self.snapshot()
        self._op_id = op_id
        try:
            return self._wrapper("op", fn, coarse=True)(*args)
        finally:
            self._op_id = None
            layers = self.delta(before, self.snapshot())
            _, total, unattributed = layers.pop("op")
            self.ops.append({"op": op_id, "variant": variant,
                             "seconds": total,
                             "unattributed_s": unattributed,
                             "layers": layers})
