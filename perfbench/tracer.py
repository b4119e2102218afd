"""Spans around the public entry points of each slidereg layer.

The tracer wraps functions and methods from the benchmark's side, so
``src/`` stays untouched. A module-level function is replaced in every
loaded ``slidereg`` module that holds it under the same name, because
``registration`` and ``flow`` import ``interp_values`` and the assemblers
by name. Methods are replaced on their class. An entry point that no
longer exists is reported absent instead of raising, so the untraced run
keeps working after a refactor deletes it.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


def _is_scalar_image(values, geom, *args, **kwargs) -> bool:
    return getattr(values, "ndim", None) == geom.ndim


@dataclass(frozen=True)
class Entry:
    """A traced entry point: ``attr`` in ``module``, or ``Class.method``.

    ``tag`` classifies a call from its arguments. Tagged calls made outside
    ``warp_image`` are counted separately: for the interpolators these are
    the scalar-image samples, one per forward or gradient pass.
    """

    span: str
    module: str
    attr: str
    tag: object = None


ENTRIES = (
    Entry("registration.optimize", "slidereg.registration", "optimize"),
    Entry("flow.integrate", "slidereg.flow", "integrate"),
    Entry("geometry.warp", "slidereg.geometry", "warp_image"),
    Entry("geometry.interp", "slidereg.geometry", "interp_values", _is_scalar_image),
    Entry("geometry.interp_grad", "slidereg.geometry", "interp_with_point_grad", _is_scalar_image),
    Entry("geometry.splat", "slidereg.geometry", "splat_adjoint"),
    Entry("momenta.build", "slidereg.momenta", "VelocityAssembler.__init__"),
    Entry("momenta.build", "slidereg.momenta", "KernelGrams.__init__"),
    Entry("momenta.gram_apply", "slidereg.momenta", "KernelGrams.energy"),
    Entry("momenta.gram_apply", "slidereg.momenta", "KernelGrams.grad"),
    Entry("momenta.synth", "slidereg.momenta", "VelocityAssembler.velocity"),
    Entry("momenta.synth_adjoint", "slidereg.momenta", "VelocityAssembler.adjoint"),
    Entry("kernels.eval_many", "slidereg.kernels", "eval_kernel_many"),
    Entry("kernels.eval_many", "slidereg.kernels", "eval_partial_many"),
    Entry("kernels.eval_many", "slidereg.kernels", "eval_mixed_many"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tagged: bool
    child_s: float = 0.0


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self, entries=ENTRIES):
        self.entries = entries
        self.spans: list[Span] = []
        self.absent: list[Entry] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, entry: Entry, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            tagged = bool(entry.tag and entry.tag(*args, **kwargs)) and (
                parent is None or spans[parent].name != "geometry.warp"
            )
            idx = len(spans)
            spans.append(Span(entry.span, time.perf_counter(), 0.0, parent, tagged))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[idx]
                span.end = time.perf_counter()
                if span.parent is not None:
                    spans[span.parent].child_s += span.end - span.start

        return traced

    def __enter__(self):
        for entry in self.entries:
            home = sys.modules.get(entry.module)
            owner_name, _, name = entry.attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.absent.append(entry)
                continue
            wrapped = self._wrap(entry, fn)
            if owner_name:
                targets = [owner]
            else:
                targets = [
                    m for key, m in list(sys.modules.items())
                    if key.startswith("slidereg") and getattr(m, name, None) is fn
                ]
            for target in targets:
                self._undo.append((target, name, fn))
                setattr(target, name, wrapped)
        return self

    def __exit__(self, *exc):
        for target, name, fn in reversed(self._undo):
            setattr(target, name, fn)
        self._undo.clear()
        return False

    def summary(self) -> dict:
        """Calls, self- and total seconds, and tagged calls per span name."""
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "tagged": 0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += (s.end - s.start) - s.child_s
            row["tagged"] += s.tagged
        return out
