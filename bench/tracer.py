"""Span recorder and counters for the traced benchmark run.

Spans are recorded from the benchmark's own files: every public function and
method of each `sectional` layer module is replaced, at every module binding
it is imported under, by a wrapper that records (span id, parent id, name,
start, end). `theorems` and `maps` bind `solve_linear`, `vector_in_span` and
the rest by name, so rebinding only `rings.<name>` would miss those calls.

Spans stay in memory and are summarised when the run ends; a layer's self
time is its spans' durations minus the part covered by their child spans.

Ring-element arithmetic and a few other counts are taken in a separate
counting pass (`Counters`), so the counting wrappers' overhead never lands in
a span's self time.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

LAYERS = ("rings", "semigroupoids", "actions", "algebras", "bundles", "maps",
          "theorems", "workspace", "cli")

# Constant-time accessors and coordinate helpers are not spanned: they run
# millions of times, a span would cost more than their body, and their time
# belongs to the caller that loops over them.
LEAVES = frozenset({
    "rings.zero_vector", "rings.unit_vector", "rings.vec_add", "rings.vec_sub",
    "rings.vec_scale", "rings.vec_scale_right", "rings.vec_is_zero",
    "rings.identity_matrix", "rings.at", "rings.row", "rings.column",
    "rings.to_rows", "rings.from_rows",
    # cofactor expansion recurses k! times; its time belongs to mat_inverse
    "rings.mat_determinant",
    "semigroupoids.arrows", "semigroupoids.is_composable", "semigroupoids.compose",
    "semigroupoids.arrow_index", "semigroupoids.vertex_index",
    "semigroupoids.describe_arrow", "semigroupoids.inverse", "semigroupoids.le",
    "semigroupoids.below",
    "actions.dom", "actions.ran", "actions.apply", "actions.representative",
    "algebras.zero", "algebras.unit_vector", "algebras.basis_product",
    "algebras.is_zero_vector", "algebras.support", "algebras.add", "algebras.sub",
    "algebras.scale", "algebras.degree_of_basis",
    "bundles.rank", "bundles.zero_fiber", "bundles.dom", "bundles.at",
    "bundles.support",
    "maps.passed", "maps.first_failure", "maps.add", "maps.to_json",
})

RING_OPS = ("add", "sub", "mul", "neg", "inv")


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("sectional."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def _ring_classes(rings_module) -> set:
    base = rings_module.Ring
    return {v for v in vars(rings_module).values()
            if isinstance(v, type) and issubclass(v, base)}


class _Patcher:
    """setattr with a record of every original, restored by `restore()`."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, name, value) -> None:
        self.saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()


def _sectional_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "sectional" or name.startswith("sectional.")) and m is not None]


class SpanRecorder:
    """Wraps every public layer function; keeps spans in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._patcher = _Patcher()

    def _wrap(self, fn, key):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)  # reserve the id; filled in when the call ends
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, key, t0, t1)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        import sectional.rings as rings_module

        skip_classes = _ring_classes(rings_module)
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            layer = _layer_of(fn)
            if layer is None or fn.__name__.startswith("_"):
                return None
            key = f"{layer}.{fn.__name__}"
            if key in LEAVES:
                return None
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, key)
            return wrappers[id(fn)]

        classes = []
        for module in _sectional_modules():
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    new = wrapped(value)
                    if new is not None and not name.startswith("_"):
                        self._patcher.set(module, name, new)
                elif (isinstance(value, type) and _layer_of(value)
                      and value.__module__ == module.__name__
                      and value not in skip_classes):
                    classes.append(value)
        for cls in classes:
            for name, value in list(vars(cls).items()):
                if isinstance(value, types.FunctionType) and not name.startswith("_"):
                    new = wrapped(value)
                    if new is not None:
                        self._patcher.set(cls, name, new)

    def restore(self) -> None:
        self._patcher.restore()

    def summary(self, scale_at=lambda t: 1.0) -> dict:
        """Per span name: call count and self seconds, each span's self time
        multiplied by scale_at(its start)."""
        child = [0.0] * len(self.spans)
        for _sid, parent, _key, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for sid, _parent, key, t0, t1 in self.spans:
            row = out.setdefault(key, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += ((t1 - t0) - child[sid]) * scale_at(t0)
        return out


class Counters:
    """Counting pass: ring-element operations and layer-specific counts."""

    def __init__(self):
        self.ring_ops = 0
        self.closure_tested = 0
        self.closure_kept = 0
        self.snf_max_bits = 0
        self.table_nnz = 0
        self._patcher = _Patcher()

    def install(self) -> None:
        import sectional.algebras as algebras_module
        import sectional.rings as rings_module

        for cls in _ring_classes(rings_module):
            for op in RING_OPS:
                if op in vars(cls):
                    self._patcher.set(cls, op, self._count_op(vars(cls)[op]))

        span_test = rings_module.vector_in_span
        snf = rings_module.smith_normal_form
        counted_span_test = self._count_span_test(span_test)
        counted_snf = self._count_snf(snf)
        for module in _sectional_modules():
            for name, value in list(vars(module).items()):
                if value is span_test:
                    self._patcher.set(module, name, counted_span_test)
                elif value is snf:
                    self._patcher.set(module, name, counted_snf)

        cls = algebras_module.AlgebraPresentation
        self._patcher.set(cls, "__post_init__", self._count_nnz(cls.__post_init__))

    def restore(self) -> None:
        self._patcher.restore()

    def _count_op(self, fn):
        def op(*args):
            self.ring_ops += 1
            return fn(*args)
        return op

    def _count_span_test(self, fn):
        def vector_in_span(*args, **kwargs):
            result = fn(*args, **kwargs)
            # only the candidate tests that ideal_closure itself runs
            if sys._getframe(1).f_code.co_name == "ideal_closure":
                self.closure_tested += 1
                self.closure_kept += not result
            return result
        return vector_in_span

    def _count_snf(self, fn):
        def smith_normal_form(*args, **kwargs):
            d, u, v = fn(*args, **kwargs)
            bits = max((abs(x).bit_length() for m in (u, v) for row in m for x in row),
                       default=0)
            self.snf_max_bits = max(self.snf_max_bits, bits)
            return d, u, v
        return smith_normal_form

    def _count_nnz(self, fn):
        def __post_init__(algebra):
            fn(algebra)
            zero = algebra.ring.zero
            self.table_nnz += sum(
                1 for vec in algebra.table.values() for x in vec if x != zero
            )
        return __post_init__
