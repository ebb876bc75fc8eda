"""Spans and counts recorded by the benchmark around its calls into the library.

A span records a name, start, end, its parent span and the operation it
belongs to.  Spans live in memory and are handed back with the pass
result; nothing is written while the pass runs.  Span names are
``<module>.<function>`` for calls into the library, ``cli.<command>`` for
CLI child processes, and ``op`` for one benchmark operation (library
calls plus the reference check).  A module's self time is the time in
its spans minus the time in their child spans.
"""

from __future__ import annotations

from time import perf_counter

LAYERS = ('coeff', 'symcomb', 'hecke', 'tensoract', 'qperm', 'glq',
          'linalg', 'centralizer', 'cli')


class Tracer:
    """Records spans and counts when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, int | None, int | None, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._next = 0
        self._op: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with _Span(self, name):
            return fn(*args, **kwargs)

    def op(self, op_id: int):
        """Span of one operation; every span opened inside shares op_id."""
        self._op = op_id
        return _Span(self, 'op') if self.enabled else _NULL

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount


def summarise(spans, counts: dict[str, int], duration) -> dict[str, float]:
    """Time and calls per span name, self time per layer, and the counts.

    ``duration(start, end)`` turns a span's clock readings into the
    seconds to report.
    """
    took = {span_id: duration(start, end) for span_id, _, _, _, start, end in spans}
    child_time: dict[int, float] = {}
    for span_id, parent, *_ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + took[span_id]
    out: dict[str, float] = dict(counts)
    for layer in LAYERS + ('bench',):
        out[f'{layer}.self_s'] = 0.0
    for span_id, _, _, name, _, _ in spans:
        if name != 'op':
            out[f'{name}.s'] = out.get(f'{name}.s', 0.0) + took[span_id]
            out[f'{name}.calls'] = out.get(f'{name}.calls', 0) + 1
        layer = name.split('.')[0]
        key = f'{layer if layer in LAYERS else "bench"}.self_s'
        out[key] += took[span_id] - child_time.get(span_id, 0.0)
    out['trace.spans'] = len(spans)
    return out


class _Span:
    __slots__ = ('tracer', 'name', 'id', 'parent', 'start')

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = t._next
        t._next += 1
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.id, self.parent, t._op, self.name, self.start, end))
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()
