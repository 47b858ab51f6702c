"""Span tracing of autcert's public functions, installed from outside.

The tracer wraps a function and then replaces *every* binding of it in
the ``autcert`` modules: module globals (``from .lattice import
gram_rank`` copies the name into ``pipeline``), class attributes
(``MultiPoly.__rmul__ = __mul__``) and module-level dictionaries (the
pipeline's stage table).  Wrapping only the defining module would miss
the calls that matter.

Each call becomes a span: name, start, end, parent and op index.  Spans
are kept in memory and written out by the caller when the run ends.  A
span's self time is its duration minus the time of its direct child
spans, so a recursive ``poly_gcd`` call is a child of the call that made
it and counts toward that call's total, not its self time.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records spans and per-name totals for the wrapped functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, op)
        self.op = 0
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)  # filled by observers

    def start_op(self) -> None:
        """Start a new op: totals are kept per op, spans for the whole run."""
        self.op += 1
        for table in (self.calls, self.total_s, self.self_s, self.counts):
            table.clear()

    def wrap(self, name: str, fn, observe=None):
        """Traced version of ``fn``.

        ``observe(args, result, top_level)`` runs after each call that
        returns; ``top_level`` is false when the call is nested inside
        another span of the same name.
        """
        stack, spans, depth = self._stack, self.spans, self._depth
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            top_level = depth[name] == 0
            frame = [span_id, name, perf_counter(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[name] -= 1
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[3]
                spans.append(
                    (span_id, parent[0] if parent else None, name, frame[2], end, self.op)
                )
            if observe is not None:
                observe(args, result, top_level)
            return result

        return traced

    def patch(self, fn, name: str, observe=None) -> None:
        """Replace every binding of ``fn`` in the loaded autcert modules."""
        wrapper = self.wrap(name, fn, observe)
        replaced = 0
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "autcert"]:
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapper)
                        self._undo.append((setattr, owner, key, fn))
                        replaced += 1
            for table in [v for v in vars(module).values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    if value is fn:
                        table[key] = wrapper
                        self._undo.append((dict.__setitem__, table, key, fn))
                        replaced += 1
        if not replaced:
            raise LookupError(f"no binding of {name} found to trace")

    def unpatch(self) -> None:
        while self._undo:
            restore, owner, key, fn = self._undo.pop()
            restore(owner, key, fn)
