"""Outside-in tracing: wrap functions of a running package and record spans.

Nothing in the traced package is edited. A function is replaced in every
module namespace that holds it, so calls through `from x import f` copies
are caught too; a class is traced by wrapping `__init__` on the class
itself, so `isinstance` checks keep working.

Spans are kept in memory as [name, start, end, parent span, call id] and
written out when the run ends. A layer's self time is its span's duration
minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Iterable, Optional

NAME, START, END, PARENT, CALL = range(5)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.tallies: Counter = Counter()
        self.call_id = -1  # the benchmark call the next spans belong to
        self.patched: dict[str, list[str]] = {}  # span name -> "module.attr" replaced
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, tally: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call; `tally(result)` may return a
        dict of counts to add to `self.tallies`."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            spans.append(span)
            stack.append(sid)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tally is not None:
                self.tallies.update(tally(result))
            return result

        return traced

    def patch_function(self, package: str, module: str, attr: str, name: str,
                       tally: Optional[Callable] = None) -> int:
        """Replace `module.attr` in every loaded `package` module holding
        that same object. Returns how many namespaces were patched."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(name, original, tally)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)
                    self.patched.setdefault(name, []).append(f"{mod_name}.{key}")
        return len(self.patched.get(name, []))

    def patch_constructor(self, cls: type, name: str) -> None:
        original = cls.__dict__["__init__"]
        self._undo.append((cls, "__init__", original))
        cls.__init__ = self.wrap(name, original)
        self.patched[name] = [f"{cls.__module__}.{cls.__qualname__}.__init__"]

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent span, call id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its direct children's
    intervals, clipped to the span."""
    children: list[list[int]] = [[] for _ in spans]
    for sid, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(sid)
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for cid in sorted(children[sid], key=lambda c: spans[c][START]):
            lo = max(spans[cid][START], reach)
            hi = min(spans[cid][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list[list], names: Iterable[str]) -> dict[str, tuple[int, float]]:
    """(calls, total self seconds) for each name; absent names get (0, 0.0)."""
    totals = {name: [0, 0.0] for name in names}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[NAME], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, secs) for name, (calls, secs) in totals.items()}
