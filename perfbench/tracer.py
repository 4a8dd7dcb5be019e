"""Span tracer for the traced run: wraps library functions from outside.

Each target function is replaced at every binding a caller can look it up
through: the defining module, every module of the package that imported it
by name, and the package namespace (or, for a method, its class).  A span
records the target's name, start, end and parent span.  Spans stay in memory as
flat arrays until `fold` turns them into per-target call counts and self
times (a span's duration minus the time its child spans cover); folding
after every operation keeps memory bounded by the largest operation.
Leaving the `with` block puts every original binding back.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "exact_xformer"


@dataclass(frozen=True)
class Target:
    """A function to wrap: `qualname` inside module `module`, reported as `name`.

    `bits` names the width group the results count towards (None: no width).
    """

    module: str
    qualname: str
    name: str
    bits: Optional[str] = None


def widest_int(value) -> int:
    """Bit length of the widest integer inside a Rat, PFloat or sequence of them."""
    if isinstance(value, (list, tuple)):
        return max((widest_int(v) for v in value), default=0)
    num = getattr(value, "num", None)
    if num is not None:
        return max(abs(num).bit_length(), value.den.bit_length())
    m = getattr(value, "m", None)
    if m is not None:
        return max(abs(m).bit_length(), abs(value.e).bit_length())
    return 0


class SpanTracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names = [t.name for t in targets]
        self.bits_groups = sorted({t.bits for t in targets if t.bits})
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop spans, totals and widths, keeping the wrappers installed."""
        self._clear_spans()
        self.calls = [0] * len(self.targets)
        self.self_ns = [0] * len(self.targets)
        self.bits_max = {g: 0 for g in self.bits_groups}

    def _clear_spans(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for idx, target in enumerate(self.targets):
            home = sys.modules[f"{PACKAGE}.{target.module}"]
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[attr]
                self._bind(owner, attr, self._wrap(idx, target, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(idx, target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _bind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, idx: int, target: Target, original: Callable) -> Callable:
        clock = time.perf_counter_ns
        group = target.bits

        def traced(*args, **kwargs):
            names, parents, starts, ends, stack = (
                self.span_name,
                self.span_parent,
                self.span_start,
                self.span_end,
                self._stack,
            )
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if group is not None:
                width = widest_int(result)
                if width > self.bits_max[group]:
                    self.bits_max[group] = width
            return result

        traced.__wrapped__ = original
        return traced

    # -- aggregation -----------------------------------------------------

    def fold(self) -> None:
        """Add the recorded (finished) spans to the totals and drop them."""
        count = len(self.span_start)
        starts, ends = self.span_start, self.span_end
        child = array("q", bytes(8 * count))
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += ends[span] - starts[span]
        for span, name in enumerate(self.span_name):
            self.calls[name] += 1
            self.self_ns[name] += ends[span] - starts[span] - child[span]
        self._clear_spans()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target name: span count and summed self time in ms."""
        self.fold()
        return {
            name: {"calls": self.calls[i], "self_ms": self.self_ns[i] / 1e6}
            for i, name in enumerate(self.names)
        }
