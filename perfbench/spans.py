"""In-memory spans around calls into the codec's modules.

A span is a name (``<layer>.<what>``, the layer being the tritcode module
called), start and end times from time.perf_counter, the id of the span
that encloses it, and the input it belongs to. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    input: str
    pass_no: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; use ``with tracer.span(name):``.

    ``input`` and ``pass_no`` label every span opened while they are set.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.input = ""
        self.pass_no = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = Span(len(self.spans), name, 0.0, 0.0,
                 self._open[-1] if self._open else None, self.input, self.pass_no)
        self.spans.append(s)
        self._open.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span], scale: dict[int, float]) -> dict[str, float]:
    """Seconds per layer spent in its own spans, excluding their child spans.

    ``scale`` maps a span id to the factor its duration is multiplied by.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration * scale[s.id]
    out = defaultdict(float)
    for s in spans:
        out[s.layer] += s.duration * scale[s.id] - child_time[s.id]
    return dict(out)


def totals(spans: list[Span], scale: dict[int, float]) -> dict[str, float]:
    """Seconds per span name, summed, each duration multiplied by its scale."""
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration * scale[s.id]
    return dict(out)
