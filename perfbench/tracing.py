"""Spans around the benchmark's calls into fsub.

Every call the benchmark makes into a layer goes through a caller with the
signature `call(layer, fn, *args, **kwargs)`.  The untraced run uses `direct`,
which only forwards the call; the traced run uses `Tracer.call`, which also
records a span.  Spans stay in memory and are written once, at the end.

A span is `(name, start, end, parent)`.  Operation spans have parent -1 and a
name `<phase>:<label>`; layer spans name their layer and point at the
operation span that was open when they ran.  Phases are `setup` (building the
inputs), `op` (a timed operation), `probe` (a crash probe in `deep`) and
`validate` (the untimed input-validation measurement in `metatheory`).
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

LAYERS = (
    "parser.parse",
    "parser.print",
    "judgments.scope",
    "subtyper.decide",
    "subtyper.check",
    "subtyper.to_json",
    "subtyper.from_json",
    "subtyper.declarative",
    "metatheory.trans",
    "metatheory.narrow",
    "metatheory.weaken",
    "metatheory.permute",
    "metatheory.refl",
    "gen.corpus",
    "gen.enumerate",
)


def direct(layer, fn, *args, **kwargs):
    """Untraced caller: the same call sites as `Tracer.call`, with no span."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open = -1

    def call(self, layer, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((layer, start, perf_counter(), self._open))

    def begin(self) -> int:
        """Open an operation span; layer calls until `end` become its children."""
        self._open = len(self.spans)
        self.spans.append(None)
        return self._open

    def end(self, span: int, name: str, start: float, end: float) -> None:
        self.spans[span] = (name, start, end, -1)
        self._open = -1

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part its child spans cover.  Children of
    one operation run one after another, so their durations add up."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_stats(spans: list, phase: str, passes: int) -> dict[str, dict[str, float]]:
    """Per layer: calls and busy/self seconds per pass, and median call time,
    over the layer spans whose operation belongs to `phase`."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0 or not spans[parent][0].startswith(phase + ":"):
            continue
        durations.setdefault(name, []).append(end - start)
        self_sum[name] = self_sum.get(name, 0.0) + selfs[i]
    stats = {}
    for name, values in durations.items():
        stats[name] = {
            "calls": len(values) / passes,
            "busy_s": sum(values) / passes,
            "self_s": self_sum[name] / passes,
            "p50_us": statistics.median(values) * 1e6,
        }
    return stats


def op_self_seconds(spans: list, phase: str, passes: int) -> float:
    """Benchmark glue per pass: time inside operation spans not covered by a
    layer span."""
    selfs = self_times(spans)
    total = sum(s for s, span in zip(selfs, spans) if span[3] < 0 and span[0].startswith(phase + ":"))
    return total / passes


def per_op_layer_medians(spans: list, phase: str) -> dict[tuple[str, str], float]:
    """Median duration of each (operation label, layer) pair over the passes."""
    groups: dict[tuple[str, str], list[float]] = {}
    for name, start, end, parent in spans:
        if parent < 0:
            continue
        op = spans[parent][0]
        if op.startswith(phase + ":"):
            groups.setdefault((op[len(phase) + 1 :], name), []).append(end - start)
    return {key: statistics.median(values) for key, values in groups.items()}


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
