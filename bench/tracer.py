"""Spans around calls into mdtube's layers, recorded from outside the program.

A ``Tracer`` replaces public functions of the program, at the module or
class attribute through which their callers look them up, by wrappers that
record one span per call: name, start, end and the index of the span that
was open when the call began (its parent). Spans stay in memory; the caller
writes them out when the run ends. The originals are put back on ``close``.

A span's self time is its duration minus the durations of its children.
Children of one span run one after another, so their durations never add
up to more than the parent's; ``nesting_errors`` checks exactly that.
"""

from __future__ import annotations

import json
import time

#: tolerance for float rounding when child durations are summed
_NESTING_SLACK_S = 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []    # patch targets the program lacks
        self.observe_s = [0.0]          # time spent in observe callbacks
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str, observe=None,
             required: bool = False) -> None:
        """Record a span named ``name`` for every call of ``owner.attr``.

        ``observe(span_index, args, result, exc)`` runs after the span has
        closed, to record counts; ``exc`` is the exception the call raised,
        or None. A missing attribute is an error when ``required`` and is
        otherwise listed in ``missing``.
        """
        original = getattr(owner, attr, None)
        if original is None:
            if required:
                raise AttributeError(f"{owner.__name__}.{attr} not found")
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, stack, observe_s = self.spans, self._open, self.observe_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(index, args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(index, args, result, None)
                observe_s[0] += clock() - span[2]
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- analysis ----------------------------------------------------------

    def parent_name(self, index: int) -> str | None:
        parent = self.spans[index][3]
        return self.spans[parent][0] if parent >= 0 else None

    def has_ancestor(self, index: int, names) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def child_time(self) -> list[float]:
        """Summed duration of each span's direct children."""
        out = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] += end - start
        return out

    def self_time(self) -> list[float]:
        children = self.child_time()
        return [end - start - c
                for (_, start, end, _), c in zip(self.spans, children)]

    def nesting_errors(self) -> list[str]:
        """Spans whose children leave their interval or outlast them."""
        errors = []
        children = self.child_time()
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {i} {name} ends before it starts")
            if children[i] > end - start + _NESTING_SLACK_S:
                errors.append(f"span {i} {name}: children take "
                              f"{children[i]:.6f} s of {end - start:.6f} s")
            if parent >= 0:
                p_start, p_end = self.spans[parent][1:3]
                if start < p_start or end > p_end:
                    errors.append(f"span {i} {name} leaves its parent "
                                  f"{parent} {self.spans[parent][0]}")
        return errors

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"names": names,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[code[n], round(s - t0, 9), round(e - t0, 9), p]
                          for n, s, e, p in self.spans],
                "counts": self.counts}


def span_cost_s(samples: int = 20_000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""

    class Probe:
        @staticmethod
        def noop():
            return None

    clock = time.perf_counter
    plain = Probe.noop
    t0 = clock()
    for _ in range(samples):
        plain()
    t_plain = clock() - t0
    with Tracer() as tracer:
        tracer.wrap(Probe, "noop", "probe")
        traced = Probe.noop
        t0 = clock()
        for _ in range(samples):
            traced()
        t_traced = clock() - t0
    return max(t_traced - t_plain, 0.0) / samples


def write_trace(path, rounds: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"rounds": rounds}, fh, separators=(",", ":"))
