"""In-memory span recorder for the benchmark's outside-in trace.

The recorder wraps public functions of the program from the outside:
each call becomes a span with a name, start, end, parent span and run
id. Wrappers pass arguments and return values through untouched, so a
traced run computes exactly what an untraced one does. Observer hooks
read arguments and results to count work; their time is recorded as a
span of its own so it never inflates a program layer's self time.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

OBSERVE = "perfbench.observe"


@dataclass(frozen=True)
class Target:
    """``owner.attr`` recorded as ``name``; hooks run around each call.

    ``before(recorder, args, kwargs)`` runs before the call and
    ``after(recorder, args, kwargs, result)`` after it returns.
    """

    owner: object
    attr: str
    name: str
    before: Callable | None = None
    after: Callable | None = None


class SpanRecorder:
    """Spans as ``[name_id, start, end, parent_index, run_index]`` rows.

    Counters are kept per run, like spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.run_ids: list[str] = []
        self.spans: list[list] = []
        self.counters: list[dict] = []
        self._open: list[int] = []

    def begin_run(self, run_id: str) -> int:
        """Tag every span opened from now on with ``run_id``."""
        self.run_ids.append(run_id)
        self.counters.append({})
        return len(self.run_ids) - 1

    def count(self, name: str, value: float = 1) -> None:
        run = self.counters[-1]
        run[name] = run.get(name, 0) + value

    def total(self, name: str) -> float:
        """``name`` summed over every run."""
        return sum(run.get(name, 0) for run in self.counters)

    def open_names(self) -> list[str]:
        """Names of the spans currently open, outermost first."""
        return [self.names[self.spans[i][0]] for i in self._open]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        row = [self._name_id(name), 0.0, 0.0, parent, len(self.run_ids) - 1]
        self.spans.append(row)
        self._open.append(idx)
        row[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, target: Target):
        fn = target.owner.__dict__[target.attr]
        unwrapped = fn.__func__ if isinstance(fn, classmethod) else fn

        @functools.wraps(unwrapped)
        def traced(*args, **kwargs):
            if target.before is not None:
                self.call(OBSERVE, target.before, self, args, kwargs)
            result = self.call(target.name, unwrapped, *args, **kwargs)
            if target.after is not None:
                self.call(OBSERVE, target.after, self, args, kwargs, result)
            return result

        return classmethod(traced) if isinstance(fn, classmethod) else traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "run"],
                    "names": self.names,
                    "run_ids": self.run_ids,
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )


@contextmanager
def instrument(recorder: SpanRecorder, targets):
    """Install wrappers for ``targets``; restore the originals on exit."""
    saved = []
    try:
        for target in targets:
            if target.attr not in target.owner.__dict__:
                raise AttributeError(f"{target.owner!r} does not define {target.attr}")
            original = target.owner.__dict__[target.attr]
            saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, recorder.wrap(target))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for row in spans:
        children.setdefault(row[3], []).append((row[1], row[2]))
    out = []
    for idx, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(recorder: SpanRecorder) -> dict:
    """``{name: {"calls", "s", "self_s"}}`` over every recorded span."""
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in recorder.names}
    for row, own in zip(recorder.spans, self_times(recorder.spans)):
        agg = out[recorder.names[row[0]]]
        agg["calls"] += 1
        agg["s"] += row[2] - row[1]
        agg["self_s"] += own
    return out
