"""Spans around the library's public functions, recorded from outside it.

The tracer replaces each traced function in every `fulkerson_lab.*` module
namespace that binds it (the modules use from-imports, so patching only the
defining module would miss most calls), records one span per call in
memory, and puts the originals back on `uninstall`.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "fulkerson_lab"

# (defining module, function) pairs; the span name is "<layer>.<function>".
TRACED = (
    ("matchcolor", "enumerate_perfect_matchings"),
    ("matchcolor", "find_perfect_matching"),
    ("matchcolor", "three_edge_coloring"),
    ("matchcolor", "split_and_suppress"),
    ("matchcolor", "five_edge_coloring"),
    ("fulkerson", "find_fulkerson_covering"),
    ("fulkerson", "enumerate_fulkerson_coverings"),
    ("fulkerson", "find_fr_triple"),
    ("fulkerson", "fr_triple_from_matchings"),
    ("fulkerson", "verify_covering"),
    ("ffamily", "find_ffamily"),
    ("ffamily", "enumerate_ffamilies"),
    ("ffamily", "verify_ffamily"),
    ("ffamily", "dot_preserve_type1"),
    ("ffamily", "dot_preserve_type2"),
    ("ffamily", "covering_from_ffamily"),
    ("graph_core", "cyclic_edge_connectivity_at_least"),
    ("graph_core", "is_bridgeless"),
    ("generators", "dot_product"),
    ("generators", "petersen"),
    ("generators", "flower_snark"),
    ("generators", "goldberg"),
    ("generators", "doubled_matching_cycle"),
    ("cli", "parse_graph_file"),
    ("cli", "parse_certificate"),
    ("cli", "write_graph_file"),
    ("cli", "write_certificate"),
)

# What a span keeps of its function's return value, for the layer counts.
_SUMMARIES = {
    "matchcolor.enumerate_perfect_matchings": lambda r: (len(r), int(r.truncated)),
    "matchcolor.three_edge_coloring": lambda r: r is not None,
}


@dataclass
class Span:
    name: str
    phase: str  # "setup" or "pass<k>"
    job: str
    parent: int  # index of the enclosing span, -1 for a job span
    start: float
    end: float | None = None
    nodes: int | None = None  # Budget.spent delta, when a Budget argument was passed
    returned: bool = False
    summary: object = None

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


class Tracer:
    """In-memory span recorder; `spans` is written out by the caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._phase = ""
        self._job = ""
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- jobs -----------------------------------------------------------
    def begin_job(self, phase: str, job: str) -> None:
        self._phase = phase
        self._job = job
        self._stack = [self._open("job", -1)]

    def end_job(self) -> None:
        # A deadline can interrupt a wrapper between its bookkeeping steps;
        # closing the job span here keeps such leftovers out of the next job.
        if self._stack:
            self.spans[self._stack[0]].end = time.perf_counter()
        self._stack = []

    def _open(self, name: str, parent: int) -> int:
        self.spans.append(Span(name, self._phase, self._job, parent, time.perf_counter()))
        return len(self.spans) - 1

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        from fulkerson_lab.budget import Budget

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.missing = []
        for module_name, fn_name in TRACED:
            defining = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(defining, fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, Budget)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name: str, fn, budget_type):
        summarize = _SUMMARIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            budget = next((a for a in (*args, *kwargs.values())
                           if isinstance(a, budget_type)), None)
            before = budget.spent if budget is not None else 0
            idx = self._open(name, self._stack[-1] if self._stack else -1)
            span = self.spans[idx]
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                span.returned = True
                if summarize is not None:
                    span.summary = summarize(result)
                return result
            finally:
                span.end = time.perf_counter()
                if budget is not None:
                    span.nodes = budget.spent - before
                while self._stack and self._stack.pop() != idx:
                    pass

        return wrapper


@dataclass
class Agg:
    calls: int = 0
    returned: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    nodes: int = 0
    self_nodes: int = 0
    budget_s: float = 0.0  # time of the calls whose node count is known
    summaries: list = field(default_factory=list)


def aggregate(spans: list[Span], phases: set[str]) -> dict[str, Agg]:
    """Per span name, over the spans of the given phases: calls, total and
    self time, nodes and self nodes.

    Self time is a span's duration minus the durations of its direct
    children; self nodes likewise subtract the children's node counts.
    """
    child_s = [0.0] * len(spans)
    child_nodes = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.duration
            if s.nodes is not None:
                child_nodes[s.parent] += s.nodes
    by_name: dict[str, Agg] = {}
    for i, s in enumerate(spans):
        if s.phase not in phases:
            continue
        a = by_name.setdefault(s.name, Agg())
        a.calls += 1
        a.returned += int(s.returned)
        a.total_s += s.duration
        a.self_s += s.duration - child_s[i]
        if s.nodes is not None:
            a.nodes += s.nodes
            a.self_nodes += s.nodes - child_nodes[i]
            a.budget_s += s.duration
        if s.summary is not None:
            a.summaries.append(s.summary)
    return by_name
