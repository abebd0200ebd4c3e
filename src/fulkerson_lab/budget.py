"""Search budgets and three-state search results.

Every expensive search distinguishes "found", "exhaustively absent" and
"budget ran out / cancelled"; the last two must never be conflated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

T = TypeVar("T")

DEFAULT_BUDGET_ENV = "FULKERSON_LAB_BUDGET"
DEFAULT_NODE_BUDGET = 5_000_000


def node_count(text: str) -> int:
    """A node budget written as a non-negative integer; ValueError otherwise."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"expected a non-negative node count, got {text!r}")
    return value


def default_node_budget() -> int:
    """The node count in $FULKERSON_LAB_BUDGET, or five million when it is unset."""
    raw = os.environ.get(DEFAULT_BUDGET_ENV)
    try:
        return DEFAULT_NODE_BUDGET if raw is None else node_count(raw)
    except ValueError as exc:
        raise ValueError(f"${DEFAULT_BUDGET_ENV}: {exc}") from None


class BudgetExhausted(RuntimeError):
    """A search whose answer a caller needs ran out of its node budget."""


@dataclass
class Budget:
    """Cooperative node budget with an optional cancellation callback.

    Searches call spend() once per explored node; a False return means the
    search must unwind and report an incomplete result.  Once the budget is
    exhausted, spend() refuses at once, without asking `cancel` or counting
    the node.  The nodes are the backtracking edge-colouring search's
    nodes, the perfect matchings that `three_edge_coloring` draws (nine
    nodes each, lifts included), its frontier refuter's candidate vertex
    orders, vertex steps and blocks of states expanded (one node each; a
    cancel or an exhausted budget there leaves the colouring unknown,
    never absent), the exact cover's nodes, the candidate vertex orders,
    vertex steps and blocks of states of the exact cover's counting DP,
    in both of its passes (one node each; running out there leaves the
    cover unknown, as does a layer past the DP's state bound), the pair
    queries of the FR-triple walk that `find_fr_triple`,
    `enumerate_fr_triples` and A1A2 share, and the F-family search's
    candidate placements.
    The perfect-matching stream spends no nodes itself: it asks stopped()
    before each blossom search and ends once the budget is exhausted,
    whether by a node search, a cancel or a read past the matching cap.
    A limit of None takes `default_node_budget()`.
    """

    limit: int | None = None
    cancel: Callable[[], bool] | None = None
    spent: int = field(default=0, init=False)
    exhausted: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.limit is None:
            self.limit = default_node_budget()

    def spend(self) -> bool:
        if self.exhausted:
            return False
        self.spent += 1
        if self.spent > self.limit or (self.cancel is not None and self.cancel()):
            self.exhausted = True
            return False
        return True

    def stopped(self) -> bool:
        """True once exhausted; else asks `cancel`, and a True answer exhausts the budget."""
        if not self.exhausted and self.cancel is not None and self.cancel():
            self.exhausted = True
        return self.exhausted


@dataclass(frozen=True)
class SearchResult(Generic[T]):
    """Outcome of a bounded search.

    value is None either because the space was exhausted without a witness
    (complete=True, a proof of absence) or because the budget ran out
    (complete=False, an explicit "unknown").
    """

    value: T | None
    complete: bool

    @property
    def found(self) -> bool:
        return self.value is not None

    @property
    def definitely_absent(self) -> bool:
        return self.value is None and self.complete

    @property
    def unknown(self) -> bool:
        return self.value is None and not self.complete
