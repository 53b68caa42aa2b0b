"""Analytical lower bounds on all-to-all completion time.

The degree bound places every destination on an ideal out-degree-d
arborescence and charges each shard its tree depth; the graph bound charges
each commodity its BFS distance against total installed capacity.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Digraph, GraphError, _strong_hops

__all__ = [
    "BoundReport",
    "tree_distance_sum",
    "alltoall_time_lower_bound",
    "graph_distance_bound",
    "full_tree_distance_sum_closed",
    "bound_report",
]


@dataclass(frozen=True)
class BoundReport:
    n: int
    d: int
    tau: int                 # distance sum over the ideal arborescence
    time_lb: float           # lower bound on 1/F
    f_ub_tree: float         # d / tau
    f_ub_degree: float       # d / (n - 1)

    def as_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "tau": self.tau,
                "time_lb": self.time_lb, "f_ub_tree": self.f_ub_tree,
                "f_ub_degree": self.f_ub_degree}


def tree_distance_sum(d: int, n: int) -> int:
    """Sum of depths in the ideal arborescence on n nodes with out-degree d.

    Level i holds min(d^i, remaining) nodes at depth i; the last level may be
    partial.
    """
    if n < 2 or d < 1:
        raise GraphError("need n >= 2 and d >= 1")
    total = 0
    remaining = n
    level = 0
    width = 1
    while remaining > 0:
        take = min(width, remaining)
        total += level * take
        remaining -= take
        level += 1
        if d > 1:
            width *= d
        # d == 1 keeps width 1: the tree degenerates to a path
    return total


def full_tree_distance_sum_closed(d: int, k: int) -> int:
    """Closed form of the depth sum for a complete d-ary tree with k levels.

    Equals tree_distance_sum(d, (d^k - 1) / (d - 1)); requires d >= 2, k >= 1.
    """
    if d < 2 or k < 1:
        raise GraphError("need d >= 2 and k >= 1")
    num = d ** (k + 1) * (k - 1) - d ** k * k + d
    den = (d - 1) ** 2
    assert num % den == 0
    return num // den


def alltoall_time_lower_bound(d: int, n: int) -> float:
    """Lower bound on 1/F for any out-degree-d topology on n nodes."""
    return tree_distance_sum(d, n) / d


def graph_distance_bound(g: Digraph) -> float:
    """Distance-weighted bound: 1/F >= sum of pairwise distances / total capacity."""
    return float(_strong_hops(g).sum()) / sum(g.capacities)


def bound_report(d: int, n: int) -> BoundReport:
    tau = tree_distance_sum(d, n)
    return BoundReport(n=n, d=d, tau=tau, time_lb=tau / d,
                       f_ub_tree=d / tau, f_ub_degree=d / (n - 1))
