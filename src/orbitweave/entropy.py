"""Counting-based entropy machinery.

Separated/spanning counts are exact (branch-and-bound / exact set cover) on
small instances with a flagged greedy fallback; the Katok count is exact on
shifts over any alphabet, because a Bowen d_n-ball of radius 2^-q is precisely
an (n+q)-cylinder and cylinder masses come in classes counted by a
transition-count dynamic program (budget: 2^22 classes, n + q <= 26);
level-set counting enumerates admissible words whose Birkhoff average lies in
the target window.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .measures import LocallyConstantObservable, MarkovMeasure
from .systems import ShiftSpace, State, System, dist_n

__all__ = [
    "EntropyEstimate",
    "LevelSetQuery",
    "SeparationResult",
    "SpanningResult",
    "max_separated",
    "min_spanning",
    "katok_count",
    "katok_entropy",
    "levelset_count",
    "InfeasibleCountError",
]

EXACT_LIMIT = 24  # instances up to this size get exact combinatorial answers


class InfeasibleCountError(ValueError):
    """Requested count exceeds the desk-scale budget."""


@dataclass
class EntropyEstimate:
    value: float | None
    n_used: int
    epsilon: float
    method: str
    diagnostics: list[tuple] = field(default_factory=list)
    empty: bool = False  # tagged empty level set, not a numeric sentinel

    def __post_init__(self):
        if not self.diagnostics and not self.empty:
            raise ValueError("diagnostics must be nonempty")


@dataclass(frozen=True)
class LevelSetQuery:
    observable: LocallyConstantObservable
    lo: float
    hi: float
    n: int
    closed: bool = False

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("malformed interval")
        vlo, vhi = self.observable.value_range
        if self.hi < vlo or self.lo > vhi:
            raise ValueError("interval outside the observable's value range")

    def contains(self, x: float) -> bool:
        if self.closed:
            return self.lo <= x <= self.hi
        return self.lo < x < self.hi


@dataclass
class SeparationResult:
    count: int
    witnesses: list
    exact: bool


@dataclass
class SpanningResult:
    count: int
    centers: list
    exact: bool


def max_separated(system: System, candidates: Sequence[State], n: int,
                  epsilon: float) -> SeparationResult:
    """Largest subset with pairwise d_n >= epsilon.

    Exact (branch-and-bound maximum independent set on the conflict graph)
    for at most EXACT_LIMIT candidates, greedy lower bound with exact=False
    beyond that.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not candidates:
        raise ValueError("candidates must be nonempty")
    m = len(candidates)
    conflict = [0] * m  # bitmask adjacency: d_n < epsilon
    for i in range(m):
        for j in range(i + 1, m):
            if dist_n(system, candidates[i], candidates[j], n) < epsilon:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    if m <= EXACT_LIMIT:
        best = _max_independent_set(conflict, m)
        chosen = [candidates[i] for i in range(m) if best >> i & 1]
        return SeparationResult(len(chosen), chosen, exact=True)
    chosen_idx: list[int] = []
    banned = 0
    for i in range(m):
        if not (banned >> i & 1):
            chosen_idx.append(i)
            banned |= conflict[i]
    return SeparationResult(len(chosen_idx), [candidates[i] for i in chosen_idx],
                            exact=False)


def _max_independent_set(adj: list[int], m: int) -> int:
    full = (1 << m) - 1
    best_mask = 0

    def popcount(x):
        return bin(x).count("1")

    def rec(avail: int, cur: int):
        nonlocal best_mask
        if popcount(cur) + popcount(avail) <= popcount(best_mask):
            return
        if avail == 0:
            if popcount(cur) > popcount(best_mask):
                best_mask = cur
            return
        # branch on the available vertex of highest degree within avail
        pivot = max((i for i in range(m) if avail >> i & 1),
                    key=lambda i: popcount(adj[i] & avail))
        # either exclude pivot ...
        rec(avail & ~(1 << pivot), cur)
        # ... or include it
        rec(avail & ~(1 << pivot) & ~adj[pivot], cur | (1 << pivot))

    rec(full, 0)
    return best_mask


def min_spanning(system: System, targets: Sequence[State], n: int,
                 epsilon: float) -> SpanningResult:
    """Fewest centers among the targets whose strict Bowen balls cover them.

    Exact set cover for at most EXACT_LIMIT targets, greedy otherwise.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m = len(targets)
    if m == 0:
        return SpanningResult(0, [], exact=True)
    covers = [0] * m  # covers[c] = bitmask of targets with d_n(t, c) < epsilon
    for c in range(m):
        for t in range(m):
            if dist_n(system, targets[t], targets[c], n) < epsilon:
                covers[c] |= 1 << t
    full = (1 << m) - 1
    if m <= EXACT_LIMIT:
        chosen = _exact_set_cover(covers, full, m)
        return SpanningResult(len(chosen), [targets[c] for c in chosen], exact=True)
    chosen = _greedy_cover(covers, full, m)
    return SpanningResult(len(chosen), [targets[c] for c in chosen],
                          exact=False)


def _greedy_cover(covers: list[int], full: int, m: int) -> list[int]:
    """Repeatedly the set that covers the most targets still uncovered."""
    chosen, covered = [], 0
    while covered != full:
        c = max(range(m), key=lambda i: bin(covers[i] & ~covered).count("1"))
        chosen.append(c)
        covered |= covers[c]
    return chosen


def _exact_set_cover(covers: list[int], full: int, m: int) -> list[int]:
    best: list[int] | None = None

    def rec(covered: int, chosen: list[int]):
        nonlocal best
        if covered == full:
            if best is None or len(chosen) < len(best):
                best = list(chosen)
            return
        if best is not None and len(chosen) + 1 >= len(best):
            return  # at least one more set is needed
        # branch on the uncovered target with the fewest covering sets
        uncovered = [t for t in range(m) if not (covered >> t & 1)]
        t = min(uncovered, key=lambda t: sum(1 for c in covers if c >> t & 1))
        for c in range(m):
            if covers[c] >> t & 1:
                chosen.append(c)
                rec(covered | covers[c], chosen)
                chosen.pop()

    best = _greedy_cover(covers, full, m)  # seeds the bound
    rec(0, [])
    return best


def _epsilon_to_q(epsilon: float) -> int:
    q = round(-math.log2(epsilon))
    if not (q >= 0 and 2.0 ** (-q) == epsilon):
        raise ValueError("epsilon must be a power of 2 on shifts")
    return q


def _cylinder_mass_classes(shift: ShiftSpace, m: MarkovMeasure, L: int):
    """(mass, multiplicity) classes over all admissible L-cylinders.

    A cylinder's mass is pi[first] times P[a, b] per transition, so it depends
    only on the first symbol and the multiset of transitions.  A dynamic
    program over (first, last, sorted transition indices k*a + b) counts the
    cylinders of each class, polynomially in L on every alphabet.  The budget
    is the class table: InfeasibleCountError once it would pass 2^22 entries.
    """
    k = shift.alphabet_size
    if m.alphabet_size != k:
        raise ValueError("measure alphabet mismatch")
    allowed = [[j for j in range(k) if shift.allowed(i, j) and m.P[i, j] > 0]
               for i in range(k)]
    # state: (first symbol, last symbol, sorted transitions) -> multiplicity;
    # the last symbol follows from the others, so states are the classes
    states: dict[tuple, int] = {}
    for a in range(k):
        if m.pi[a] > 0:
            states[(a, a, ())] = 1
    for _ in range(L - 1):
        nxt: dict[tuple, int] = {}
        for (first, last, edges), mult in states.items():
            for b in allowed[last]:
                e = k * last + b
                i = bisect.bisect_right(edges, e)
                key = (first, b, edges[:i] + (e,) + edges[i:])
                if key in nxt:
                    nxt[key] += mult
                elif len(nxt) < 2 ** 22:
                    nxt[key] = mult
                else:
                    raise InfeasibleCountError(
                        f"more than 2^22 mass classes of {L}-cylinders")
        states = nxt
    classes = []
    for (first, _last, edges), mult in states.items():
        mass = float(m.pi[first])
        for e, run in itertools.groupby(edges):
            mass *= float(m.P[e // k, e % k]) ** len(list(run))
        if mass > 0:
            classes.append((mass, mult))
    return classes


def katok_count(shift: ShiftSpace, m: MarkovMeasure, n: int, epsilon: float,
                delta: float) -> int:
    """Exact minimal number of epsilon-Bowen balls covering mass > 1 - delta.

    On a shift with epsilon = 2^-q the Bowen d_n-balls are (n+q)-cylinders, so
    the optimum is: sort cylinder masses descending, take the shortest prefix
    whose cumulative mass exceeds 1 - delta.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    q = _epsilon_to_q(epsilon)
    L = n + q
    if L > 26:
        raise InfeasibleCountError(f"n + q = {L} > 26")
    classes = sorted(_cylinder_mass_classes(shift, m, L), reverse=True)
    target = 1.0 - delta
    total = 0
    cum = 0.0
    for mass, cnt in classes:
        if cum > target:
            break
        need = math.floor((target - cum) / mass) + 1
        take = min(need, cnt)
        total += take
        cum += take * mass
    if cum <= target:
        raise ArithmeticError("cylinder masses failed to reach 1 - delta")
    return total


def katok_entropy(shift: ShiftSpace, m: MarkovMeasure, epsilon: float,
                  delta: float, n_grid: Sequence[int]) -> EntropyEstimate:
    """Rates (1/n) log katok_count over the grid; the value is the final rate
    (no extrapolation of the liminf), the full sequence stays in diagnostics."""
    grid = list(n_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be nonempty and increasing")
    diags = []
    for n in grid:
        cnt = katok_count(shift, m, n, epsilon, delta)
        diags.append((n, cnt, math.log(cnt) / n))
    return EntropyEstimate(value=diags[-1][2], n_used=grid[-1], epsilon=epsilon,
                           method="katok", diagnostics=diags)


def levelset_count(shift: ShiftSpace, query: LevelSetQuery) -> EntropyEstimate:
    """(1/n) log of the number of admissible n-words whose Birkhoff average of
    the observable lies in the window; empty level sets come back tagged."""
    phi, n, d = query.observable, query.n, query.observable.depth
    if n + d > 26:
        raise InfeasibleCountError(f"n + depth = {n + d} > 26")
    k = shift.alphabet_size
    table = phi.lookup()
    suflen = max(d - 1, 1)
    # DP over (suffix symbols, partial Birkhoff sum); word length n+d-1,
    # a window's contribution is added when its last symbol is placed
    states: dict[tuple, int] = {((), 0.0): 1}
    L = n + d - 1
    for p in range(L):
        nxt: dict[tuple, int] = {}
        for (suf, s), cnt in states.items():
            for b in range(k):
                if suf and not shift.allowed(suf[-1], b):
                    continue
                ext = suf + (b,)
                s2 = round(s + table[ext[-d:]], 10) if p >= d - 1 else s
                key = (ext[-suflen:], s2)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    count = sum(cnt for (_suf, s), cnt in states.items() if query.contains(s / n))
    eps_tag = 0.0
    if count == 0:
        return EntropyEstimate(value=None, n_used=n, epsilon=eps_tag,
                               method="levelset_count", diagnostics=[],
                               empty=True)
    val = math.log(count) / n
    return EntropyEstimate(value=val, n_used=n, epsilon=eps_tag,
                           method="levelset_count",
                           diagnostics=[(n, count, val)])
