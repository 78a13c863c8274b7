"""Counting-based entropy machinery.

Separated and spanning counts are defined on shifts only, where they are
exact at any size: d_n is an ultrametric there, its strict epsilon-balls are
the classes of a shared prefix, and both counts are the number of classes
among the given points.  Katok and level-set counts are exact on shifts over
any alphabet and word length: one walk counts admissible words of every
requested length by an integer weight summed along the word, and its
TABLE_BUDGET entries are the only limit.  A Bowen d_n-ball of radius 2^-q is
an (n+q)-cylinder, whose mass is fixed by how many of its factors carry each
value of pi and P; a level-set word weighs its Birkhoff sum.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .measures import LocallyConstantObservable, MarkovMeasure
from .systems import ShiftSpace, State, System, _require_shift_state

__all__ = ["EntropyEstimate", "LevelSetQuery", "SeparationResult",
           "SpanningResult", "max_separated", "min_spanning", "katok_count",
           "katok_entropy", "levelset_count", "levelset_counts_at",
           "InfeasibleCountError"]

TABLE_BUDGET = 2 ** 22  # entries of a walk-count table


class InfeasibleCountError(ValueError):
    """Requested count exceeds the desk-scale budget."""


@dataclass
class EntropyEstimate:
    value: float | None
    diagnostics: list[tuple] = field(default_factory=list)
    empty: bool = False  # tagged empty level set, not a numeric sentinel

    def __post_init__(self):
        if not self.diagnostics and not self.empty:
            raise ValueError("diagnostics must be nonempty")


@dataclass(frozen=True)
class LevelSetQuery:
    observable: LocallyConstantObservable
    lo: float | Fraction
    hi: float | Fraction
    n: int
    closed: bool = False

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("malformed interval")
        vlo, vhi = self.observable.value_range
        if self.hi < vlo or self.lo > vhi:
            raise ValueError("interval outside the observable's value range")


@dataclass
class SeparationResult:
    count: int
    witnesses: list


@dataclass
class SpanningResult:
    count: int
    centers: list


def _bowen_classes(system: System, points: Sequence[State], n: int,
                   epsilon: float) -> list:
    """First point of each class of "d_n < epsilon", in input order.

    On a shift d_n is a max of ultrametrics, hence an ultrametric, so
    "d_n < epsilon" is an equivalence relation.  Points first differing at
    index m >= n - 1 are 2^-(m - n + 1) apart, so for epsilon <= 1 a class
    is a shared L-prefix, L = n - 1 + M with M the least integer >= 1 such
    that 2^-M < epsilon.  As d_n <= 1, epsilon > 1 gives one class (L = 0).
    """
    if not isinstance(system, ShiftSpace):
        raise ValueError("separated and spanning counts need a shift")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    M = 1
    while 2.0 ** -M >= epsilon:
        M += 1
    L = n - 1 + M if epsilon <= 1 else 0
    firsts: dict[tuple[int, ...], State] = {}
    for x in points:
        _require_shift_state(system, x)
        firsts.setdefault(x.prefix(L), x)
    return list(firsts.values())


def max_separated(system: System, candidates: Sequence[State], n: int,
                  epsilon: float) -> SeparationResult:
    """Largest subset with pairwise d_n >= epsilon, exact at any size: a
    separated set holds at most one point per d_n-class, and one point from
    each class is separated."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    chosen = _bowen_classes(system, candidates, n, epsilon)
    return SeparationResult(len(chosen), chosen)


def min_spanning(system: System, targets: Sequence[State], n: int,
                 epsilon: float) -> SpanningResult:
    """Fewest centers among the targets whose strict Bowen balls cover them,
    exact at any size: a ball is one d_n-class, so every class needs its own
    center and one center per class covers all."""
    chosen = _bowen_classes(system, targets, n, epsilon)
    return SpanningResult(len(chosen), chosen)


def _epsilon_to_q(epsilon: float) -> int:
    q = round(-math.log2(epsilon))
    if not (q >= 0 and 2.0 ** (-q) == epsilon):
        raise ValueError("epsilon must be a power of 2 on shifts")
    return q


def _over_common_denominator(values):
    """({x: integer}, scale), x = integer / scale, each float read as its
    shortest decimal (a config's 0.3 is 3/10): 0.64 + 0.16 = 1 - 0.2 holds."""
    exact = {x: Fraction(str(x)) for x in values}
    scale = math.lcm(*(r.denominator for r in exact.values()))
    return {x: int(r * scale) for x, r in exact.items()}, scale


def _walk_counts(Ls: list[int], start: dict, step: dict) -> list[dict]:
    """{weight: count} per length L of the increasing Ls, of the L-words that
    start with an s-word keyed in `start` and whose (s+1)-windows are all
    keyed in `step`; a word weighs start[its first s symbols] plus step[w]
    per window w.  One walk to max(Ls) extends a {weight: count} table per
    vertex (the last s symbols) along each edge by the edge's weight;
    InfeasibleCountError past TABLE_BUDGET entries over all tables."""
    edges = defaultdict(list)
    for w, inc in step.items():
        edges[w[:-1]].append((w[1:], inc))
    s = len(next(iter(start), ()))
    tables, snapshots = {u: {weight: 1} for u, weight in start.items()}, []
    for length in range(s, Ls[-1] + 1):
        if length > s:
            nxt, size = {}, 0  # the size only grows: one check per edge
            for u, table in tables.items():
                for v, inc in edges[u]:
                    row = nxt.setdefault(v, {})
                    size -= len(row)
                    for w, c in table.items():
                        row[w + inc] = row.get(w + inc, 0) + c
                    if (size := size + len(row)) > TABLE_BUDGET:
                        raise InfeasibleCountError(
                            f"more than {TABLE_BUDGET} table entries for "
                            f"{Ls[-1]}-words")
            tables = nxt
        if length in Ls:
            snapshots.append(sum(map(Counter, tables.values()), Counter()))
    return snapshots


def _cylinder_mass_classes(shift: ShiftSpace, m: MarkovMeasure, Ls: list):
    """[(classes, unit)] per length L of the increasing Ls: the (mass,
    multiplicity) classes of all admissible L-cylinders, masses as integers
    over the unit.  A mass is a product of L factors, pi[first] and P[a, b]
    per transition, so it is fixed by how many factors carry each distinct
    positive value of pi and P together.  One walk to max(Ls) weights the
    first symbol and each transition by R^g, g the index of its value and
    R = max(Ls) + 1: one value fills at most L < R factors, so each weight
    is one class whose radix-R digits give its mass."""
    k = shift.alphabet_size
    if m.alphabet_size != k:
        raise ValueError("measure alphabet mismatch")
    P, pi = m.P.tolist(), m.pi.tolist()
    edges = [(a, b) for a, b in shift.admissible_words(2) if P[a][b] > 0]
    values = sorted({p for p in pi if p > 0} | {P[a][b] for a, b in edges})
    R = Ls[-1] + 1
    walks = _walk_counts(
        Ls, {(a,): R ** values.index(pi[a]) for a in range(k) if pi[a] > 0},
        {(a, b): R ** values.index(P[a][b]) for a, b in edges})
    num, scale = _over_common_denominator(values)
    return [([(math.prod(num[v] ** (w // R ** g % R)
                         for g, v in enumerate(values)), mult)
              for w, mult in classes.items()], scale ** L)
            for L, classes in zip(Ls, walks)]


def _katok_counts(shift: ShiftSpace, m: MarkovMeasure, ns: Sequence[int],
                  epsilon: float, delta: float) -> list[int]:
    """katok_count at each n of the increasing ns, from one walk."""
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    q = _epsilon_to_q(epsilon)
    if not (type(ns[0]) is int and ns[0] >= 0 and ns[0] + q >= 1):
        raise ValueError(f"n must be >= 0 and n + q >= 1 with n an integer; "
                         f"got {ns[0]!r}, q={q}")
    counts = []
    for classes, unit in _cylinder_mass_classes(shift, m, [n + q for n in ns]):
        # cum is an integer, so cum > target iff cum / unit > 1 - delta
        target = math.floor((1 - Fraction(str(delta))) * unit)
        total = cum = 0
        for mass, cnt in sorted(classes, reverse=True):
            if cum > target:
                break
            take = min((target - cum) // mass + 1, cnt)
            total, cum = total + take, cum + take * mass
        if cum <= target:
            raise ArithmeticError("cylinder masses failed to reach 1 - delta")
        counts.append(total)
    return counts


def katok_count(shift: ShiftSpace, m: MarkovMeasure, n: int, epsilon: float,
                delta: float) -> int:
    """Exact minimal number of epsilon-Bowen balls covering mass > 1 - delta.

    On a shift with epsilon = 2^-q the Bowen d_n-balls are (n+q)-cylinders, so
    the optimum is: sort cylinder masses descending, take the shortest prefix
    whose cumulative mass exceeds 1 - delta; in exact rational arithmetic on
    the decimals of pi, P and delta.
    """
    return _katok_counts(shift, m, [n], epsilon, delta)[0]


def katok_entropy(shift: ShiftSpace, m: MarkovMeasure, epsilon: float,
                  delta: float, n_grid: Sequence[int]) -> EntropyEstimate:
    """Rates (1/n) log katok_count over the grid, all from one walk; the value
    is the final rate (no extrapolation of the liminf), all are diagnostics."""
    grid = list(n_grid)
    if not (grid and all(type(n) is int for n in grid)
            and grid == sorted(set(grid)) and grid[0] >= 1):
        raise ValueError(f"n_grid must be nonempty, increasing and >= 1, "
                         f"each an integer; got {grid}")
    diags = [(n, cnt, math.log(cnt) / n) for n, cnt in
             zip(grid, _katok_counts(shift, m, grid, epsilon, delta))]
    return EntropyEstimate(value=diags[-1][2], diagnostics=diags)


def _birkhoff_sums(shift: ShiftSpace, phi: LocallyConstantObservable,
                   n: int) -> tuple[dict[int, int], int]:
    """({S: count}, D): the admissible (n + d - 1)-words, which have n
    d-windows, by Birkhoff sum S / D, D the common decimal denominator of
    phi's values.  With s = max(d - 1, 1) the walk adds phi of each
    (s+1)-window's last d symbols, and of the first symbol when d = 1."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1; got {n!r}")
    table, d = phi.lookup(), phi.depth
    num, scale = _over_common_denominator(table.values())
    s = max(d - 1, 1)
    [sums] = _walk_counts(
        [n + d - 1],
        {w: num[table[w]] if d == 1 else 0 for w in shift.admissible_words(s)},
        {w: num[table[w[-d:]]] for w in shift.admissible_words(s + 1)})
    return sums, scale


def levelset_count(shift: ShiftSpace, query: LevelSetQuery) -> EntropyEstimate:
    """(1/n) log of the number of admissible n-words whose Birkhoff average of
    the observable lies in the window, tested exactly on integer sums over
    one denominator; empty level sets come back tagged."""
    n = query.n
    sums, scale = _birkhoff_sums(shift, query.observable, n)
    lo, hi = (Fraction(str(x)) * n * scale for x in (query.lo, query.hi))
    return _levelset_rate(n, sum(
        cnt for S, cnt in sums.items()
        if (lo <= S <= hi if query.closed else lo < S < hi)))


def levelset_counts_at(shift: ShiftSpace, phi: LocallyConstantObservable,
                       alphas: Sequence[float],
                       n: int) -> list[EntropyEstimate]:
    """The level-set rate at the attainable average nearest each alpha, every
    alpha read from one walk.  The sums are integers S over D, so the
    averages lie on the 1/(nD) grid; alpha takes the words with
    S = round(alpha n D) only, the open window ((2S - 1) / 2nD,
    (2S + 1) / 2nD) of `levelset_count`, which isolates one attainable
    average.  An average no word attains comes back tagged empty."""
    sums, scale = _birkhoff_sums(shift, phi, n)
    return [_levelset_rate(n, sums.get(S, 0))
            for S in (round(alpha * n * scale) for alpha in alphas)]


def _levelset_rate(n: int, count: int) -> EntropyEstimate:
    """(1/n) log count as a level-set estimate, tagged empty at count 0."""
    if count == 0:
        return EntropyEstimate(value=None, empty=True)
    val = math.log(count) / n
    return EntropyEstimate(value=val, diagnostics=[(n, count, val)])
