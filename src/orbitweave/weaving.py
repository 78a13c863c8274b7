"""Orbit weaving: schedule integers, typical-block selection with return
times, transitive connectors, segment splicing, and the shadowed point whose
empirical measures track a prescribed target.

The infinite nested construction is truncated at a finite level; the
truncation level, the orbit-length cap, and the achieved empirical distance
are all reported rather than hidden.  Partition cells are depth-1 cylinders,
so the pseudo-orbit jumps stay below 1/2 and the symbolic splice shadows them
within 1/4.  On a shift the woven orbit is one int8 array.  The schedule lays
it out once (`WeaveSchedule.layout`): every segment's fill positions and end,
the convergence grid and each position's grid segment.  A splice, and so a
repick of one slot, pays only for the gather of the picked blocks, the fill
(one fancy index per family), the check of the segment ends up to the first
mismatching column, and one distance table: one bincount and two cumulative
sums count every cylinder at every grid point, against a leaf table built
once per test-function family.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .measures import MarkovMeasure, TestFunctionFamily, convex_decompose
from .shadowing import (AUDIT_DEPTH, PseudoOrbitViolation, canonical_cycle,
                        continue_words, make_rng, steering_word,
                        symbol_continuation)
from .systems import ShiftSpace, Word

__all__ = [
    "BlockFamily",
    "WeaveSchedule",
    "WeaveOutcome",
    "select_blocks",
    "connector",
    "build_schedule",
    "concatenate",
    "weave_point",
    "separation_audit",
    "run_weave",
    "BlockSearchError",
]

DELTA_PRIME = 0.5       # depth-1 partition cells have diameter 1/2
DEFAULT_LENGTH_CAP = 10 ** 6


class BlockSearchError(RuntimeError):
    def __init__(self, msg, attempts, accepted):
        super().__init__(msg)
        self.attempts = attempts
        self.accepted = accepted


@dataclass
class BlockFamily:
    """Separated family of typical words with a common return time and cell.

    `blocks` is an int8 matrix, one sampled word per row (longer than n so
    empirical windows and the separation prefix are supported); each row
    satisfies: return to its depth-1 cell at step exactly n, and empirical
    distance to the measure < 1/k on every tested window length.  Row r of
    `continuation`, int8 (blocks, AUDIT_DEPTH - 1) made once per family, is
    what follows the first n symbols of block r in its state: the rest of
    the block, then the canonical cycle through its last symbol.
    """

    measure: MarkovMeasure
    shift: ShiftSpace
    n: int
    cell: int
    blocks: np.ndarray
    acceptance_rate: float
    continuation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not len(self.blocks):
            raise ValueError("empty block family")
        self.continuation = continue_words(
            self.shift, self.blocks, self.n + AUDIT_DEPTH - 1)[:, self.n:]


def _segments(bounds):  # position p lies in the first s with p < bounds[s]
    return np.repeat(np.arange(len(bounds)), np.diff(bounds, prepend=0))


@functools.cache
def _leaf_table(k: int, depth: int, words: tuple) -> tuple:
    """(rank, runs, leaves): rank[c] is the sorted index of the leaf (longest
    listed prefix) of the depth-word of base-k code c, and listed word i
    owns the sorted leaves runs[i][0] <= u < runs[i][1]."""
    listed = set(words)
    leaf = [next((w[:d] for d in range(depth, 0, -1) if w[:d] in listed), ())
            for w in np.ndindex((k,) * depth)]
    leaves = sorted(set(leaf))
    rank = np.array([bisect.bisect_left(leaves, u) for u in leaf])
    rank.flags.writeable = False
    return rank, tuple(tuple(bisect.bisect_left(leaves, w + e)
                             for e in ((), (k,))) for w in words), len(leaves)


def _cylinder_distances(symbols, ms, measure, family: TestFunctionFamily,
                        segment: np.ndarray | None = None) -> np.ndarray:
    """Weak* distance between the m-window empirical measure of a symbol
    sequence and a Markov/mixture measure, for every window length m in ms,
    via exact cylinder frequencies: the m-window frequency of a cylinder
    counts its occurrences starting at positions 0..m-1.  Leading axes of
    `symbols` are batch axes: a (B, L) matrix gives a (B, len(ms)) array,
    each row equal to the call on that row alone.  One bincount counts each
    position's leaf per (row, segment), the segments ending at the sorted ms
    (a given `segment` is `_segments(ms)`, ms sorted and distinct); summed
    over segments, then leaves, below[u] counts the leaves < u, and the run
    lo <= u < hi of a cylinder's leaves has below[hi] - below[lo] hits."""
    sym = np.asarray(symbols, dtype=np.int8)
    ms = np.asarray(ms, dtype=np.int64)
    k, depth, L = family.alphabet_size, family.max_depth, sym.shape[-1]
    top = int(ms.max())
    if top + depth - 1 > L or sym.size and not 0 <= sym.min() <= sym.max() < k:
        raise ValueError("word too short, or a symbol outside the alphabet")
    rank, runs, n = _leaf_table(
        k, depth, tuple(phi.word for phi in family.functions))
    bounds, where = np.unique(ms, return_inverse=True) if segment is None \
        else (ms, slice(None))
    segment = _segments(bounds) if segment is None else segment
    B, S = math.prod(sym.shape[:-1]), len(bounds)
    code = np.zeros((B, top), dtype=np.min_scalar_type(-k ** depth))
    for d in range(depth):  # base-k code of the deepest word at each position
        code = code * k + sym.reshape(B, L)[:, d:d + top]
    # (leaf, row, segment): take gathers fast from a table of the least
    # dtype, widened once into the one point-sized intp array
    bins = np.take((rank * (B * S)).astype(np.min_scalar_type(-n * B * S)),
                   code).astype(np.intp)
    del code
    bins += segment
    if B > 1:
        bins += S * np.arange(B)[:, None]
    hits = np.bincount(bins.ravel(), minlength=n * B * S).reshape(n, B, S)
    del bins  # before the count tables
    np.cumsum(hits, axis=2, out=hits)
    below = np.zeros((n + 1, B, S), dtype=np.int64)
    for u in range(n):  # one add per leaf plane, where a cumsum is far slower
        np.add(below[u], hits[u], out=below[u + 1])
    total = np.zeros((B, S))
    for i, (phi, (lo, hi)) in enumerate(zip(family.functions, runs), start=1):
        total += np.abs((below[hi] - below[lo]) / bounds
                        - measure.cylinder_mass(phi.word)) / 2.0 ** (i + 1)
    return total[:, where].reshape(sym.shape[:-1] + ms.shape)


def _distance_cap(measure, family: TestFunctionFamily) -> float:
    """The most `_cylinder_distances` can return against the measure: a
    frequency f lies in [0, 1], so fl(f - mu) lies in [-mu, fl(1 - mu)], and
    each term, then each rounded partial sum in the kernel's order, is at
    most the one here."""
    total = 0.0
    for i, phi in enumerate(family.functions, start=1):
        mu = measure.cylinder_mass(phi.word)
        total += max(mu, abs(1.0 - mu)) / 2.0 ** (i + 1)
    return total


def word_empirical_distance(word: Sequence[int], m: int,
                            measure, family: TestFunctionFamily) -> float:
    """`_cylinder_distances` of one finite word at one window length m."""
    return float(_cylinder_distances(word, [m], measure, family)[0])


def select_blocks(shift: ShiftSpace, measure: MarkovMeasure, n: int,
                  epsilon: float, k: int, gamma: float, budget: int, seed: int,
                  family: TestFunctionFamily) -> BlockFamily:
    """Monte-Carlo block selection from the measure, rejecting words that miss
    the return-window or empirical-closeness conditions, then pruning to a
    separated family within the most popular cell and return time."""
    if not (0 < gamma < 1):
        raise ValueError("gamma must be in (0, 1)")
    window = [q for q in range(n, int(math.floor((1 + gamma) * n)) + 1)]
    if not window:
        raise ValueError("return window [n, (1+gamma)n] contains no integer")
    q_extra = max(1, round(-math.log2(epsilon)))
    depth = family.max_depth
    block_len = window[-1] + q_extra + depth
    ms = np.arange(n, block_len - depth + 2)
    W = measure.sample_words(budget, block_len, make_rng(seed))
    returns = W[:, window] == W[:, :1]  # returns[r, i]: word r back at window[i]
    ok = returns.any(axis=1)
    if _distance_cap(measure, family) >= 1.0 / k:  # else every word passes
        ok[ok] = np.all(_cylinder_distances(W[ok], ms, measure, family)
                        < 1.0 / k, axis=1)
    if not ok.any():
        raise BlockSearchError(
            f"no block accepted in {budget} attempts", budget, 0)
    # return time maximizing the family size, smallest on ties
    q_idx = int(np.argmax(returns[ok].sum(axis=0)))
    n_sel = window[q_idx]
    pool = ok & returns[:, q_idx]
    # common partition cell: depth-1 cylinder with the most members
    cell = int(np.argmax(np.bincount(W[pool, 0])))
    # separated pruning: the first row per length-n_sel prefix (one void
    # scalar) keeps the woven points separated (see separation_audit)
    kept = W[pool & (W[:, 0] == cell)]
    _, first = np.unique(np.ascontiguousarray(kept[:, :n_sel]).view(
        f"V{n_sel}"), return_index=True)
    return BlockFamily(measure=measure, shift=shift, n=n_sel, cell=cell,
                       blocks=kept[np.sort(first)],
                       acceptance_rate=int(ok.sum()) / budget)


def connector(shift: ShiftSpace, from_cell: int, to_cell: int):
    """(s, path): the steering word from one depth-1 cell into another on an
    irreducible shift, s = len(path) >= 1 even from a cell into itself."""
    if not shift.is_irreducible():
        raise ValueError("connector needs an irreducible transition matrix")
    path = steering_word(shift, from_cell, to_cell)
    return len(path), path


class Layout(NamedTuple):
    """Where the woven point's segments start (symbols from 0), and the
    read-only arrays that a splice and its convergence table read."""

    keys: list[tuple]  # the (k, j, i, t) slots in the construction's order
    slots: dict  # (k, j) -> (indices into keys, starts), both (T_k, reps)
    bridges: dict  # (from cell, to cell) -> (s, connector starts)
    fill: tuple  # per slot family, then bridge: (count, length) positions
    ends: np.ndarray  # every segment's end, in the order of fill
    grid: np.ndarray  # the convergence grid: cycle starts and the length
    segment: np.ndarray  # _segments(grid)


@dataclass
class WeaveSchedule:
    """Integer scaffolding of the weave, with all invariants certified.

    `layout` places every segment: level k runs T_k cycles of Y_k symbols
    from M_k, each family's blocks followed by a connector to the next
    family's cell, then a connector into the next level's first cell."""

    k_max: int
    coefficients: list[list[Fraction]]         # a_{k,j}
    block_lengths: list[list[int]]             # n(k,j)
    cells: list[list[int]]                     # partition cell per (k,j)
    C: list[list[Fraction]]                    # a_{k,j} / n(k,j)
    N: list[int]
    X: list[int]
    Y: list[int]
    T: list[int]
    connectors: dict  # (from cell, to cell) -> connector word
    epsilon: float
    delta_prime: ClassVar[float] = DELTA_PRIME
    diam_xi: ClassVar[float] = DELTA_PRIME
    splice_guarantee: ClassVar[float] = DELTA_PRIME / 2
    truncated: bool = False
    truncation_level: int | None = None
    certified: bool = False
    offsets_M: list[int] = field(default_factory=list)

    def s(self, k1, j1, k2, j2) -> int:
        """s from cell (k1, j1) into (k2, j2); level k_max + 1 is level 1."""
        to = self.cells[(k2 - 1) % self.k_max][j2 - 1]
        return len(self.connectors[(self.cells[k1 - 1][j1 - 1], to)])

    @functools.cached_property
    def layout(self) -> Layout:
        keys, slots, bridges, spans, grid, pos = [], {}, {}, [], [], 0

        def bridge(a, b, s, starts):  # files a connector, returns its length
            bridges.setdefault((a, b), (s, []))[1].append(starts)
            return s

        for k, (cells, ns, T) in enumerate(
                zip(self.cells, self.block_lengths, self.T), start=1):
            reps = [self.repetitions(k, j) for j in range(1, len(ns) + 1)]
            cycles = pos + self.Y[k - 1] * np.arange(T)  # their starts
            grid.append(cycles)
            firsts = len(keys) + sum(reps) * np.arange(T)  # their first slots
            cycle = [(j, t) for j, r in enumerate(reps, 1)
                     for t in range(1, r + 1)]  # the slots of one cycle
            keys += [(k, j, i, t) for i in range(1, T + 1) for j, t in cycle]
            at = 0
            for j, (n, r) in enumerate(zip(ns, reps), start=1):
                slots[(k, j)] = (firsts[:, None] + np.arange(r),
                                 cycles[:, None] + at + n * np.arange(r))
                spans.append((slots[(k, j)][1], n))
                firsts, at = firsts + r, at + r * n
                at += bridge(cells[j - 1], cells[j % len(ns)],
                             self.s(k, j, k, j % len(ns) + 1), cycles + at)
            pos += T * at  # then into the next level (level 1 after the top)
            pos += bridge(cells[0], self.cells[k % self.k_max][0],
                          self._next_level_connector(k), [pos])
            if at != self.Y[k - 1] or pos != self.offsets_M[k]:
                raise AssertionError(f"level {k} ends at {pos}, scheduled "
                                     f"{self.offsets_M[k]}")
        bridges = {pair: (s, np.concatenate(starts))
                   for pair, (s, starts) in bridges.items()}
        fill = tuple(starts.reshape(-1, 1) + np.arange(n) for starts, n in
                     spans + [(starts, s) for s, starts in bridges.values()])
        grid = np.concatenate(grid + [[pos]])[1:]  # increasing, from M_1 = 0
        ends = np.concatenate([f[:, -1] + 1 for f in fill])
        segment = _segments(grid)
        for a in (*fill, ends, grid, segment):
            a.flags.writeable = False
        return Layout(keys, slots, bridges, fill, ends, grid, segment)

    @property
    def total_length(self) -> int:
        return self.offsets_M[self.k_max]  # M_{k_max + 1}

    def repetitions(self, k: int, j: int) -> int:
        r = self.N[k - 1] * self.C[k - 1][j - 1]
        assert r.denominator == 1, "N_k C_{k,j} not integral"
        return int(r)

    def certify(self):
        """Exact integer checks of every schedule invariant."""
        for k in range(1, self.k_max + 1):
            sk = len(self.coefficients[k - 1])
            assert sum(self.coefficients[k - 1]) == 1
            assert all(self.repetitions(k, j) > 0 for j in range(1, sk + 1))
            bound = k * self._connector_sum(k)
            assert self.N[k - 1] >= bound, "connector-budget bound fails"
            assert self.X[k - 1] == sum(self.s(k, j, k, j % sk + 1)
                                        for j in range(1, sk + 1))
            assert self.Y[k - 1] == self.N[k - 1] + self.X[k - 1]
            assert self.N[k - 1] * k >= (k - 1) * self.Y[k - 1], \
                "N_k / Y_k >= 1 - 1/k fails"
        for k in range(1, self.k_max):
            assert self.T[k] > self.T[k - 1], "T_k not strictly increasing"
            lhs = (k + 1) * self.Y[k]
            rhs = sum(self.Y[r] * self.T[r] for r in range(k))
            assert lhs <= rhs, "first cycle-count inequality fails"
            assert (k + 1) * self.offsets_M[k] <= self.Y[k] * self.T[k], \
                "second cycle-count inequality fails"
        self.layout  # its cycles and levels tie out with Y_k and offsets_M
        self.certified = True
        return self

    def _connector_sum(self, k: int) -> int:
        """Sum of s over all pairs of (level, j) cells up to level k + 1."""
        cells = [c for level in self.cells[:k + 1] for c in level]
        return sum(len(self.connectors[(a, b)]) for a in cells for b in cells)

    def _next_level_connector(self, r: int) -> int:
        return self.s(r, 1, r + 1, 1)  # at r = k_max, the wrap to level 1


def build_schedule(shift: ShiftSpace, decomposition, block_lengths, cells,
                   k_max: int, epsilon: float,
                   length_cap: int = DEFAULT_LENGTH_CAP,
                   min_total_length: int = 0) -> WeaveSchedule:
    """Construct the schedule integers for the truncated weave.

    decomposition: per level k, list of (rational coefficient, measure).
    block_lengths / cells: per level, the n(k,j) and partition cell per entry;
    the shift's `connector` joins every pair of used cells.

    N_k is the least integer making every N_k C_{k,j} integral subject to the
    connector-budget bound.  T_k is the largest of T_{k-1} + 1 (or 1), ceil(k
    M_k / Y_k) and, below the top level, ceil(((k+1) Y_{k+1} - sum_{r<k} Y_r
    T_r) / Y_k), at it ceil((min_total_length - M_k - s_k) / Y_k), in exact
    integers; M_1 = 0 and M_{k+1} = M_k + Y_k T_k + s_k.  Past length_cap, it
    keeps the most levels that fit, their number reported as truncation_level.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    coeffs = [[Fraction(a) for a, _m in level] for level in decomposition]
    for level in coeffs:
        if sum(level) != 1 or any(a <= 0 for a in level):
            raise ValueError("coefficients must be positive rationals summing to 1")
    # connector words between all pairs of cells
    used = {c for level in cells[:k_max] for c in level}
    connectors = {(a, b): tuple(connector(shift, a, b)[1]) for a in used
                  for b in used}

    def make(km):
        C = [[a / n for a, n in zip(coeffs[k], block_lengths[k])]
             for k in range(km)]
        sched = WeaveSchedule(
            k_max=km, coefficients=coeffs[:km],
            block_lengths=[list(b) for b in block_lengths[:km]],
            cells=[list(c) for c in cells[:km]], C=C,
            N=[], X=[], Y=[], T=[], connectors=connectors, epsilon=epsilon,
            truncated=km < k_max, truncation_level=km if km < k_max else None,
            offsets_M=[0])
        for k in range(1, km + 1):
            sk = len(coeffs[k - 1])
            lcm = math.lcm(*(c.denominator for c in C[k - 1]))
            N_k = lcm * max(1, -(-k * sched._connector_sum(k) // lcm))
            sched.N.append(N_k)
            X_k = sum(sched.s(k, j, k, j % sk + 1) for j in range(1, sk + 1))
            sched.X.append(X_k)
            sched.Y.append(N_k + X_k)
        YT = 0  # sum_{r<k} Y_r T_r
        for k, Y in enumerate(sched.Y, start=1):
            M, s = sched.offsets_M[-1], sched._next_level_connector(k)
            need = (k + 1) * sched.Y[k] - YT if k < km \
                else min_total_length - M - s
            T = max(sched.T[-1] + 1 if sched.T else 1, -(-k * M // Y),
                    -(-need // Y))
            sched.T.append(T)
            YT += Y * T
            sched.offsets_M.append(M + Y * T + s)
        return sched

    for km in range(k_max, 0, -1):
        sched = make(km)
        if sched.total_length <= length_cap:
            return sched.certify()
    raise OverflowError(
        f"even a single level needs {sched.total_length} > cap {length_cap}")


def concatenate(shift: ShiftSpace, schedule: WeaveSchedule,
                families: dict, seed: int = 0, picks: dict | None = None):
    """Splice the pseudo-orbit in the construction's exact order and check it.

    The pseudo-orbit is a chain of segments: a picked block w contributes the
    states word_state(w[p:]) for p < n(k,j), a connector path the states
    word_state((path + (target,))[p:]) for p < len(path).  Inside a segment
    each state is the shift of the previous one, so the 1/2-pseudo-orbit
    check and the shadow deviations only involve segment ends, and the
    shadowing point is the concatenated segment symbols followed by the last
    state.  The point is one preallocated int8 array written at the layout's
    fill positions, one fancy index per family and per connector word.  Past
    its end, a segment's last state holds its family's continuation row (for
    a connector, the cycle through its target); the ends are checked column
    by column, up to the first column where any of them differs.

    families maps (k, j) to a BlockFamily; picks (slot -> block index) fixes
    block choices per (k, j, i, t) slot.  The other slots (and negative
    picks) are drawn by one seeded rng.integers(bounds) call in slot order,
    the same stream as one call per slot.
    Returns (symbols, max shadow deviation, choice): symbols holds the
    point's first total_length + AUDIT_DEPTH + p symbols, p the period of
    its cycle, and choice the block index of every slot in layout.keys order.
    """
    layout, depth = schedule.layout, AUDIT_DEPTH - 1
    keys, ends = layout.keys, layout.ends
    bounds = np.empty(len(keys), dtype=np.int64)
    for (k, j), (index, _starts) in layout.slots.items():
        if families[(k, j)].n != schedule.block_lengths[k - 1][j - 1]:
            raise ValueError("schedule/family block length mismatch")
        bounds[index] = len(families[(k, j)].blocks)
    # picks in layout order (as WeaveOutcome.picks gives them) read as is
    got = np.full(len(keys), -1, dtype=np.int64) if not picks else np.fromiter(
        picks.values() if list(picks) == keys
        else map(picks.get, keys, itertools.repeat(-1)), np.int64, len(keys))
    if (draw := got < 0).any():
        got[draw] = make_rng(seed).integers(bounds[draw])
    segments = []  # (symbols, continuations, each one's row)
    for key, (index, _starts) in layout.slots.items():
        fam, idx = families[key], got[index].ravel()
        segments.append((fam.blocks[idx, :fam.n], fam.continuation, idx))
    for (a, b), (_s, starts) in layout.bridges.items():
        segments.append((np.array([schedule.connectors[(a, b)]], np.int8),
                         symbol_continuation(shift, b, depth),
                         np.zeros(len(starts), np.intp)))
    L, last = schedule.total_length, schedule.cells[0][0]  # the last target
    z = np.empty(L + AUDIT_DEPTH + len(canonical_cycle(shift, last)), np.int8)
    for fill, (symbols, *_) in zip(layout.fill, segments):
        z[fill] = symbols
    z[L:] = symbol_continuation(shift, last, len(z) - L)[0]
    # e = the first column where some segment's continuation and the point
    # differ: the jump at that segment's end is 2^-e (e = 0 breaks the
    # 1/2-pseudo-orbit) and its last state is 2^-(1+e) from the shifted point
    deviation = 0.0
    for e in range(depth):
        miss = np.concatenate([c[rows, e] for *_, c, rows in segments]) \
            != z[ends + e]
        if miss.any():
            if e == 0:
                raise PseudoOrbitViolation(int(ends[miss].min()) - 1, 1.0)
            deviation = 2.0 ** -(1 + e)
            break
    if not shift.word_admissible(z):
        raise ValueError("spliced point inadmissible")
    return z, deviation, got


@dataclass
class WeaveOutcome:
    """A woven point and its audits, kept as arrays: the point's first
    symbols (see concatenate), the distance D at each layout.grid point, and
    each slot's block index, in the order of `keys` (layout.keys).  `point`,
    `picks` and the (n, D) rows of `convergence` are built on first use."""

    symbols: np.ndarray
    total_length: int
    grid: np.ndarray
    D: np.ndarray
    per_block_deviation: float
    choice: np.ndarray
    keys: list[tuple]

    @property
    def final_distance(self) -> float:
        return float(self.D[-1])

    @functools.cached_property
    def convergence(self) -> list[tuple[int, float]]:
        return list(zip(self.grid.tolist(), self.D.tolist()))

    @functools.cached_property
    def point(self) -> Word:  # period len(z) - L - AUDIT_DEPTH from L + 1 on
        z, L = self.symbols, self.total_length
        return Word(tuple(z[:L + 1].tolist()),
                    tuple(z[L + 1:len(z) - AUDIT_DEPTH + 1].tolist()))

    @functools.cached_property
    def picks(self) -> dict:
        return dict(zip(self.keys, self.choice.tolist()))


def weave_point(shift: ShiftSpace, schedule: WeaveSchedule, families: dict,
                target, family: TestFunctionFamily, seed: int = 0,
                picks: dict | None = None) -> WeaveOutcome:
    """Splice the woven point and audit the empirical distances to the
    target along the offset grid and at the full length."""
    z, deviation, choice = concatenate(shift, schedule, families, seed=seed,
                                       picks=picks)
    L, layout = schedule.total_length, schedule.layout
    D = _cylinder_distances(z[:L + family.max_depth], layout.grid, target,
                            family, segment=layout.segment)
    return WeaveOutcome(
        symbols=z, total_length=L, grid=layout.grid, D=D,
        per_block_deviation=deviation, choice=choice, keys=layout.keys)


def run_weave(shift: ShiftSpace, target, family: TestFunctionFamily,
              k_max: int = 3, gamma: float = 0.25, block_length: int = 16,
              epsilon: float = 0.25, budget: int = 400, seed: int = 0,
              min_total_length: int = 0,
              length_cap: int = DEFAULT_LENGTH_CAP):
    """Full pipeline: decompose the target per level, select block families,
    build the certified schedule, concatenate, shadow, and audit convergence.
    Returns (schedule, families, outcome)."""
    if not (0 < epsilon < math.inf and budget >= 1 and block_length >= 1
            and min_total_length >= 0):  # a NaN epsilon fails too
        raise ValueError(f"need finite epsilon > 0, budget >= 1, block_length "
                         f">= 1, min_total_length >= 0; got {epsilon=}, "
                         f"{budget=}, {block_length=}, {min_total_length=}")
    decomposition, families, block_lengths, cells = [], {}, [], []
    for k in range(1, k_max + 1):
        comps = convex_decompose(target, k, family)
        fams = [select_blocks(shift, m, block_length, epsilon, k, gamma,
                              budget, seed + 1000 * k + j, family=family)
                for j, (_a, m) in enumerate(comps, start=1)]
        decomposition.append(comps)
        families.update({(k, j): f for j, f in enumerate(fams, start=1)})
        block_lengths.append([f.n for f in fams])
        cells.append([f.cell for f in fams])
    schedule = build_schedule(
        shift, decomposition, block_lengths, cells, k_max, epsilon,
        length_cap=length_cap, min_total_length=min_total_length)
    outcome = weave_point(shift, schedule, families, target, family, seed=seed)
    return schedule, families, outcome


def separation_audit(shift: ShiftSpace, schedule: WeaveSchedule,
                     outcome_a: WeaveOutcome, outcome_b: WeaveOutcome) -> bool:
    """Check the woven points of two outcomes differing in exactly one block
    slot are (n(m,j), epsilon/2)-separated at that slot's offset."""
    diff = np.flatnonzero(outcome_a.choice != outcome_b.choice)
    if len(diff) != 1:
        raise ValueError(f"outcomes differ in {len(diff)} slots, need exactly 1")
    (m, j, i, t) = schedule.layout.keys[diff[0]]
    off = int(schedule.layout.slots[(m, j)][1][i - 1, t - 1])  # M_{m,i,j,t}
    n_mj = schedule.block_lengths[m - 1][j - 1]
    if off + n_mj > outcome_a.total_length:
        raise ValueError("slot offset out of range")
    threshold = schedule.epsilon / 2
    q_scan = n_mj + max(0, int(round(-math.log2(threshold)))) + 1
    # past total_length both points continue with the same last state, so
    # the symbol arrays cover every position that can differ
    differ = np.flatnonzero(outcome_a.symbols[off:off + q_scan]
                            != outcome_b.symbols[off:off + q_scan])
    if not differ.size:
        return False
    c = int(differ[0])
    return 2.0 ** (-(c - min(c, n_mj - 1))) >= threshold
