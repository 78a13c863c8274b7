"""Pseudo-orbit construction and shadowing searches.

Shifts get the exact symbolic splice (first symbol of every pseudo-orbit
state), with the guarantee that a validated 2^-m pseudo-orbit is shadowed to
within 2^-(m+1).  Interval maps get branchwise interval refinement over the
linear pieces; failure is reported honestly and a tracked-interval cap turns
into a resource error rather than a bogus nonexistence claim.

`shadowing_modulus` runs each delta row as one batch over all trials, one
kernel per system kind; the single-trial functions are batches of one.  Shift
perturbations resample symbols as succ[floor(u * len(succ))], so shift
single-mode streams differ from the former rng.integers draws.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .systems import (EndpointFixedMap, ShiftSpace, State, System, TentMap,
                      Word, apply_map, dist, orbit)

__all__ = [
    "PseudoOrbit",
    "ShadowResult",
    "PseudoOrbitViolation",
    "ResourceCapError",
    "validate_pseudo",
    "perturbed_orbit",
    "shadow_shift",
    "shadow_interval",
    "shadowing_modulus",
    "canonical_cycle",
    "make_rng",
]

AUDIT_DEPTH = 64  # coordinate depth to which shadow deviations are measured


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so all randomness flows from one 64-bit seed."""
    return np.random.Generator(np.random.Philox(seed))


class PseudoOrbitViolation(ValueError):
    def __init__(self, index: int, gap: float):
        super().__init__(f"pseudo-orbit gap {gap:g} at index {index} exceeds delta")
        self.index = index
        self.gap = gap


class ResourceCapError(RuntimeError):
    """Tracked-interval cap exceeded; not evidence of non-shadowability."""


@dataclass(frozen=True)
class PseudoOrbit:
    states: tuple
    delta: float

    def __post_init__(self):
        if len(self.states) < 2:
            raise ValueError("pseudo-orbit needs at least 2 states")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass
class ShadowResult:
    point: State
    max_deviation: float
    per_step: list[float]


def validate_pseudo(system: System, states: Sequence[State],
                    delta: float) -> PseudoOrbit:
    """Check d(f(x_i), x_{i+1}) <= delta for every i; the first violation is
    raised with its measured gap."""
    states = tuple(states)
    for i in range(len(states) - 1):
        gap = dist(system, apply_map(system, states[i]), states[i + 1],
                   depth=AUDIT_DEPTH if isinstance(system, ShiftSpace) else None)
        if gap > delta:
            raise PseudoOrbitViolation(i, gap)
    return PseudoOrbit(states, delta)


@functools.cache
def canonical_cycle(shift: ShiftSpace, last: int) -> tuple[int, ...]:
    """Lexicographically-least shortest admissible cycle through `last`,
    used to extend finite words to admissible infinite states (cached per
    shift and symbol)."""
    if shift.allowed(last, last):
        return (last,)
    # BFS for the shortest path last -> ... -> last with >= 1 edge
    prev, queue = {}, collections.deque([last])
    while queue:
        u = queue.popleft()
        if u != last and shift.allowed(u, last):
            path = [u]
            while prev[path[-1]] != last:
                path.append(prev[path[-1]])
            return (last,) + tuple(reversed(path))
        for b in range(shift.alphabet_size):
            if shift.allowed(u, b) and b not in prev:
                prev[b] = u
                queue.append(b)
    raise ValueError(f"symbol {last} lies on no admissible cycle")


def word_state(shift: ShiftSpace, symbols: Sequence[int]) -> Word:
    """Admissible infinite state starting with the given finite word.

    The continuation is the canonical cycle through the last symbol, rotated
    so it starts after that symbol (the head already ends with it)."""
    symbols = tuple(symbols)
    cyc = canonical_cycle(shift, symbols[-1])
    return Word(symbols, cyc[1:] + cyc[:1])


def perturbed_orbit(system: System, x0: State, n: int, delta: float,
                    seed: int) -> PseudoOrbit:
    """Seeded delta-pseudo-orbit: uniform kicks on interval maps, tail
    resampling below resolution delta on shifts; delta = 0 gives the orbit.
    A batch of one of the kernels that `shadowing_modulus` runs."""
    if n < 2:
        raise ValueError("n must be >= 2")
    apply_map(system, x0)  # rejects a start of the wrong kind or domain
    if isinstance(system, ShiftSpace) and delta == 0:
        return PseudoOrbit(tuple(orbit(system, x0, n)), 0.0)
    u = _uniforms(system, n, [seed])
    if isinstance(system, ShiftSpace):
        heads = _shift_heads(system, [x0], delta, u)[0].tolist()
        cycles = {a: word_state(system, [a]).cycle for a in {h[-1] for h in heads}}
        return PseudoOrbit((x0,) + tuple(Word(tuple(h), cycles[h[-1]])
                                         for h in heads), delta)
    xs = _interval_orbits(system, np.array([float(x0)]), delta, u)
    return PseudoOrbit(tuple(xs[0].tolist()), delta)


def _uniforms(system: System, n: int, seeds) -> np.ndarray:
    """(trials, n - 1, 8) uniforms on shifts, (trials, n - 1) on intervals."""
    shape = (n - 1, 8) if isinstance(system, ShiftSpace) else (n - 1,)
    u = np.empty((len(seeds),) + shape)
    for t, s in enumerate(seeds):
        make_rng(s).random(shape, out=u[t])
    return u


def _shift_heads(shift: ShiftSpace, x0: Sequence[Word], delta: float,
                 u: np.ndarray) -> np.ndarray:
    """Heads (trials, n - 1, m + 8) of states 1..n-1, 2^-m <= delta.  Only
    the first of the 8 resampled symbols survives into later heads: one
    sequential spine column runs across trials, the other 7 all at once."""
    m = int(math.ceil(-math.log2(delta)))  # keep 2^-m <= delta
    if m < 1:
        raise ValueError("shift perturbation needs delta < 1")
    table, count = _successor_table(shift)
    trials, steps = u.shape[:2]
    spine = np.empty((trials, m + 1 + steps), dtype=np.int8)
    spine[:, :m + 1] = [x.prefix(m + 1) for x in x0]
    # first resampled symbol of every step, for every current symbol
    nxt = np.empty((trials, steps, shift.alphabet_size), dtype=np.int8)
    for a in range(shift.alphabet_size):
        nxt[..., a] = table[a, (u[..., 0] * count[a]).astype(np.intp)]
    rows = np.arange(trials)
    for i in range(steps):
        spine[:, m + 1 + i] = nxt[rows, i, spine[:, m + i]]
    heads = np.empty((trials, steps, m + 8), dtype=np.int8)
    heads[..., :m + 1] = sliding_window_view(spine, m + 1, axis=1)[:, 1:]
    for j in range(m + 1, m + 8):
        a = heads[..., j - 1]
        heads[..., j] = table[a, (u[..., j - m] * count[a]).astype(np.intp)]
    return heads


def _cycle_rows(shift: ShiftSpace, last: np.ndarray, width: int) -> np.ndarray:
    """(alphabet, width) int8 table: for each symbol a in `last`, row a is
    the canonical cycle through a repeated from the symbol after a, the
    continuation of any word ending in a; rows of absent symbols are 0."""
    rows = np.zeros((shift.alphabet_size, width), dtype=np.int8)
    for a in np.flatnonzero(np.bincount(np.ravel(last))).tolist():
        cyc = canonical_cycle(shift, a)
        rows[a] = np.resize(cyc[1:] + cyc[:1], width)
    return rows


def _splice(shift: ShiftSpace, x0: Sequence[Word], heads: np.ndarray):
    """(column, z) for _splice_deviations; each head continues with the
    canonical cycle through its last symbol, by table lookup."""
    h, last = heads.shape[-1], heads[..., -1]
    cont = _cycle_rows(shift, last, AUDIT_DEPTH + shift.alphabet_size)
    first = np.array([x.prefix(AUDIT_DEPTH) for x in x0], dtype=np.int8)

    def column(j):
        rest = heads[..., j] if j < h else cont[last, j - h]
        return np.concatenate([first[:, j, None], rest], axis=1)
    return column, np.concatenate([first[:, :1], heads[:, :-1, 0], heads[:, -1],
                                   cont[last[:, -1]]], axis=1)


def _admissible(shift: ShiftSpace, seq: np.ndarray) -> bool:
    """Every symbol and every transition along the last axis allowed."""
    return bool(seq.min() >= 0 and seq.max() < shift.alphabet_size and np.all(
        np.array(shift.transition, dtype=bool)[seq[..., :-1], seq[..., 1:]]))


def _splice_deviations(shift: ShiftSpace, column, z: np.ndarray) -> np.ndarray:
    """2^-j per state (..., n), j the first mismatch of z[i:] with state i,
    whose depth-j symbols are column(j), 0 if none below AUDIT_DEPTH; z
    must also cover one period of the spliced point, which is checked."""
    if not _admissible(shift, z):
        raise ValueError("spliced point inadmissible; pseudo-orbit was not validated")
    first = np.full(column(0).shape, AUDIT_DEPTH, dtype=np.int8)
    n = first.shape[-1]
    for j in range(AUDIT_DEPTH - 1, -1, -1):  # a smaller j overwrites
        first[z[..., j:j + n] != column(j)] = j
    return np.where(first < AUDIT_DEPTH, 2.0 ** -first, 0.0)


def shadow_shift(shift: ShiftSpace, po: PseudoOrbit) -> ShadowResult:
    """Symbolic splice: z_i is the first symbol of states[i], tail from the
    last state.  For delta = 2^-m the deviation is at most 2^-(m+1)."""
    states = po.states
    windows = np.array([s.prefix(AUDIT_DEPTH) for s in states])
    z = Word(tuple(windows[:-1, 0].tolist()) + states[-1].head, states[-1].cycle)
    seq = z.prefix(len(z.head) + len(z.cycle) + AUDIT_DEPTH)
    per_step = _splice_deviations(shift, lambda j: windows[:, j],
                                  np.array(seq)).tolist()
    return ShadowResult(point=z, max_deviation=max(per_step), per_step=per_step)


def _interval_orbits(map_: TentMap | EndpointFixedMap, x0: np.ndarray,
                     delta: float, u: np.ndarray) -> np.ndarray:
    """Perturbed orbits (trials, n): the kick a + (b - a) * u, (a, b) =
    (-delta/2, delta/2), is the double rng.uniform(a, b) draws.  No -0.0
    arises in forward passes, so numpy's min and max equal Python's."""
    lo, hi = map_.domain
    xs = np.empty((len(x0), u.shape[1] + 1))
    xs[:, 0] = x0
    for i in range(u.shape[1]):
        y = map_.value(xs[:, i])
        kick = -delta / 2 + (delta / 2 - -delta / 2) * u[:, i]
        xs[:, i + 1] = np.clip(y + kick, lo, hi) if delta > 0 else y
    return xs


SHADOWED, NO_SHADOW, OVER_CAP = 0, 1, 2  # per-trial outcomes of _interval_shadow


def _interval_shadow(map_: TentMap | EndpointFixedMap, xs: np.ndarray,
                     epsilon: float, piece_cap: int = 4096):
    """shadow_interval on every row of xs (trials, n): flat arrays (lo, hi,
    trial) in single-trial order, per-step back-pointers source * nb + branch.
    Returns per trial SHADOWED, NO_SHADOW (set emptied or shadow reached
    epsilon) or OVER_CAP (past piece_cap); a SHADOWED row of xs is
    overwritten with its shadow orbit, and other rows may be changed too."""
    trials, n = xs.shape
    plo, phi_, m, c = np.array(map_.pieces()).T
    nb = len(m)
    lo = np.maximum(map_.domain[0], xs[:, 0] - epsilon)  # lo > hi empties at t = 1
    hi = np.minimum(map_.domain[1], xs[:, 0] + epsilon)
    outcome, trial, back = np.zeros(trials, np.int8), np.arange(trials), []
    for t in range(1, n):
        xlo, xhi = np.maximum(lo[:, None], plo), np.minimum(hi[:, None], phi_)
        ya, yb = m * xlo + c, m * xhi + c
        s = xs[trial, t, None]
        ylo = np.maximum(np.minimum(ya, yb), s - epsilon)
        yhi = np.minimum(np.maximum(ya, yb), s + epsilon)
        keep = np.flatnonzero((xlo <= xhi) & (ylo <= yhi))  # source * nb + branch
        count = np.bincount(trial[keep // nb], minlength=trials)
        gone = (outcome == SHADOWED) & ((count == 0) | (count > piece_cap))
        if gone.any():
            outcome[gone] = np.where(count[gone] > piece_cap, OVER_CAP, NO_SHADOW)
            keep = keep[outcome[trial[keep // nb]] == SHADOWED]
        lo, hi, trial = ylo.ravel()[keep], yhi.ravel()[keep], trial[keep // nb]
        back.append(keep.astype(np.int32))
    order = np.lexsort((lo - hi, trial))  # widest first, earliest on ties
    i = order[np.flatnonzero(np.diff(trial[order], prepend=-1))]
    won = trial[i]
    y = 0.5 * (lo[i] + hi[i])
    deviation = np.abs(y - xs[won, -1])
    xs[won, -1] = y
    for t in range(n - 1, 0, -1):
        b, i = back[t - 1][i] % nb, back[t - 1][i] // nb
        y = (y - c[b]) / m[b]
        # min(max(y, plo), phi) keeps y on ties: a -0.0 from a slope < 0 stays
        y = np.where(plo[b] > y, plo[b], y)
        y = np.where(phi_[b] < y, phi_[b], y)
        deviation = np.maximum(deviation, np.abs(y - xs[won, t - 1]))
        xs[won, t - 1] = y
    outcome[won[deviation >= epsilon]] = NO_SHADOW  # boundary-equal fails
    return outcome


def shadow_interval(map_: TentMap | EndpointFixedMap, po: PseudoOrbit,
                    epsilon: float, piece_cap: int = 4096) -> ShadowResult | None:
    """Branchwise interval refinement for piecewise-linear maps.

    Tracks the set of attainable current values {f^t(x) : x shadows so far}
    as a union of intervals, one per surviving branch history.  Tracking the
    value at time t instead of the initial coordinate keeps every number
    O(1), so expanding maps do not exhaust float precision; the shadow orbit
    is then reconstructed by backward iteration through the recorded
    branches, which is contracting exactly when the forward map expands.

    Returns None when the interval set empties (strict failure at the
    boundary per the shadowing definition); exceeding piece_cap is a
    resource error, not a nonexistence claim.  A batch of one.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ys = np.array([po.states], dtype=float)
    outcome = _interval_shadow(map_, ys, epsilon, piece_cap)[0]
    if outcome == OVER_CAP:
        raise ResourceCapError(f"tracked intervals exceed cap {piece_cap}")
    if outcome == NO_SHADOW:
        return None
    per_step = np.abs(ys[0] - po.states).tolist()
    return ShadowResult(point=float(ys[0, 0]), max_deviation=max(per_step),
                        per_step=per_step)


def shadowing_modulus(system: System, epsilon: float, trials: int, length: int,
                      seed: int, success_target: float = 0.95,
                      refine_rounds: int = 4):
    """Empirical delta(epsilon): sweep delta downward by halving, then bisect
    around the success threshold; returns (delta_hat, table of
    (delta, successes, trials)).  Starts and perturbation uniforms are drawn
    once per call, and each row runs all trials as one batch; an interval
    trial over the tracked-interval cap counts as a failure."""
    if not (math.isfinite(epsilon) and epsilon > 0 and trials >= 1
            and length >= 2):
        raise ValueError(f"need finite epsilon > 0, trials >= 1, length >= 2; "
                         f"got {epsilon}, {trials}, {length}")
    x0 = [_random_start(system, make_rng(seed + 7919 * t)) for t in range(trials)]
    u = _uniforms(system, length, [seed + 104729 * t + 1 for t in range(trials)])

    def run(delta: float) -> int:
        if isinstance(system, ShiftSpace):
            heads = _shift_heads(system, x0, delta, u)
            deviation = _splice_deviations(system, *_splice(system, x0, heads))
            return int(np.count_nonzero(deviation.max(axis=-1) < epsilon))
        xs = _interval_orbits(system, np.array(x0), delta, u)
        return int(np.count_nonzero(_interval_shadow(system, xs, epsilon)
                                    == SHADOWED))

    delta, bad, table = epsilon, None, []  # coarse sweep, then bisection
    for _ in range(14):
        table.append((delta, run(delta), trials))
        if table[-1][1] / trials >= success_target:
            break
        bad, delta = delta, delta / 2
    else:
        return 0.0, table
    lo, hi = delta, bad
    for _ in range(refine_rounds if bad is not None else 0):
        mid = 0.5 * (lo + hi)
        table.append((mid, run(mid), trials))
        if table[-1][1] / trials >= success_target:
            lo = mid
        else:
            hi = mid
    table.sort(key=lambda r: -r[0])
    return max(d for d, ok, tr in table if ok / tr >= success_target), table


def _random_start(system: System, rng) -> State:
    if isinstance(system, ShiftSpace):
        table, count = _successor_table(system)
        head = [int(rng.integers(system.alphabet_size))]
        for _ in range(31):
            head.append(int(table[head[-1], rng.integers(count[head[-1]])]))
        return word_state(system, head)
    lo, hi = system.domain
    return float(rng.uniform(lo + 1e-6, hi - 1e-6))


def _successor_table(shift: ShiftSpace):
    """(k, k + 1) table of allowed successors, padded with the last one, and
    their counts: table[a, floor(u * count[a])] is uniform, u = 1 the last."""
    k = shift.alphabet_size
    succ = [[b for b in range(k) if shift.allowed(a, b)] for a in range(k)]
    if not all(succ):
        raise ValueError("a symbol has no allowed successor")
    return (np.array([s + s[-1:] * (k + 1 - len(s)) for s in succ], np.int8),
            np.array([len(s) for s in succ]))
