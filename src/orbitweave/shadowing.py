"""Pseudo-orbit construction and shadowing searches.

Shifts get the exact symbolic splice (first symbol of every pseudo-orbit
state), with the guarantee that a validated 2^-m pseudo-orbit is shadowed to
within 2^-(m+1).  On interval maps the values a shadow can take at time t
form one interval (the maps are continuous), tracked forward over the linear
pieces; the shadow is rebuilt backward from it, with no cap on the work.

`shadowing_modulus` writes the one row a lemma settles, on every shift
(the splice) and on the slope-2 tent, without drawing a trial.  Other
interval maps draw their delta rows in passes, several rows' trials side by
side in one batch, and keep only the rows the row-by-row search visits,
counting from the forward pass alone: a rebuilt shadow stays in the tracked
intervals, so a trial whose intervals stay nonempty and lie within epsilon
of the pseudo-orbit is shadowed (Hammel, Yorke and Grebogi's
certify-rather-than-build); the window margin makes that hold for every
live trial, so none is rebuilt.
`perturbed_orbit` and `shadow_interval` are batches of one of the interval
kernels; a shift pseudo-orbit is one int8 window array, which `shadow_shift`
reads, and `validate_pseudo` checks one state at a time.  Every shift
symbol, of random starts and perturbations alike, comes from
`_successor_chain`: succ[floor(u * len(succ))], u uniform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .systems import (EndpointFixedMap, ShiftSpace, State, System, TentMap,
                      Word, apply_map, dist, int8_symbols, orbit)

__all__ = ["PseudoOrbit", "ShadowResult", "PseudoOrbitViolation",
           "validate_pseudo", "perturbed_orbit", "shadow_shift",
           "shadow_interval", "shadowing_modulus", "steering_word",
           "canonical_cycle", "continue_words", "symbol_continuation",
           "make_rng"]

AUDIT_DEPTH = 64  # coordinate depth to which shadow deviations are measured
START_LENGTH = 32  # drawn symbols of a random shift start
SWEEP = 14  # most rows of the modulus's halving sweep
SUCCESS_TARGET = 0.95  # share of shadowed trials that makes a delta good
REFINE_ROUNDS = 4  # bisection rounds after the sweep
PASS_COLUMNS = 400  # most (rows x trials) columns a drawn modulus pass runs
# Interval windows have radius eps - MARGIN: on [0, 2], a rounded sum or
# difference of values below 4 errs by at most 2^-52, a quarter of MARGIN, so
# for every eps > MARGIN the certificate ends fl(x_t - lo_t), fl(hi_t - x_t)
# of a live trial stay below eps (past eps = 2 a window holds the domain)
MARGIN = 2.0 ** -50
CERTIFIED_TENT_EPS = 2.0 ** -48  # least eps of a certified slope-2 tent row


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so all randomness flows from one 64-bit seed."""
    return np.random.Generator(np.random.Philox(seed))


class PseudoOrbitViolation(ValueError):
    def __init__(self, index: int, gap: float):
        super().__init__(f"pseudo-orbit gap {gap:g} at index {index} exceeds delta")
        self.index = index
        self.gap = gap


@dataclass(frozen=True)
class PseudoOrbit:
    """States x_0 .. x_{n-1}, each d(f(x_i), x_{i+1}) <= delta; given states
    carry no `windows` (perturbed_orbit's shift ones: _ShiftWindows)."""

    states: tuple
    delta: float
    windows = None

    def __post_init__(self):
        if len(self.states) < 2:
            raise ValueError("pseudo-orbit needs at least 2 states")
        if not self.delta >= 0:  # NaN fails too
            raise ValueError(f"delta must be nonnegative; got {self.delta!r}")


class _ShiftWindows(PseudoOrbit):
    """perturbed_orbit's shift pseudo-orbit: int8 `windows` (n, width >=
    AUDIT_DEPTH), each state's first symbols, state i >= 1 being word_state
    of row i's first `head`; the Word `states` are built on first read."""

    def __init__(self, shift, x0: Word, windows, head: int, delta: float):
        self.__dict__.update(shift=shift, x0=x0, windows=windows, head=head,
                             delta=delta)  # past the frozen __setattr__

    @functools.cached_property
    def states(self) -> tuple:
        heads = self.windows[1:, :self.head].tolist()
        return (self.x0,) + tuple(word_state(self.shift, h) for h in heads)


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
def steering_word(shift: ShiftSpace, a: int, b: int) -> tuple[int, ...]:
    """Lexicographically least of the shortest admissible words
    v_0 .. v_{s-1} with v_0 = a, s >= 1 and v_{s-1} -> b allowed, the word
    steering a into b (cached).  Each breadth-first frontier lists the least
    word to every newly reached symbol, in lexicographic order."""
    frontier, seen = [(a,)], {a}
    while frontier:
        for word in frontier:
            if shift.allowed(word[-1], b):
                return word
        nxt = []
        for word in frontier:
            for c in range(shift.alphabet_size):
                if shift.allowed(word[-1], c) and c not in seen:
                    seen.add(c)
                    nxt.append(word + (c,))
        frontier = nxt
    raise ValueError(f"no admissible word steers {a} into {b}")


def canonical_cycle(shift: ShiftSpace, last: int) -> tuple[int, ...]:
    """Lexicographically-least shortest admissible cycle through `last` (the
    word steering it back into itself), the continuation of finite words."""
    return steering_word(shift, last, last)


def word_state(shift: ShiftSpace, symbols: Sequence[int]) -> Word:
    """Admissible infinite state starting with the given finite word.

    The continuation is the canonical cycle through the last symbol, rotated
    so it starts after that symbol (the head already ends with it)."""
    symbols = tuple(symbols)
    cyc = canonical_cycle(shift, symbols[-1])
    return Word(symbols, cyc[1:] + cyc[:1])


def continue_words(shift: ShiftSpace, words: np.ndarray,
                   width: int) -> np.ndarray:
    """int8 (..., width): the first symbols of word_state(shift, w) for each
    word w along the last axis of words (..., len), that is the word, then
    the canonical cycle through its last symbol from the symbol after it."""
    last = words[..., -1]
    tail = np.zeros((shift.alphabet_size, max(0, width - words.shape[-1])),
                    dtype=np.int8)
    for a in np.flatnonzero(np.bincount(np.ravel(last))).tolist():
        cyc = canonical_cycle(shift, a)
        tail[a] = np.resize(cyc[1:] + cyc[:1], tail.shape[1])
    return np.concatenate([words[..., :width], tail[last]], axis=-1)


@functools.cache
def symbol_continuation(shift: ShiftSpace, a: int, width: int) -> np.ndarray:
    """Read-only `continue_words` (1, width) of the word (a,), cached."""
    row = continue_words(shift, np.array([[a]], np.int8), width)
    row.flags.writeable = False
    return row


def perturbed_orbit(system: System, x0: State, n: int, delta: float,
                    seed: int) -> PseudoOrbit:
    """Seeded delta-pseudo-orbit: uniform kicks on interval maps, tail
    resampling below resolution delta on shifts; delta = 0 gives the orbit.
    A batch of one of _interval_orbits or _shift_heads (a _ShiftWindows)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= delta < math.inf:  # NaN fails too
        raise ValueError(
            f"delta must be nonnegative and finite; got {delta!r}")
    apply_map(system, x0)  # rejects a start of the wrong kind or domain
    if isinstance(system, ShiftSpace) and delta == 0:
        return PseudoOrbit(tuple(orbit(system, x0, n)), 0.0)
    u = _uniforms(system, n, [seed])
    if isinstance(system, ShiftSpace):
        width = max(AUDIT_DEPTH, head := _resolution(delta) + 8)
        windows = np.empty((n, width), int8_symbols(system.alphabet_size))
        windows[0] = x0.prefix(width)
        windows[1:] = continue_words(
            system, _shift_heads(system, windows[:1], delta, u)[0], width)
        return _ShiftWindows(system, x0, windows, head, delta)
    xs = _interval_orbits(system, np.array([float(x0)]), delta, u)
    return PseudoOrbit(tuple(xs[:, 0].tolist()), delta)


def _uniforms(system: System, n: int, seeds) -> np.ndarray:
    """(trials, n - 1, 8) uniforms on shifts, (trials, n - 1) on intervals."""
    shape = (n - 1, 8) if isinstance(system, ShiftSpace) else (n - 1,)
    u = np.empty((len(seeds),) + shape)
    for t, s in enumerate(seeds):
        make_rng(s).random(shape, out=u[t])
    return u


def _resolution(delta: float) -> int:
    """m with 2^-m <= delta: shift kicks resample the symbols from depth m."""
    m = int(math.ceil(-math.log2(delta)))
    if m < 1:
        raise ValueError("shift perturbation needs delta < 1")
    return m


def _shift_heads(shift: ShiftSpace, start: np.ndarray, delta: float,
                 u: np.ndarray) -> np.ndarray:
    """Heads (trials, n - 1, m + 8) of states 1..n-1, 2^-m <= delta, from the
    start windows (trials, >= m + 1).  Only the first of the 8 resampled
    symbols survives into later heads: one spine chain of n - 1 steps per
    trial, then chains of the other 7 from every spine window at once."""
    m = _resolution(delta)
    spine = np.concatenate([start[:, :m], _successor_chain(
        shift, start[:, m], u[..., 0])], axis=1)
    windows = sliding_window_view(spine, m + 1, axis=1)[:, 1:]
    return np.concatenate([windows[..., :m], _successor_chain(
        shift, windows[..., m], u[..., 1:])], axis=-1)


def _successor_chain(shift: ShiftSpace, first: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """int8 (..., 1 + u.shape[-1]): first, then per uniform u along the last
    axis a successor of the symbol before, table[a, floor(u * count[a])].
    A doubling scan composes the steps' maps (row j of `maps`): round d turns
    row j from steps j - d + 1 .. j into j - 2d + 1 .. j."""
    table, count = _successor_table(shift)
    maps = table[np.arange(len(count)), (u[..., None] * count).astype(np.intp)]
    flat = maps.reshape(-1)  # a view: maps[..., j, a] is flat[at[..., j] + a]
    at = np.arange(0, flat.size, len(count)).reshape(maps.shape[:-1] + (1,))
    d = 1
    while d < u.shape[-1]:
        maps[..., d:, :] = flat[maps[..., :-d, :] + at[..., d:, :]]
        d *= 2
    first = np.asarray(first, np.intp)[..., None]  # a float one truncates
    return np.concatenate([first, flat[at[..., 0] + first]], -1).astype(np.int8)


def _splice_deviations(shift: ShiftSpace, windows: np.ndarray,
                       z: np.ndarray) -> np.ndarray:
    """2^-j per state (..., n), j the first mismatch of z[i:] with window i
    of windows (..., n, AUDIT_DEPTH), 0 if none; z must also cover one
    period of the spliced point, which is checked."""
    if not shift.word_admissible(z):
        raise ValueError("spliced point inadmissible; pseudo-orbit was not validated")
    n = windows.shape[-2]
    differ = sliding_window_view(z, AUDIT_DEPTH, axis=-1)[..., :n, :] != windows
    first = differ.argmax(axis=-1)
    return np.where(differ.any(axis=-1), 2.0 ** -first, 0.0)


def shadow_shift(shift: ShiftSpace, po: PseudoOrbit) -> ShadowResult:
    """Symbolic splice: z_i is the first symbol of states[i], tail from the
    last state.  For delta = 2^-m the deviation is at most 2^-(m+1).  Builds
    one Word, the last state, from a _ShiftWindows; reads given states."""
    if po.windows is None:
        windows = np.array([s.prefix(AUDIT_DEPTH) for s in po.states])
        last = po.states[-1]
    else:
        windows = po.windows[:, :AUDIT_DEPTH]
        last = word_state(shift, po.windows[-1, :po.head].tolist())
    z = Word(tuple(windows[:-1, 0].tolist()) + last.head, last.cycle)
    seq = z.prefix(len(z.head) + len(z.cycle) + AUDIT_DEPTH)
    per_step = _splice_deviations(shift, windows, np.array(seq)).tolist()
    return ShadowResult(point=z, max_deviation=max(per_step), per_step=per_step)


def _interval_orbits(map_: TentMap | EndpointFixedMap, x0: np.ndarray,
                     delta, u: np.ndarray) -> np.ndarray:
    """Perturbed orbits (n, columns), time-major, of the starts x0
    (columns,), columns a multiple of the trials of u (trials, n - 1):
    column c kicks with u[c % trials].  delta is a float or one positive
    value per column; the kick a + (b - a) * u, (a, b) = (-delta/2,
    delta/2), is the double rng.uniform(a, b) draws, so a column matches
    its trial run alone bit for bit.  No -0.0 arises in forward passes, so
    numpy's min and max equal Python's."""
    lo, hi = map_.domain
    xs = np.empty((u.shape[1] + 1, len(x0)))
    xs[0] = x0
    kicks = np.empty(xs[1:].shape)  # (n - 1, columns)
    kicks.reshape(len(kicks), -1, len(u))[:] = u.T[:, None]
    kicks *= delta / 2 - -delta / 2
    kicks += -delta / 2  # (b - a) * u + a: the same sum
    kicked = np.ndim(delta) > 0 or delta > 0
    for i, kick in enumerate(kicks):
        y = map_.value(xs[i])
        xs[i + 1] = np.minimum(np.maximum(y + kick, lo), hi) if kicked else y
    return xs


def _pieces(map_: TentMap | EndpointFixedMap, trials: int):
    """(m, c, bound) per piece (rows) and trial (columns): slopes, intercepts
    and the piece ends (lo, -hi), so that max(bound, (lo, -hi)) clips a
    window (lo, -hi) to each piece as (xlo, -xhi)."""
    plo, phi_, m, c = (np.broadcast_to(v[:, None], (len(v), trials)).copy()
                       for v in np.array(map_.pieces()).T)
    return m, c, np.stack([plo, -phi_])


def _interval_track(map_: TentMap | EndpointFixedMap, xs: np.ndarray,
                    epsilon: float) -> np.ndarray:
    """The forward half of _interval_shadow on every column of xs (n,
    trials): s (n, 2, trials), s[t] = (lo, -hi) of the interval S_t =
    f(S_{t-1}) ∩ [x_t - r, x_t + r], r = eps - MARGIN (S_0: the window ∩
    domain), so that a shadow rebuilt on a window's edge stays below eps; hi
    negated so that one maximum clips both ends.  f is continuous, so S_t is
    one interval, its ends the min and max over the pieces of
    m * clip(S_{t-1}, piece) + c; once empty (lo > hi) it stays empty, and
    from the step after that both entries are +inf."""
    if not epsilon > MARGIN:  # else the radius is not positive
        raise ValueError(f"epsilon must be > 2^-50 on an interval map; "
                         f"got {epsilon}")
    m, c, bound = _pieces(map_, xs.shape[1])
    # y[b, a] = slope * q[b] + shift: f at the clipped end b, negated if a
    slope, shift = np.array([[m, -m], [-m, m]]), np.array([[c, -c], [c, -c]])
    q, y = np.empty((2,) + slope.shape)
    d = np.empty(m.shape)
    s = xs[:, None] * [[1.0], [-1.0]]  # the windows (x - r, -(x + r))
    s -= epsilon - MARGIN
    np.maximum(s[0], [[map_.domain[0]], [-map_.domain[1]]], out=s[0])
    with np.errstate(invalid="ignore"):  # 0 * inf: flat piece, empty S
        for t in range(1, len(xs)):
            np.maximum(bound[:, None], s[t - 1, :, None, None], out=q)
            np.add(np.multiply(slope, q, out=y), shift, out=y)
            image = np.minimum(y[0], y[1], out=y[0])  # (lo, -hi) per piece
            miss = np.add(q[0, 0], q[1, 0], out=d) > 0.0  # xlo > xhi
            np.copyto(image, np.inf, where=miss)  # the piece misses S_{t-1}
            np.maximum(s[t], np.minimum.reduce(image, axis=1), out=s[t])
    return s


def _interval_shadow(map_: TentMap | EndpointFixedMap, xs: np.ndarray,
                     epsilon: float):
    """shadow_interval on every column of xs (n, trials): (ok, s), s the
    windows of _interval_track (those of a trial whose S_t empties end as a
    point).  The shadow, written over xs (meaningful where ok), starts at
    the midpoint of S_n and steps back to the preimage of least residual
    |m x - (y - c)|, x clipped to piece ∩ S_{t-1}, so it stays in every S_t.
    A trial fails when some S_t empties or the shadow reaches epsilon
    (boundary-equal fails).  The only backward rebuild, for shadow_interval;
    shadowing_modulus counts from _interval_track alone."""
    n, trials = xs.shape
    s = _interval_track(map_, xs, epsilon)
    m, c, bound = _pieces(map_, trials)
    q, (x, d, r) = np.empty((2,) + m.shape), np.empty((3,) + m.shape)
    alive = s[-1, 0] <= -s[-1, 1]
    s[..., ~alive] = [[map_.domain[0]], [-map_.domain[0]]]  # finite rebuilds
    safe, cols = np.where(m == 0, np.inf, m), np.arange(trials)
    y = 0.5 * (s[-1, 0] - s[-1, 1])
    deviation, xs[-1] = np.abs(y - xs[-1]), y
    for t in range(n - 1, 0, -1):
        np.divide(np.subtract(y, c, out=d), safe, out=x)  # flat: 0
        np.maximum(bound, s[t - 1, :, None], out=q)
        np.negative(q[1], out=q[1])  # (xlo, xhi)
        np.minimum(np.maximum(x, q[0], out=x), q[1], out=x)
        np.abs(np.subtract(np.multiply(m, x, out=r), d, out=r), out=r)
        np.copyto(r, np.inf, where=q[0] > q[1])
        y = x[r.argmin(axis=0), cols]
        np.maximum(deviation, np.abs(y - xs[t - 1]), out=deviation)
        xs[t - 1] = y
    return alive & (deviation < epsilon), s


def shadow_interval(map_: TentMap | EndpointFixedMap, po: PseudoOrbit,
                    epsilon: float) -> ShadowResult | None:
    """Tracks the interval of attainable current values {f^t(x) : x shadows
    so far}, which keeps every number O(1) on expanding maps, then rebuilds
    the shadow backward, contracting where the map expands.  None when the
    interval empties or the shadow reaches epsilon (strict failure at the
    boundary per the shadowing definition).  A batch of one; epsilon must
    be > MARGIN."""
    ys = np.array(po.states, dtype=float)[:, None]
    if not _interval_shadow(map_, ys, epsilon)[0][0]:
        return None
    per_step = np.abs(ys[:, 0] - po.states).tolist()
    return ShadowResult(point=float(ys[0, 0]), max_deviation=max(per_step),
                        per_step=per_step)


def shadowing_modulus(system: System, epsilon: float, trials: int, length: int,
                      seed: int):
    """Empirical delta(epsilon): sweep delta downward by halving, then bisect
    around the success threshold; returns (delta_hat, table of
    (delta, successes, trials)).  Past the refusals, a table that a lemma
    settles is one certified row (epsilon, trials, trials), and nothing is
    drawn.  On a shift the splice shadows a 2^-m <= epsilon pseudo-orbit
    within epsilon / 2.  The slope-2 tent maps the window of radius r =
    epsilon - MARGIN around x onto a set holding the radius-2r one around
    f(x) (in [0, 2]), which holds the next window after a step of at most
    epsilon / 2 with slack epsilon / 2 - 2^-50 >= 2^-50 from
    CERTIFIED_TENT_EPS on; a step's roundings (a doubled and a new window
    end, the kick and the kicked sum; the images are exact) take at most
    2^-51 + epsilon 2^-52 of it, so every S_t is a whole window.  Other
    interval maps draw the starts, then the kicks, from one make_rng(seed)
    once per call, and count a trial as shadowed when S_n is nonempty and
    the certificate max_t max(x_t - lo_t, hi_t - x_t) is below epsilon:
    the rebuild keeps y_t in S_t, and
    rounded subtraction is monotone, so fl|y_t - x_t| is at most the
    certificate.  MARGIN keeps the certificate of every live trial below
    epsilon, so every count is that of a rebuild of every trial, and none
    is rebuilt.  Rows are drawn in passes of at most PASS_COLUMNS columns
    (rows x trials, at least one row), one _interval_track call each: a
    sweep pass the next halvings, a bisection pass every midpoint the next
    rounds can visit.  A column's count is that of its row run alone, and
    the search replays its decisions from the counts, so the table holds
    exactly the rows, and counts, of the row-by-row search.  On a shift
    epsilon must be < 1, and of at most 128 symbols each needs a successor;
    on an interval map epsilon must be > MARGIN (_interval_track refuses
    it, below the tent's floor)."""
    if not (math.isfinite(epsilon) and epsilon > 0 and trials >= 1
            and length >= 2):
        raise ValueError(f"need finite epsilon > 0, trials >= 1, length >= 2; "
                         f"got {epsilon}, {trials}, {length}")
    if isinstance(system, ShiftSpace):
        if epsilon >= 1:
            raise ValueError(f"epsilon must be < 1 on a shift; got {epsilon}")
        _successor_table(system)  # refuses past 128 symbols or a dead end
        return epsilon, [(epsilon, trials, trials)]
    if (isinstance(system, TentMap) and system.slope == 2.0
            and epsilon >= CERTIFIED_TENT_EPS):
        return epsilon, [(epsilon, trials, trials)]
    rng = make_rng(seed)  # starts as _random_start draws them
    x0 = rng.uniform(system.domain[0] + 1e-6, system.domain[1] - 1e-6, trials)
    u = rng.random((trials, length - 1))

    def run(deltas: list[float]) -> list[int]:  # one count per delta
        xs = _interval_orbits(system, np.tile(x0, len(deltas)),
                              np.repeat(deltas, trials), u)
        s = _interval_track(system, xs, epsilon)
        alive = s[-1, 0] <= -s[-1, 1]
        np.subtract(s[:, 0], xs, out=s[:, 0])  # lo - x
        np.add(s[:, 1], xs, out=s[:, 1])  # x - hi
        reach = np.negative(s, out=s).max(axis=(0, 1))  # the certificate
        ok = (alive & (reach < epsilon)).reshape(len(deltas), trials)
        return np.count_nonzero(ok, axis=1).tolist()

    delta, bad, table, drawn = epsilon, None, [], {}  # sweep, then bisection
    rows = max(1, PASS_COLUMNS // trials)  # halvings per sweep pass
    # bisection rounds per pass: the most with (2^depth - 1) trials columns
    depth = max(1, (PASS_COLUMNS // trials + 1).bit_length() - 1)

    def good(d: float, ahead: list[float]) -> bool:  # records one row
        if d not in drawn:  # a pass: d, then what the next rows can visit
            drawn.update(zip(ahead, run(ahead)))
        table.append((d, drawn[d], trials))
        return drawn[d] / trials >= SUCCESS_TARGET

    for i in range(SWEEP):  # halving is exact: no delta here is subnormal
        if good(delta, [delta / 2 ** j for j in range(min(rows, SWEEP - i))]):
            break
        bad, delta = delta, delta / 2
    else:
        return 0.0, table
    lo, hi = delta, bad  # lo: the largest good delta so far
    rounds = REFINE_ROUNDS if bad is not None else 0
    for i in range(rounds):
        mid = 0.5 * (lo + hi)
        ahead = _midpoints(lo, hi, min(depth, rounds - i))
        lo, hi = (mid, hi) if good(mid, ahead) else (lo, mid)
    table.sort(key=lambda r: -r[0])
    return lo, table


def _midpoints(lo: float, hi: float, rounds: int) -> list[float]:
    """The 2^rounds - 1 midpoints that `rounds` bisection rounds of (lo, hi)
    can visit, round by round, the first round's first."""
    out, level = [], [(lo, hi)]
    for _ in range(rounds):
        mids = [0.5 * (a + b) for a, b in level]
        out += mids
        level = [c for (a, b), m in zip(level, mids) for c in ((m, b), (a, m))]
    return out


def _random_start(system: System, rng) -> State:
    """A drawn word with its canonical cycle, or a point inside the domain;
    symbol 0 is floor(u * k), then _successor_chain draws the rest."""
    if isinstance(system, ShiftSpace):
        u, k = rng.random(START_LENGTH), system.alphabet_size
        word = _successor_chain(system, min(u[0] * k, k - 1), u[1:])
        return word_state(system, word.tolist())
    lo, hi = system.domain
    return float(rng.uniform(lo + 1e-6, hi - 1e-6))


@functools.cache
def _successor_table(shift: ShiftSpace):
    """Read-only (k, k + 1) table of allowed successors, padded with the last
    one, and their counts: table[a, floor(u * count[a])] is uniform, u = 1
    the last (cached)."""
    k = shift.alphabet_size
    succ = [[b for b in range(k) if shift.allowed(a, b)] for a in range(k)]
    if not all(succ):
        raise ValueError("a symbol has no allowed successor")
    table = np.array([s + s[-1:] * (k + 1 - len(s)) for s in succ],
                     int8_symbols(k))
    count = np.array([len(s) for s in succ])
    table.flags.writeable = count.flags.writeable = False
    return table, count
