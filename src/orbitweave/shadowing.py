"""Pseudo-orbit construction and shadowing searches.

Shifts get the exact symbolic splice (first symbol of every pseudo-orbit
state), with the guarantee that a validated 2^-m pseudo-orbit is shadowed to
within 2^-(m+1).  Interval maps get branchwise interval refinement over the
linear pieces; failure is reported honestly and a tracked-interval cap turns
into a resource error rather than a bogus nonexistence claim.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .systems import (EndpointFixedMap, ShiftSpace, State, System, TentMap,
                      Word, apply_map, dist)

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

    def __len__(self):
        return len(self.states)


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
    if len(states) < 2:
        raise ValueError("need at least 2 states")
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
    k = shift.alphabet_size
    # BFS for the shortest path last -> ... -> last with >= 1 edge
    from collections import deque
    prev = {}
    queue = deque()
    for b in sorted(range(k)):
        if shift.allowed(last, b) and b not in prev:
            prev[b] = None
            queue.append(b)
    while queue:
        u = queue.popleft()
        if shift.allowed(u, last):
            path = [u]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return (last,) + tuple(reversed(path))
        for b in sorted(range(k)):
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
    resampling below resolution delta on shifts; delta = 0 gives the orbit."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = make_rng(seed)
    if isinstance(system, ShiftSpace):
        if delta == 0:
            states = [x0]
            for _ in range(n - 1):
                states.append(apply_map(system, states[-1]))
            return PseudoOrbit(tuple(states), 0.0)
        m = int(math.ceil(-math.log2(delta)))  # keep 2^-m <= delta
        if m < 1:
            raise ValueError("shift perturbation needs delta < 1")
        succ = _successors(system)
        states = [x0]
        for _ in range(n - 1):
            base = apply_map(system, states[-1])
            head = list(base.prefix(m))
            for _ in range(8):  # resampled tail below resolution 2^-m
                choices = succ[head[-1]]
                head.append(choices[rng.integers(len(choices))])
            states.append(word_state(system, head))
        return PseudoOrbit(tuple(states), delta)
    lo, hi = system.domain
    states = [float(x0)]
    for _ in range(n - 1):
        y = apply_map(system, states[-1])
        if delta > 0:
            y = min(hi, max(lo, y + rng.uniform(-delta / 2, delta / 2)))
        states.append(y)
    return PseudoOrbit(tuple(states), delta)


def shadow_shift(shift: ShiftSpace, po: PseudoOrbit) -> ShadowResult:
    """Symbolic splice: z_i is the first symbol of states[i], tail from the
    last state.  For delta = 2^-m the deviation is at most 2^-(m+1)."""
    states = po.states
    firsts = [s.symbol(0) for s in states[:-1]]
    last = states[-1]
    z = Word(tuple(firsts) + last.head, last.cycle)
    if not shift.admissible(z, depth=len(z.head) + len(z.cycle)):
        raise ValueError("spliced point inadmissible; pseudo-orbit was not validated")
    per_step = []
    for i, s in enumerate(states):
        d = 0.0
        for j in range(AUDIT_DEPTH):
            if z.symbol(i + j) != s.symbol(j):
                d = 2.0 ** (-j)
                break
        per_step.append(d)
    return ShadowResult(point=z, max_deviation=max(per_step), per_step=per_step)


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
    resource error, not a nonexistence claim.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    states = po.states
    map_pieces = map_.pieces()
    lo0 = max(map_.domain[0], states[0] - epsilon)
    hi0 = min(map_.domain[1], states[0] + epsilon)
    if lo0 > hi0:
        return None
    # (value lo, value hi) per tracked interval; back[t - 1][i] is the
    # (interval index at t - 1, branch) that interval i at step t came from
    pieces: list[tuple[float, float]] = [(lo0, hi0)]
    back: list[list[tuple[int, int]]] = []
    for t in range(1, len(states)):
        nxt, ptr = [], []
        for prev, (vlo, vhi) in enumerate(pieces):
            for bi, (plo, phi_, m, c) in enumerate(map_pieces):
                xlo, xhi = max(vlo, plo), min(vhi, phi_)
                if xlo > xhi:
                    continue
                ylo, yhi = sorted((m * xlo + c, m * xhi + c))
                ylo = max(ylo, states[t] - epsilon)
                yhi = min(yhi, states[t] + epsilon)
                if ylo > yhi:
                    continue
                nxt.append((ylo, yhi))
                ptr.append((prev, bi))
        if len(nxt) > piece_cap:
            raise ResourceCapError(f"{len(nxt)} tracked intervals exceed cap")
        if not nxt:
            return None
        pieces = nxt
        back.append(ptr)
    i = max(range(len(pieces)), key=lambda j: pieces[j][1] - pieces[j][0])
    ys = [0.5 * (pieces[i][0] + pieces[i][1])]
    for ptr in reversed(back):
        i, bi = ptr[i]
        plo, phi_, m, c = map_pieces[bi]
        y = (ys[-1] - c) / m
        ys.append(min(max(y, plo), phi_))  # clamp rounding into the branch
    ys.reverse()
    per_step = [abs(y - s) for y, s in zip(ys, states)]
    result = ShadowResult(point=ys[0], max_deviation=max(per_step),
                          per_step=per_step)
    if result.max_deviation >= epsilon:  # boundary-equal deviations fail
        return None
    return result


def shadowing_modulus(system: System, epsilon: float, trials: int, length: int,
                      seed: int, success_target: float = 0.95,
                      refine_rounds: int = 4):
    """Empirical delta(epsilon): sweep delta downward by halving, then bisect
    around the success threshold; returns (delta_hat, table of
    (delta, successes, trials))."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    table = []

    def run(delta: float) -> int:
        ok = 0
        for t in range(trials):
            rng = make_rng(seed + 7919 * t)
            x0 = _random_start(system, rng)
            try:
                po = perturbed_orbit(system, x0, length, delta,
                                     seed=seed + 104729 * t + 1)
            except PseudoOrbitViolation:
                continue
            try:
                if isinstance(system, ShiftSpace):
                    res = shadow_shift(system, po)
                    if res.max_deviation < epsilon:
                        ok += 1
                else:
                    if shadow_interval(system, po, epsilon) is not None:
                        ok += 1
            except (ResourceCapError, ValueError):
                pass
        return ok

    # coarse sweep
    good = None
    bad = None
    delta = epsilon
    for _ in range(14):
        ok = run(delta)
        table.append((delta, ok, trials))
        if ok / trials >= success_target:
            good = delta
            break
        bad = delta
        delta /= 2
    if good is None:
        return 0.0, table
    if bad is not None:
        lo, hi = good, bad
        for _ in range(refine_rounds):
            mid = 0.5 * (lo + hi)
            ok = run(mid)
            table.append((mid, ok, trials))
            if ok / trials >= success_target:
                lo = mid
            else:
                hi = mid
        good = lo
    table.sort(key=lambda r: -r[0])
    best = max((d for d, ok, tr in table if ok / tr >= success_target),
               default=0.0)
    return best, table


def _random_start(system: System, rng) -> State:
    if isinstance(system, ShiftSpace):
        succ = _successors(system)
        head = [int(rng.integers(system.alphabet_size))]
        for _ in range(31):
            choices = succ[head[-1]]
            head.append(choices[rng.integers(len(choices))])
        return word_state(system, head)
    lo, hi = system.domain
    return float(rng.uniform(lo + 1e-6, hi - 1e-6))


def _successors(shift: ShiftSpace) -> list[list[int]]:
    """Allowed next symbols of every symbol, in increasing order."""
    k = shift.alphabet_size
    return [[b for b in range(k) if shift.allowed(a, b)] for a in range(k)]
