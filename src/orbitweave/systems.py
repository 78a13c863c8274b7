"""Dynamical systems: full shifts, subshifts of finite type, tent maps,
and piecewise-linear interval maps with fixed points only at the endpoints.

Shift states are eventually periodic symbol sequences stored as a finite
head plus a repeating cycle, so every operation on them is exact up to a
documented coordinate depth (and fully exact when no depth cap is given).
`ShiftSpace.word_admissible` is the one admissibility check of a shift's
stored 0/1 matrix, on any int sequence or int8 array.  Interval states are
plain floats.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Word",
    "ShiftSpace",
    "TentMap",
    "EndpointFixedMap",
    "State",
    "System",
    "full_shift",
    "golden_mean_shift",
    "apply_map",
    "dist",
    "orbit",
    "system_from_json",
    "KindMismatchError",
    "InteriorFixedPointError",
]


class KindMismatchError(TypeError):
    """State does not belong to the system it was used with."""


class InteriorFixedPointError(ValueError):
    """Piecewise-linear map has a fixed point away from the interval ends."""


@dataclass(frozen=True)
class Word:
    """Eventually periodic one-sided symbol sequence: head then cycle repeated."""

    head: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if len(self.cycle) == 0:
            raise ValueError("cycle must be nonempty")

    def symbol(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        return self.cycle[(i - len(self.head)) % len(self.cycle)]

    def prefix(self, n: int) -> tuple[int, ...]:
        reps = -(-max(0, n - len(self.head)) // len(self.cycle))
        return (self.head + self.cycle * reps)[:max(0, n)]

    def shift(self) -> "Word":
        if self.head:
            return Word(self.head[1:], self.cycle)
        return Word((), self.cycle[1:] + self.cycle[:1])

    @staticmethod
    def periodic(cycle) -> "Word":
        return Word((), tuple(cycle))


def _exact_compare_depth(x: Word, y: Word) -> int:
    """Depth after which two eventually periodic words agreeing so far agree forever."""
    return len(x.head) + len(y.head) + math.lcm(len(x.cycle), len(y.cycle))


def strongly_connected(adjacency: np.ndarray) -> bool:
    """Every vertex reaches every other: each squaring of B | I doubles the
    path length covered, and paths of length m - 1 suffice."""
    reach = adjacency | np.eye(len(adjacency), dtype=bool)
    for _ in range((len(adjacency) - 1).bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def real_number(v) -> bool:  # Python and numpy read a bool as the int 1
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def int8_symbols(k: int) -> type:  # the dtype of drawn symbol arrays
    if k > 128:
        raise ValueError(f"drawn symbols are int8: at most 128 symbols; got {k}")
    return np.int8


@dataclass(frozen=True)
class ShiftSpace:
    """Full shift or subshift of finite type on {0,...,k-1}.

    Metric: d(x,y) = 2^(-k) with k the first index of disagreement.
    """

    alphabet_size: int
    transition: tuple[tuple[int, ...], ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        k = self.alphabet_size
        if type(k) is not int or k < 2:
            raise ValueError(f"alphabet size {k!r} is no integer >= 2")
        t = ((1,) * k,) * k if self.transition is None else tuple(
            map(tuple, self.transition))
        if len(t) != k or any(len(r) != k for r in t):
            raise ValueError("transition matrix shape mismatch")
        if any(type(v) is bool or not isinstance(v, (int, np.integer))
               or v not in (0, 1) for r in t for v in r):
            raise ValueError(f"transition entries must be 0/1; got {t}")
        object.__setattr__(self, "transition",
                           tuple(tuple(map(int, r)) for r in t))

    def allowed(self, a: int, b: int) -> bool:
        return self.transition[a][b] == 1

    def is_irreducible(self) -> bool:
        return strongly_connected(np.array(self.transition, dtype=bool))

    def admissible(self, x: Word, depth: int | None = None) -> bool:
        """Check symbols 0..depth and the transitions between them (full
        exactness if None)."""
        if depth is None:
            depth = len(x.head) + 2 * len(x.cycle)
        return self.word_admissible(x.prefix(depth + 1))

    @functools.cached_property  # read-only, a -> b is entry a * k + b
    def _allowed(self) -> np.ndarray:
        return np.frombuffer(np.array(self.transition, bool).tobytes(), bool)

    def word_admissible(self, seq) -> bool:
        """Symbols and transitions along the last axis allowed (k * k
        overflows int8 from k = 12)."""
        seq = np.asarray(seq)
        k, allowed = self.alphabet_size, self._allowed
        return bool(seq.size == 0 or seq.min() >= 0 and seq.max() < k and (
            allowed.all() or np.all(np.take(
                allowed, seq[..., :-1].astype(np.intp) * k + seq[..., 1:]))))

    def admissible_words(self, length: int) -> list[tuple[int, ...]]:
        """Admissible words of the given length, in lexicographic order."""
        words, k = [()], self.alphabet_size
        for _ in range(length):
            words = [w + (b,) for w in words for b in range(k)
                     if not w or self.transition[w[-1]][b]]
        return words


@dataclass(frozen=True)
class TentMap:
    """f_s on [0,2]: s*x on [0,1], s*(2-x) on [1,2]; 1 < s <= 2."""

    slope: float

    def __post_init__(self):
        if not (isinstance(self.slope, (int, float)) and 1.0 < self.slope <= 2.0):
            raise ValueError(f"slope must be in (1, 2]; got {self.slope!r}")

    domain = (0.0, 2.0)

    def value(self, x):  # elementwise; 2 - x >= x exactly where x <= 1
        return self.slope * np.minimum(x, 2.0 - x)

    def pieces(self):
        """Linear pieces as (xlo, xhi, slope, intercept)."""
        s = self.slope
        return [(0.0, 1.0, s, 0.0), (1.0, 2.0, -s, 2.0 * s)]


@dataclass(frozen=True)
class EndpointFixedMap:
    """Continuous piecewise-linear self-map of [0,1] whose only fixed points
    are at the interval ends; construction rejects interior fixed points."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        for key in ("breakpoints", "values"):
            if not all(map(real_number, knots := getattr(self, key))):
                raise TypeError(f"{key} must be numbers; got {knots!r}")
        bp, vals = tuple(self.breakpoints), tuple(self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) != len(vals) or len(bp) < 2:
            raise ValueError("need matching breakpoint/value knot lists, length >= 2")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not all(b < c for b, c in zip(bp, bp[1:])):  # NaN fails too
            raise ValueError("breakpoints must be strictly increasing")
        if any(not (0.0 <= v <= 1.0) for v in vals):
            raise ValueError("values must lie in [0,1]")
        self._check_no_interior_fixed_point()

    domain = (0.0, 1.0)

    def _check_no_interior_fixed_point(self):
        bp, vals = self.breakpoints, self.values
        tol = 1e-12
        for (a, fa), (b, fb) in zip(zip(bp, vals), zip(bp[1:], vals[1:])):
            ga, gb = fa - a, fb - b
            if abs(ga) <= tol and a not in (0.0, 1.0):
                raise InteriorFixedPointError(f"fixed point at breakpoint {a}")
            if abs(ga) <= tol and abs(gb) <= tol:
                raise InteriorFixedPointError(f"segment [{a},{b}] fixed pointwise")
            if ga * gb < -tol * tol and not (abs(ga) <= tol or abs(gb) <= tol):
                raise InteriorFixedPointError(f"fixed point inside ({a},{b})")

    def value(self, x):
        """Linear interpolation of the knots on [0, 1], elementwise on arrays."""
        bp, vals = np.array(self.breakpoints), np.array(self.values)
        j = np.clip(np.searchsorted(bp, x), 1, len(bp) - 1)  # bp[j-1] < x <= bp[j]
        t = (x - bp[j - 1]) / (bp[j] - bp[j - 1])
        return vals[j - 1] + t * (vals[j] - vals[j - 1])

    def pieces(self):
        out = []
        bp, vals = self.breakpoints, self.values
        for a, b, fa, fb in zip(bp, bp[1:], vals, vals[1:]):
            m = (fb - fa) / (b - a)
            out.append((a, b, m, fa - m * a))
        return out


State = Union[Word, float]
System = Union[ShiftSpace, TentMap, EndpointFixedMap]


def full_shift(k: int) -> ShiftSpace:
    return ShiftSpace(alphabet_size=k)


def golden_mean_shift() -> ShiftSpace:
    """2-shift forbidding the word 11."""
    return ShiftSpace(alphabet_size=2, transition=((1, 1), (1, 0)))


def _require_shift_state(system, x):
    if isinstance(system, ShiftSpace):
        if not isinstance(x, Word):
            raise KindMismatchError("shift system requires Word states")
    else:
        if isinstance(x, Word):
            raise KindMismatchError("interval system requires float states")


def apply_map(system: System, x: State) -> State:
    """One step of the dynamics: left shift, or the interval map."""
    _require_shift_state(system, x)
    if isinstance(system, ShiftSpace):
        return x.shift()
    lo, hi = system.domain
    if not lo <= x <= hi:
        raise ValueError(f"point {x} outside domain {system.domain}")
    return float(system.value(float(x)))


def dist(system: System, x: State, y: State, depth: int | None = None) -> float:
    """Native metric.  For shifts the result is exact when depth is None;
    a finite depth caps the scan and reports 0 for agreement to that depth."""
    _require_shift_state(system, x)
    _require_shift_state(system, y)
    if isinstance(system, ShiftSpace):
        if x.head == y.head and x.cycle == y.cycle:
            return 0.0
        bound = _exact_compare_depth(x, y) if depth is None else depth
        for i in range(bound):
            if x.symbol(i) != y.symbol(i):
                return 2.0 ** (-i)
        return 0.0
    return abs(float(x) - float(y))


def orbit(system: System, x: State, n: int) -> list:
    """[x, f(x), ..., f^(n-1)(x)]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [x]
    for _ in range(n - 1):
        x = apply_map(system, x)
        out.append(x)
    return out


def system_from_json(doc: dict) -> System:
    """Build a system from its JSON description, its keys bound as arguments."""
    readers = {"full_shift": full_shift, "plmap": EndpointFixedMap,
               "sft": lambda transition: ShiftSpace(len(transition), transition),
               "tent": lambda s: TentMap(s)}
    kind = doc.get("kind")
    if kind not in readers:
        raise ValueError(f"unknown system kind: {kind!r}")
    return readers[kind](**{k: v for k, v in doc.items() if k != "kind"})
