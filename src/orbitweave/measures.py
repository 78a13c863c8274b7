"""Probability measures on state space and the weak* metric.

Atomic measures are finitely supported; Markov measures carry an exact
entropy formula; mixtures of Markov measures stay explicit weighted lists so
entropy is affine by construction.  The weak* distance is evaluated against a
deterministic truncated test-function family of cylinder indicators; every
reported distance is exact for the truncated family and the truncation tail
bound is 2^-N.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .systems import ShiftSpace, State, Word, int8_symbols, real_number

__all__ = [
    "AtomicMeasure",
    "MarkovMeasure",
    "MixtureMeasure",
    "TestFunctionFamily",
    "CylinderIndicator",
    "LocallyConstantObservable",
    "bernoulli",
    "weak_star_distance",
    "markov_entropy",
    "chain_entropy",
    "integrate",
    "convex_decompose",
    "DecompositionError",
    "measure_from_json",
]


class DecompositionError(ValueError):
    """Rational convex decomposition missed its 1/k target under the cap."""

    def __init__(self, msg, achieved):
        super().__init__(msg)
        self.achieved = achieved


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure: tuple of (state, weight)."""

    atoms: tuple[tuple[State, float], ...]

    def __post_init__(self):
        total = sum(w for _, w in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("weights must be positive")

    def cylinder_mass(self, w: Sequence[int]) -> float:
        """Summed weight of the atoms whose prefix is w."""
        if not all(isinstance(x, Word) for x, _ in self.atoms):
            raise TypeError("cylinder masses need shift states")
        w = tuple(w)
        return sum(p for x, p in self.atoms if x.prefix(len(w)) == w)


class MarkovMeasure:
    """Row-stochastic matrix plus its stationary vector; shift-invariant measure."""

    def __init__(self, stochastic, stationary=None, shift: ShiftSpace | None = None):
        P = _numbers(stochastic, "stochastic matrix P")
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("stochastic matrix must be square")
        # each check is written so that a NaN fails it
        if not (np.all(P >= 0) and np.all(np.abs(P.sum(axis=1) - 1) <= 1e-12)):
            raise ValueError("rows must be nonnegative and sum to 1 within 1e-12")
        self.P = P
        if stationary is None:
            stationary = _stationary_vector(P)
        pi = _numbers(stationary, "stationary vector pi")
        if not np.all(np.abs(pi @ P - pi) <= 1e-10):
            raise ValueError("stationary vector is not fixed by the matrix")
        if not (np.all(pi >= 0) and abs(pi.sum() - 1.0) <= 1e-12):
            raise ValueError("stationary vector must be nonnegative and sum "
                             "to 1")
        self.pi = pi
        if shift is not None:
            if P.shape[0] != shift.alphabet_size:
                raise ValueError(f"{P.shape[0]}-symbol measure on a "
                                 f"{shift.alphabet_size}-symbol shift")
            if np.any((P > 0) & ~np.array(shift.transition, bool)):
                raise ValueError("support transition forbidden by the SFT")
        self.shift = shift

    @property
    def alphabet_size(self) -> int:
        return self.P.shape[0]

    def cylinder_mass(self, w: Sequence[int]) -> float:
        if len(w) == 0:
            return 1.0
        m = self.pi[w[0]]
        for a, b in zip(w, w[1:]):
            m *= self.P[a, b]
        return float(m)

    def sample_words(self, count: int, n: int, rng) -> np.ndarray:
        """(count, n) int8 matrix of words, drawn from one uniform array by
        inverse CDF one column at a time: column 0 from pi, each later column
        from the row of P of the symbol before it, the symbol being how many
        of the row's cumulative sums the uniform reaches.  A uniform past a
        row's float sum goes to that row's last positive-probability symbol,
        so no zero-probability symbol or transition is ever drawn: the sums
        from that symbol on are +inf, which no uniform reaches, and the last
        column, always one of them, is left out."""
        u = rng.random((count, n)).T.copy()  # u[j]: column j, contiguous
        table = np.vstack([self.pi, self.P])  # row 0 is pi, row 1 + a is P[a]
        k = self.alphabet_size
        last = k - 1 - np.argmax(table[:, ::-1] > 0, axis=1)
        cum = np.where(np.arange(k) < last[:, None], np.cumsum(table, axis=1),
                       np.inf)[:, :-1].T.copy()  # cum[c]: sums to c per row
        W = np.empty((count, n), dtype=int8_symbols(k))
        row = np.zeros(count, dtype=np.intp)
        for j, uj in enumerate(u):
            sym = np.zeros(count, dtype=np.intp)
            for c in cum:
                sym += uj >= c[row]
            W[:, j] = sym
            row = np.add(sym, 1, out=sym)
        return W

    def sample_word(self, n: int, rng) -> tuple[int, ...]:
        return tuple(self.sample_words(1, n, rng)[0].tolist())

    def __eq__(self, other):
        return (isinstance(other, MarkovMeasure)
                and np.array_equal(self.P, other.P)
                and np.array_equal(self.pi, other.pi))

    def __repr__(self):
        return f"MarkovMeasure(P={self.P.tolist()})"


@dataclass(frozen=True)
class MixtureMeasure:
    """Explicit convex combination of Markov measures (never collapsed)."""

    components: tuple[tuple[Union[float, Fraction], MarkovMeasure], ...]

    def __post_init__(self):
        if not all(real_number(a) for a, _ in self.components):
            raise TypeError("mixture weights must be numbers; got "
                            f"{[a for a, _ in self.components]!r}")
        total = math.fsum(a for a, _ in self.components)
        if not abs(total - 1.0) <= 1e-12:  # a NaN weight fails here
            raise ValueError("mixture weights must sum to 1")
        if not all(float(a) > 0 for a, _ in self.components):
            raise ValueError("mixture weights must be positive")

    def cylinder_mass(self, w) -> float:
        return sum(float(a) * m.cylinder_mass(w) for a, m in self.components)


def bernoulli(p, shift: ShiftSpace | None = None) -> MarkovMeasure:
    """Bernoulli measure: i.i.d. symbols with the given probability vector
    (a scalar p means the 2-letter (1-p, p) measure, 1 - p taken of the
    decimal p: 0.7 gives 0.3, not 0.30000000000000004)."""
    probs = _numbers(p, "bernoulli parameter")
    if probs.ndim == 0:
        probs = np.array([float(1 - Fraction(repr(float(probs)))), probs])
    P = np.tile(probs, (len(probs), 1))
    return MarkovMeasure(P, probs, shift=shift)


@dataclass(frozen=True)
class CylinderIndicator:
    word: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class LocallyConstantObservable:
    """Function of the first `depth` symbols of a shift point."""

    depth: int
    table: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        words = [tuple(w) for w, _ in self.table]
        if not words or any(len(w) != self.depth or {type(a) for a in w} - {int}
                            for w in words) or len(set(words)) < len(words):
            raise ValueError(f"observable table needs distinct words of {self.depth} "
                             f"integer symbols; got {[list(w) for w in words]}")
        values = _numbers([v for _, v in self.table], "observable values")
        object.__setattr__(self, "table", tuple(zip(words, values.tolist())))

    def lookup(self) -> dict:
        return _Lookup(self.table)

    @property
    def value_range(self) -> tuple[float, float]:
        vals = [v for _, v in self.table]
        return min(vals), max(vals)


class _Lookup(dict):  # a missing word raises ValueError, naming it
    def __missing__(self, word):
        raise ValueError(f"observable table misses the word {list(word)}")


def frequency_observable(symbol: int, alphabet_size: int = 2) -> LocallyConstantObservable:
    if not 0 <= symbol < alphabet_size:
        raise ValueError(f"frequency symbol {symbol} is not in the alphabet "
                         f"of {alphabet_size} symbols")
    table = tuple(((a,), 1.0 if a == symbol else 0.0) for a in range(alphabet_size))
    return LocallyConstantObservable(depth=1, table=table)


class TestFunctionFamily:
    """Deterministic truncated family behind the weak* metric.

    The only kind is "cylinder": indicators of cylinders ordered by
    (length, lexicographic).  All sup norms equal 1; the tail bound of the
    truncation is 2^-N.
    """

    __test__ = False  # not a test case despite the class name prefix

    def __init__(self, kind: str, N: int, alphabet_size: int = 2):
        if N < 1:
            raise ValueError("truncation N must be >= 1")
        if kind != "cylinder":
            raise ValueError(f"unknown family kind {kind!r}")
        self.N = N
        self.alphabet_size = alphabet_size
        self.functions = list(itertools.islice(
            _enumerate_cylinders(alphabet_size), N))

    @property
    def tail(self) -> float:
        return 2.0 ** (-self.N)

    @functools.cached_property
    def max_depth(self) -> int:
        return max(f.depth for f in self.functions)


def _enumerate_cylinders(k: int):
    for length in itertools.count(1):
        yield from map(CylinderIndicator, ShiftSpace(k).admissible_words(length))


def integrate(measure, phi) -> float:
    """Exact integral of a cylinder indicator or a locally constant
    observable, read off the measure's cylinder masses."""
    if isinstance(phi, CylinderIndicator):
        return measure.cylinder_mass(phi.word)
    masses = [measure.cylinder_mass(w) for w, _ in phi.table]
    if not abs(math.fsum(masses) - 1.0) <= 1e-9:
        raise KeyError("observable table misses a word that carries mass")
    return sum(m * v for m, (_, v) in zip(masses, phi.table))


def weak_star_distance(mu, nu, family: TestFunctionFamily) -> float:
    """Truncated weak* distance sum_{i<=N} |int phi_i dmu - int phi_i dnu| / 2^(i+1).

    The omitted tail is bounded by family.tail = 2^-N.
    """
    total = 0.0
    for i, phi in enumerate(family.functions, start=1):
        diff = abs(integrate(mu, phi) - integrate(nu, phi))
        total += diff / 2.0 ** (i + 1)
    return total


def markov_entropy(m) -> float:
    """Entropy in nats: -sum pi_i P_ij log P_ij, affine on mixtures."""
    if isinstance(m, MixtureMeasure):
        return sum(float(a) * markov_entropy(c) for a, c in m.components)
    return float(chain_entropy(m.P, m.pi))


def chain_entropy(P: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """-sum pi_i P_ij log P_ij of every chain of a stack P (..., k, k), pi
    (..., k); each sum runs over its own chain alone."""
    logs = np.log(np.where(P > 0, P, 1.0))  # log 1 = 0 where P_ij = 0
    terms = pi[..., :, None] * P * logs
    return -terms.reshape(*terms.shape[:-2], P.shape[-1] ** 2).sum(axis=-1)


def _numbers(values, name: str) -> np.ndarray:
    """values as floats, refused unless each is an int or a float, in rows of
    one length (numpy reads a bool among numbers as one, and fails on ragged
    rows with a message that names neither the key nor the value)."""
    if not all(map(real_number, np.asarray(values, dtype=object).flat)):
        raise ValueError(f"{name} must hold numbers; got {values!r}")
    return np.asarray(values, dtype=float)


def _stationary_vector(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def convex_decompose(nu, k: int, family: TestFunctionFamily,
                     denominator_cap: int = 10_000):
    """Rational convex combination of the ergodic components within 1/k.

    Ergodic Markov input returns itself with coefficient 1.  Mixtures get the
    smallest-denominator rational reweighting whose weak* distance to the
    input is <= 1/k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(nu, MarkovMeasure):
        return [(Fraction(1), nu)]
    if not isinstance(nu, MixtureMeasure):
        raise TypeError("expected MarkovMeasure or MixtureMeasure")
    weights = [a for a, _ in nu.components]
    comps = [m for _, m in nu.components]
    if all(isinstance(a, Fraction) for a in weights):
        return [(a, m) for a, m in nu.components]
    target = 1.0 / k
    best = None
    for q in range(1, denominator_cap + 1):
        fracs = _rational_weights(weights, q)
        if fracs is None:
            continue
        cand = MixtureMeasure(tuple(zip(fracs, comps)))
        d = weak_star_distance(nu, cand, family)
        if best is None or d < best[0]:
            best = (d, list(zip(fracs, comps)))
        if d <= target:
            return list(zip(fracs, comps))
    raise DecompositionError(
        f"no denominator <= {denominator_cap} reaches 1/{k}; "
        f"achieved {best[0] if best else math.inf}",
        achieved=best[0] if best else math.inf)


def _rational_weights(weights, q):
    """Round weights to multiples of 1/q, keeping positivity and total 1."""
    counts = [max(1, round(float(w) * q)) for w in weights]
    excess = sum(counts) - q
    order = sorted(range(len(counts)),
                   key=lambda i: counts[i] - float(weights[i]) * q,
                   reverse=excess > 0)
    idx = 0
    while excess != 0 and idx < 10 * len(counts):
        i = order[idx % len(counts)]
        step = -1 if excess > 0 else 1
        if counts[i] + step >= 1:
            counts[i] += step
            excess += step
        idx += 1
    if excess != 0:
        return None
    return [Fraction(c, q) for c in counts]


def measure_from_json(doc, shift: ShiftSpace | None = None):
    """Measures from JSON: {"P": ..., "pi": ...} (pi optional), {"bernoulli":
    p}, or {"mixture": [[weight, component], ...]}, checked uncast."""
    keys = sorted(doc)
    if keys == ["mixture"]:
        return MixtureMeasure(tuple((w, measure_from_json(c, shift))
                                    for w, c in doc["mixture"]))
    if keys == ["bernoulli"]:
        return bernoulli(doc["bernoulli"], shift=shift)
    if keys not in (["P"], ["P", "pi"]):
        raise ValueError(f"measure keys are P (pi), bernoulli or mixture; got {keys}")
    return MarkovMeasure(doc["P"], doc.get("pi"), shift=shift)


def _state_json(x):
    if isinstance(x, Word):
        return {"head": list(x.head), "cycle": list(x.cycle)}
    return float(x)
