"""Constrained entropy maximization over Markov measures.

The supremum sup{h_mu : integral of phi equals alpha} is evaluated through
transfer-matrix pressure and Legendre duality: P(q) is the log spectral
radius of the exp(q phi)-weighted transition matrix, H(alpha) is the
infimum of P(q) - q alpha, and the maximizing measure is the Gibbs-Markov
chain read off the leading eigen-data.  One kernel returns P, P' (the Gibbs
mean of phi) and P'' (its asymptotic variance) from Collatz-Wielandt
certified eigenpairs; Newton steps on P'(q) = alpha inside a bisection
bracket find the infimum.  For locally constant observables on a subshift of
finite type this realizes the supremum exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .entropy import EntropyEstimate, LevelSetQuery, levelset_count
from .measures import (LocallyConstantObservable, MarkovMeasure,
                       TestFunctionFamily, markov_entropy, weak_star_distance)
from .shadowing import make_rng
from .systems import ShiftSpace, strongly_connected

__all__ = [
    "SpectrumPoint",
    "SpectrumResult",
    "pressure",
    "gibbs_kernel",
    "gibbs_data",
    "constrained_sup",
    "spectrum",
    "count_at",
    "shrink_experiment",
    "ReducibleLiftError",
    "EmptyConstraintError",
]

Q_CAP = 50.0           # |q| beyond this changes P(q) - q alpha below 1e-12
POWER_TOL = 1e-12      # relative Collatz-Wielandt spread of a Perron vector
NEWTON_TOL = 1e-13     # |P'(q) - alpha| at which the Newton search stops


class ReducibleLiftError(ValueError):
    """Weighted transition matrix is not irreducible."""


class EmptyConstraintError(ValueError):
    """Constraint set misses the attainable range of the observable."""


def _lift_words(shift: ShiftSpace, depth: int) -> list[tuple[int, ...]]:
    """Admissible words of the given length, in lexicographic order."""
    k = shift.alphabet_size
    return [w for w in itertools.product(range(k), repeat=depth)
            if shift.word_admissible(w)]


@functools.lru_cache(maxsize=128)
def _lift(shift: ShiftSpace, phi: LocallyConstantObservable):
    """(words, src, dst, f): the lift of phi, once per (shift, phi).  The
    vertices are the admissible (d-1)-words (1-words when d = 1); each
    admissible max(d, 2)-word w is an edge from its first to its last vertex
    word, carrying phi of its last d symbols.  The arrays are read-only."""
    d = phi.depth
    side = max(d - 1, 1)
    words = tuple(_lift_words(shift, side))
    index = {w: i for i, w in enumerate(words)}
    edges = _lift_words(shift, max(d, 2))
    src = np.array([index[w[:side]] for w in edges])
    dst = np.array([index[w[-side:]] for w in edges])
    f = np.array([phi.value(w[-d:]) for w in edges], dtype=float)
    adjacency = np.zeros((len(words), len(words)), dtype=bool)
    adjacency[src, dst] = True
    if not strongly_connected(adjacency):
        raise ReducibleLiftError("weighted transition matrix is reducible")
    src.flags.writeable = dst.flags.writeable = f.flags.writeable = False
    return words, src, dst, f


def _perron_vector(M: np.ndarray, lam: float):
    """(v, root): positive Perron vector of the irreducible M by inverse
    iteration from ones, shifted just above the estimate lam, where
    (mu I - M)^-1 is a positive matrix.  Certified once the Collatz-Wielandt
    bounds min and max of (M v) / v, which bracket the root, pinch to
    POWER_TOL relative spread."""
    A = lam * (1.0 + 1e-10) * np.eye(len(M)) - M
    v = np.ones(len(M))
    for _ in range(50):  # each step damps the rest of the spectrum ~1e10-fold
        v = np.linalg.solve(A, v)
        v = v / v.sum()
        if v.min() > 0:
            ratios = (M @ v) / v
            lo, hi = float(ratios.min()), float(ratios.max())
            if hi - lo <= POWER_TOL * hi:
                return v, 0.5 * (lo + hi)
    raise ArithmeticError("Perron vector failed its Collatz-Wielandt bound")


class Gibbs(NamedTuple):
    """Gibbs data at one q: pressure P(q), the Gibbs-Markov chain (Q, pi) on
    the lift's vertices, P'(q) (the Gibbs mean of phi) and P''(q) (the
    asymptotic variance of phi under the Gibbs measure)."""
    P: float
    Q: np.ndarray
    pi: np.ndarray
    mean: float
    var: float


def gibbs_kernel(shift: ShiftSpace, phi: LocallyConstantObservable,
                 q: float) -> Gibbs:
    """Pressure and Gibbs data of q phi on the cached lift.

    The weights exp(q phi - max q phi) keep every entry in [e^-700, 1], so no
    |q| overflows, and a wider spread of q phi is refused; the maximum comes
    back in P.  The chain is
    Q_ij = M_ij r_j / (lam r_i) with stationary vector l r / <l, r>.  The
    variance solves the Poisson equation (I - Q + 1 pi) g = h for the
    conditional mean h of the centred edge value c, and is
    E[(c + g(target) - g(source))^2] under the Gibbs edge masses.
    """
    words, src, dst, f = _lift(shift, phi)
    m = len(words)
    x = q * f
    top = float(x.max())
    if top - float(x.min()) > 700:  # weights below e^-700 would drop off M
        raise ValueError(f"exp(q phi) spans past the float range at q={q}")
    M = np.zeros((m, m))
    M[src, dst] = np.exp(x - top)
    estimate = float(np.linalg.eigvals(M).real.max())
    r, lam = _perron_vector(M, estimate)
    l, _ = _perron_vector(M.T, estimate)
    Q = M * r[None, :] / (lam * r[:, None])
    Q = Q / Q.sum(axis=1, keepdims=True)  # absorb 1e-12 certificate residue
    pi = l * r / (l @ r)
    Q.flags.writeable = pi.flags.writeable = False  # shared by the range cache
    step = Q[src, dst]
    mass = pi[src] * step
    mean = float(mass @ f)
    c = f - mean
    h = np.bincount(src, weights=step * c, minlength=m)
    g = np.linalg.solve(np.eye(m) - Q + pi[None, :], h)
    var = float(mass @ (c + g[dst] - g[src]) ** 2)
    return Gibbs(math.log(lam) + top, Q, pi, mean, var)


def pressure(shift: ShiftSpace, phi: LocallyConstantObservable,
             q: float) -> float:
    """P(q) = log spectral radius of the exp(q phi)-weighted matrix."""
    return gibbs_kernel(shift, phi, q).P


def gibbs_data(shift: ShiftSpace, phi: LocallyConstantObservable, q: float):
    """Gibbs-Markov chain at parameter q: (measure on lifted words, words,
    integral of phi, P(q)).  The chain is the entropy maximizer of
    h + q int(phi).
    """
    g = gibbs_kernel(shift, phi, q)
    return MarkovMeasure(g.Q, g.pi), list(_lift(shift, phi)[0]), g.mean, g.P


@dataclass
class SpectrumPoint:
    alpha: float
    h_var: float | None
    maximizer: MarkovMeasure | None
    h_count: float | None = None
    n_count: int = 0
    q_star: float | None = None
    duality_gap: float | None = None
    maximizer_integral: float | None = None
    empty: bool = False            # constraint set misses the attainable range
    endpoint_limit: bool = False   # alpha at the edge: value is a one-sided limit


@functools.lru_cache(maxsize=128)
def _edge_gibbs(shift: ShiftSpace, phi: LocallyConstantObservable,
                q_cap: float) -> tuple[Gibbs, Gibbs]:
    """Kernel at -q_cap and q_cap: the ends of the attainable range of the
    integral and the one-sided limits there, once per (shift, phi)."""
    return gibbs_kernel(shift, phi, -q_cap), gibbs_kernel(shift, phi, q_cap)


def _point(alpha: float, q: float, g: Gibbs,
           endpoint: bool = False) -> SpectrumPoint:
    chain = MarkovMeasure(g.Q, g.pi)
    gap = markov_entropy(chain) + q * g.mean - g.P
    return SpectrumPoint(alpha, max(g.P - q * alpha, 0.0), chain, q_star=q,
                         duality_gap=gap, maximizer_integral=g.mean,
                         endpoint_limit=endpoint)


def constrained_sup(shift: ShiftSpace, phi: LocallyConstantObservable,
                    alpha: float, q_cap: float = Q_CAP) -> SpectrumPoint:
    """H(alpha) = inf_q (P(q) - q alpha) with the maximizing Gibbs-Markov
    measure.  P' (the Gibbs integral of phi) increases in q, so the infimum
    solves P'(q) = alpha: Newton steps from q = 0 with slope P'', inside a
    bracket on [-q_cap, q_cap] that every evaluation shrinks, bisecting when a
    step would leave it, until |P'(q) - alpha| <= NEWTON_TOL.  Each evaluation
    rests on Collatz-Wielandt certified eigenpairs.  Alpha at or beyond the
    attainable edge comes back as a one-sided limit or tagged empty.
    """
    low, high = _edge_gibbs(shift, phi, q_cap)
    if high.mean - low.mean < 1e-13:  # constant invariant integral
        if abs(alpha - low.mean) <= 1e-9:
            return _point(alpha, 0.0, gibbs_kernel(shift, phi, 0.0))
        return SpectrumPoint(alpha, None, None, empty=True)
    if alpha < low.mean - 1e-9 or alpha > high.mean + 1e-9:
        return SpectrumPoint(alpha, None, None, empty=True)
    if alpha <= low.mean:
        return _point(alpha, -q_cap, low, endpoint=True)
    if alpha >= high.mean:
        return _point(alpha, q_cap, high, endpoint=True)
    lo_q, hi_q, q = -q_cap, q_cap, 0.0
    for _ in range(200):
        g = gibbs_kernel(shift, phi, q)
        miss = g.mean - alpha
        if abs(miss) <= NEWTON_TOL:
            break
        if miss < 0:
            lo_q = q
        else:
            hi_q = q
        if hi_q - lo_q < 1e-13:
            break
        newton = q - miss / g.var if g.var > 0 else lo_q
        q = newton if lo_q < newton < hi_q else 0.5 * (lo_q + hi_q)
    return _point(alpha, q, g)


@dataclass
class SpectrumResult:
    points: list[SpectrumPoint]
    sup_value: float
    sup_alpha: float
    endpoint_points: list[SpectrumPoint] = field(default_factory=list)


def spectrum(shift: ShiftSpace, phi: LocallyConstantObservable,
             lo: float, hi: float, closed: bool,
             alpha_grid, count_n: int | None = None) -> SpectrumResult:
    """Per-alpha values over the grid restricted to the constraint interval,
    plus the supremum over the interval.  Open endpoints contribute their
    one-sided limits (H is continuous) rather than direct evaluations; the
    sup over the interior equals the sup over the closure for convex sets.
    """
    if not (lo < hi):
        raise ValueError("malformed constraint interval")
    inside = (lambda a: lo <= a <= hi) if closed else (lambda a: lo < a < hi)
    points = []
    for a in alpha_grid:
        if not inside(a):
            continue
        pt = constrained_sup(shift, phi, a)
        if pt.empty:
            continue
        if count_n is not None:
            est = count_at(shift, phi, a, count_n)
            pt.h_count = est.value
            pt.n_count = count_n
        points.append(pt)
    candidates = list(points)
    endpoint_pts = []
    for a in (lo, hi):
        pt = constrained_sup(shift, phi, a)
        if not pt.empty:
            if not closed:
                pt.endpoint_limit = True
            endpoint_pts.append(pt)
            candidates.append(pt)
    if not candidates:
        raise EmptyConstraintError(
            "constraint interval misses the attainable range")
    best = max(candidates, key=lambda p: p.h_var)
    return SpectrumResult(points, best.h_var, best.alpha,
                          endpoint_points=endpoint_pts)


def count_at(shift: ShiftSpace, phi: LocallyConstantObservable,
             alpha: float, n: int) -> EntropyEstimate:
    """Level-set counting rate at the achievable average nearest alpha.

    Birkhoff averages over n-windows live on a 1/n-grid of the observable's
    values; the window (nearest - 1/(2n), nearest + 1/(2n)) isolates exactly
    that grid value, so the count is the clean combinatorial object whose
    rate is compared against the variational value at the same point.
    """
    j = round(alpha * n)
    center = j / n
    query = LevelSetQuery(phi, center - 0.5 / n, center + 0.5 / n, n)
    est = levelset_count(shift, query)
    est.diagnostics.append(("nearest_average", center))
    return est


def shrink_experiment(shift: ShiftSpace, nu: MarkovMeasure,
                      family: TestFunctionFamily, delta_grid,
                      search_budget: int, seed: int):
    """sup{h_mu : D(mu, nu) <= delta} over Markov measures, estimated from a
    shared candidate pool so the profile is nonincreasing by construction.

    Candidates are line searches from nu toward random stochastic matrices
    (and toward the uniform one), bisected to each ball boundary, plus local
    perturbations of the per-delta best.  nu itself is always feasible, so
    the estimate never drops below its entropy.  When nu is Bernoulli, the
    line toward the uniform matrix is the Bernoulli family.

    Each reported value is the entropy of a feasible first-order Markov
    chain, so it is a lower bound on the supremum over all invariant
    measures in the ball, not a certified value.
    """
    grid = list(delta_grid)
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta_grid must be strictly decreasing")
    rng = make_rng(seed)
    k = nu.alphabet_size
    base = nu.P
    h_nu = markov_entropy(nu)
    targets = [np.full((k, k), 1.0 / k)]
    for _ in range(search_budget):
        T = rng.random((k, k)) + 1e-9
        targets.append(T / T.sum(axis=1, keepdims=True))

    def chain_at(t, T):
        return MarkovMeasure((1.0 - t) * base + t * T)

    pool: list[tuple[float, float, np.ndarray]] = []  # (distance, entropy, P)

    def add(m):
        pool.append((weak_star_distance(m, nu, family), markov_entropy(m), m.P))

    for T in targets:
        full = chain_at(1.0, T)
        add(full)
        for delta in grid:
            if weak_star_distance(full, nu, family) <= delta:
                continue
            lo_t, hi_t = 0.0, 1.0
            for _ in range(50):
                mid = 0.5 * (lo_t + hi_t)
                if weak_star_distance(chain_at(mid, T), nu, family) <= delta:
                    lo_t = mid
                else:
                    hi_t = mid
            add(chain_at(lo_t, T))
    # local refinement of the best point inside each ball
    for delta in grid:
        feas = [(h, P) for d, h, P in pool if d <= delta]
        if not feas:
            continue
        _, P = max(feas, key=lambda x: x[0])
        for _ in range(40):
            noise = rng.normal(0.0, 0.01, size=(k, k))
            cand = np.clip(P + noise, 1e-9, None)
            cand = cand / cand.sum(axis=1, keepdims=True)
            m = MarkovMeasure(cand)
            d = weak_star_distance(m, nu, family)
            h = markov_entropy(m)
            pool.append((d, h, cand))
            if d <= delta and h > markov_entropy(MarkovMeasure(P)):
                P = cand
    rows = []
    for delta in grid:
        sup_hat = max([h_nu] + [h for d, h, _ in pool if d <= delta])
        rows.append((delta, sup_hat))
    return rows
