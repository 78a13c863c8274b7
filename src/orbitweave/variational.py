"""Entropy maximization on a subshift of finite type through one kernel.

The kernel weights the lift (the admissible words) by exp(F c), F a feature
matrix, and returns P(c), the Gibbs-Markov chain, and the Gibbs mean and
covariance of the features (gradient and Hessian of P) from certified
Perron eigenpairs.  sup{h_mu : integral of phi equals alpha} is
inf_q P(q) - q alpha, by Newton steps on P'(q) = alpha in a bisection
bracket, exact for locally constant phi.  sup{h_mu : D(mu, nu) <= delta} is
bracketed by weak duality from above, minimised by log-barrier Newton
steps, and by a Gibbs measure mixed into the ball from below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .entropy import EntropyEstimate, LevelSetQuery, levelset_count
from .measures import (LocallyConstantObservable, MarkovMeasure,
                       TestFunctionFamily, markov_entropy)
from .systems import ShiftSpace, strongly_connected

__all__ = [
    "SpectrumPoint",
    "SpectrumResult",
    "gibbs_kernel",
    "gibbs_data",
    "constrained_sup",
    "spectrum",
    "count_at",
    "shrink_experiment",
    "ShrinkRow",
    "ReducibleLiftError",
    "EmptyConstraintError",
]

# |q| at the range ends; the Gibbs means there miss extreme cycle means of phi
# that lie close (0.29934 for 0.3: depth-2 {00: 0.3, 01: 1.0, 10: -0.5} on the
# golden mean), so an alpha between the two reads as empty
Q_CAP = 50.0
POWER_TOL = 1e-12      # relative Collatz-Wielandt spread of a Perron vector
NEWTON_TOL = 1e-13     # |P'(q) - alpha| at which the Newton search stops
GAP_TOL = 1e-11        # upper - lower at which the shrink barrier stops


class ReducibleLiftError(ValueError):
    """Weighted transition matrix is not irreducible."""


class EmptyConstraintError(ValueError):
    """Constraint set misses the attainable range of the observable."""


@functools.lru_cache(maxsize=128)
def _lift(shift: ShiftSpace, depth: int):
    """(words, edges, src, dst): the depth-d lift, once per (shift, depth).
    The vertices are the admissible (d-1)-words (1-words when d = 1); each
    admissible max(d, 2)-word is an edge from its first to its last vertex
    word.  The index arrays are read-only."""
    side = max(depth - 1, 1)
    words = tuple(shift.admissible_words(side))
    index = {w: i for i, w in enumerate(words)}
    edges = tuple(shift.admissible_words(max(depth, 2)))
    src = np.array([index[w[:side]] for w in edges])
    dst = np.array([index[w[-side:]] for w in edges])
    adjacency = np.zeros((len(words), len(words)), dtype=bool)
    adjacency[src, dst] = True
    if not strongly_connected(adjacency):
        raise ReducibleLiftError("weighted transition matrix is reducible")
    src.flags.writeable = dst.flags.writeable = False
    return words, edges, src, dst


def _perron_vector(M: np.ndarray, lam: float):
    """(v, root): positive Perron vector of the irreducible M by inverse
    iteration from ones, shifted just above the estimate lam, where
    (mu I - M)^-1 is a positive matrix.  Certified once the Collatz-Wielandt
    bounds min and max of (M v) / v, which bracket the root, pinch to
    POWER_TOL relative spread.  A positive iterate that is not certified yet
    moves the iteration to D^-1 M D, D = diag(v), whose Perron vector is near
    ones: where v spans many decades, the ratios at its tiny entries keep
    their precision only there."""
    scale = v = np.ones(len(M))
    for _ in range(50):  # each step damps the rest of the spectrum ~1e10-fold
        v = np.linalg.solve(lam * (1.0 + 1e-10) * np.eye(len(M)) - M, v)
        v = v / v.sum()
        if v.min() > 0:
            ratios = (M @ v) / v
            lo, hi = float(ratios.min()), float(ratios.max())
            if hi - lo <= POWER_TOL * hi:
                return scale * v, 0.5 * (lo + hi)
            scale, M = scale * v, M * v / v[:, None]
            v = np.ones(len(M))
    raise ArithmeticError("Perron vector failed its Collatz-Wielandt bound")


class Gibbs(NamedTuple):
    """Gibbs data at one coefficient vector c: pressure P(c), the chain (Q,
    pi) on the lift's vertices, and the Gibbs mean and asymptotic covariance
    of the features, the gradient and Hessian of P."""
    P: float
    Q: np.ndarray
    pi: np.ndarray
    mean: np.ndarray
    var: np.ndarray


def _gibbs(shift: ShiftSpace, depth: int, F: np.ndarray,
           c: np.ndarray) -> Gibbs:
    """Pressure and Gibbs data of the edge potential F c on the depth lift,
    F an (edges x N) feature matrix.  The weights exp(F c - max F c) lie in
    [e^-700, 1], so no |c| overflows; a wider spread is refused, and the
    maximum comes back in P.  The chain is Q_ij = M_ij r_j / (lam r_i) with
    stationary vector l r / <l, r>.  The covariance is E[Z Z^T] under the
    edge masses, Z = C + g(target) - g(source) for the centred features C
    and the solution g of the Poisson equation (I - Q + 1 pi) g = h, with h
    the conditional mean of C."""
    words, _, src, dst = _lift(shift, depth)
    m = len(words)
    x = F @ c
    top = float(x.max())
    if top - float(x.min()) > 700:  # weights below e^-700 would drop off M
        raise ValueError(f"exp(F c) spans past the float range at c={c}")
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
    mean = mass @ F
    C = F - mean
    h = np.zeros((m, F.shape[1]))
    np.add.at(h, src, step[:, None] * C)
    g = np.linalg.solve(np.eye(m) - Q + pi[None, :], h)
    Z = C + g[dst] - g[src]
    return Gibbs(math.log(lam) + top, Q, pi, mean, Z.T @ (mass[:, None] * Z))


def gibbs_kernel(shift: ShiftSpace, phi: LocallyConstantObservable,
                 q: float) -> Gibbs:
    """The one-column kernel: phi on the last d symbols of each edge word,
    c = (q,); mean and var come back as the floats P'(q) and P''(q)."""
    d, value = phi.depth, phi.lookup()
    F = np.array([[value[w[-d:]]] for w in _lift(shift, d)[1]])
    g = _gibbs(shift, d, F, np.array([float(q)]))
    return g._replace(mean=float(g.mean[0]), var=float(g.var[0, 0]))


def gibbs_data(shift: ShiftSpace, phi: LocallyConstantObservable, q: float):
    """Gibbs-Markov chain at parameter q: (measure on lifted words, words,
    integral of phi, P(q)).  The chain is the entropy maximizer of
    h + q int(phi).
    """
    g = gibbs_kernel(shift, phi, q)
    words = list(_lift(shift, phi.depth)[0])
    return MarkovMeasure(g.Q, g.pi), words, g.mean, g.P


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

    Birkhoff averages of an integer-valued observable live on a 1/n-grid;
    the open window ((2j - 1) / 2n, (2j + 1) / 2n) with exact ends isolates
    the value j/n nearest alpha: the clean combinatorial object whose rate
    is compared against the variational value at the same point.
    """
    j = round(alpha * n)
    query = LevelSetQuery(phi, Fraction(2 * j - 1, 2 * n),
                          Fraction(2 * j + 1, 2 * n), n)
    est = levelset_count(shift, query)
    est.diagnostics.append(("nearest_average", j / n))
    return est


class ShrinkRow(NamedTuple):
    """lower <= sup{h(mu) : D(mu, nu) <= delta} <= upper."""
    delta: float
    lower: float
    upper: float


def shrink_experiment(shift: ShiftSpace, nu: MarkovMeasure,
                      family: TestFunctionFamily,
                      delta_grid) -> list[ShrinkRow]:
    """Certified brackets of sup{h_mu : D(mu, nu) <= delta} over invariant
    mu on the shift, one per delta of a strictly decreasing grid.

    The cylinders C_i, weighted 2^-(i+1), are the features F of the lift to
    the deepest one (only admissible words), so D(mu, nu) = |mu(F) - b|_1
    with b = nu(F).  Upper: h(mu) <= P(y) - y.mu(F), and |y.(mu(F) - b)| <=
    t delta in the ball when all |y_i| <= t, so such (y, t) bound the sup by
    P(y) - y.b + delta t.  Newton steps on the barrier tau (P(y) - y.b +
    delta t) - sum_i log(t -+ y_i), with the kernel's covariance as the
    Hessian of P and each step stopped short of the boundary, follow the
    central path as tau grows a hundredfold per round until the bracket is
    GAP_TOL wide.  The first delta starts at y = 0, t = 1, tau = 2n / delta.
    Each later one starts at the previous centre y, with t = max(1.5 max
    |y_i|, 1e-3) strictly feasible and tau = 1e4 2n / delta, as the centres
    of nearby balls lie close.
    Lower: mu_y mixed with nu at s = min(1, delta / D(mu_y, nu)) lies in the
    ball, as D(s mu + (1 - s) nu, nu) = s D(mu, nu), and entropy is affine.
    A ball's upper bound holds for every smaller ball and its lower bound
    for every larger one, so both columns are monotone.
    """
    grid = list(delta_grid)
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta_grid must be strictly decreasing")
    MarkovMeasure(nu.P, nu.pi, shift=shift)  # raises if nu leaves the shift
    depth = family.max_depth
    weight = 2.0 ** -np.arange(2, family.N + 2)
    F = weight * np.array([[w[-depth:][:f.depth] == f.word
                            for f in family.functions]
                           for w in _lift(shift, depth)[1]])
    b = weight * np.array([nu.cylinder_mass(f.word)
                           for f in family.functions])
    n, h_nu = len(b), markov_entropy(nu)
    # z = (y, t); the slacks A z = (t - y, t + y) stay positive
    A = np.block([[-np.eye(n), np.ones((n, 1))], [np.eye(n), np.ones((n, 1))]])
    lowers, upper, uppers = [], math.inf, []
    z, tau0 = np.append(np.zeros(n), 1.0), 2 * n  # t = 1 central at y = 0
    g = _gibbs(shift, depth, F, z[:n])
    for delta in grid:
        tau, lower = tau0 / delta, h_nu
        while upper - lower > GAP_TOL and tau < 1e16:  # tau P keeps digits
            for _ in range(50):  # Newton steps to the centre at this tau
                inv = 1 / (A @ z)
                grad = tau * np.append(g.mean - b, delta) - A.T @ inv
                H = A.T @ (A * inv[:, None] ** 2)
                H[:n, :n] += tau * g.var
                step = -np.linalg.solve(H, grad)
                if -grad @ step <= 1e-4:  # squared Newton decrement
                    break
                rate = np.max(-(A @ step) * inv)  # 1 / step to the boundary
                z = z + (min(1.0, 0.99 / rate) if rate > 0 else 1.0) * step
                g = _gibbs(shift, depth, F, z[:n])
            D = np.abs(g.mean - b).sum()
            s = min(1.0, delta / D) if D > 0 else 1.0
            h = markov_entropy(MarkovMeasure(g.Q, g.pi))
            lower = max(lower, s * h + (1 - s) * h_nu)
            upper = min(upper, g.P - z[:n] @ b + delta * z[n])
            tau *= 100
        # the next ball starts from this centre, with t strictly feasible
        z[n], tau0 = max(1.5 * np.abs(z[:n]).max(), 1e-3), 1e4 * 2 * n
        lowers.append(lower)
        uppers.append(upper)
    lowers = np.maximum.accumulate(lowers[::-1])[::-1].tolist()
    return [ShrinkRow(*row) for row in zip(grid, lowers, uppers)]
