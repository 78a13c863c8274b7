"""Entropy maximization on a subshift of finite type through one kernel.

The kernel weights the lift (the admissible words) by exp(F c), F a feature
matrix, and returns P(c), the Gibbs-Markov chain, and the Gibbs mean and
covariance of the features (gradient and Hessian of P) from certified
Perron eigenpairs, for a whole stack of coefficient rows c at once; each
item comes out as it would alone.  sup{h_mu : integral of phi equals
alpha} is inf_q P(q) - q alpha, by Newton steps on P'(q) = alpha in a
bisection bracket, exact for locally constant phi; the searches of many
alphas run in lockstep rounds, one stacked kernel call per round.
sup{h_mu : D(mu, nu) <= delta} is bracketed by weak duality from above,
minimised by Mehrotra predictor-corrector steps, and by a Gibbs measure
mixed into the ball from below; the searches of every delta of a grid run
in lockstep rounds as well, one stacked kernel call per round.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import levelset_counts_at
from .measures import (LocallyConstantObservable, MarkovMeasure,
                       TestFunctionFamily, chain_entropy, markov_entropy)
from .systems import ShiftSpace, strongly_connected

__all__ = [
    "SpectrumPoint",
    "SpectrumResult",
    "gibbs_kernel",
    "gibbs_data",
    "constrained_sup",
    "spectrum",
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
GAP_TOL = 1e-11        # upper - lower at which a shrink search stops


class ReducibleLiftError(ValueError):
    """Weighted transition matrix is not irreducible."""


class EmptyConstraintError(ValueError):
    """Constraint set misses the attainable range of the observable."""


@functools.lru_cache(maxsize=128)
def _lift(shift: ShiftSpace, depth: int):
    """(words, edges, src, dst, cells): the depth-d lift, once per (shift,
    depth).  The vertices are the admissible (d-1)-words (1-words when d =
    1); each admissible max(d, 2)-word is an edge from its first to its last
    vertex word, and cells = src m + dst is its entry of a flattened m x m
    matrix.  The index arrays are read-only."""
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
    cells = src * len(words) + dst
    src.flags.writeable = dst.flags.writeable = cells.flags.writeable = False
    return words, edges, src, dst, cells


class _Underflow(ArithmeticError):
    """Item args[0] of a Perron stack has an entry past the float range."""


def _positive(vec: np.ndarray) -> np.ndarray:
    """vec, or _Underflow naming its first item with an entry gone to 0."""
    if not vec.all():
        raise _Underflow(int((vec == 0).any(axis=1).argmax()))
    return vec


def _perron_vectors(M: np.ndarray, mu: np.ndarray):
    """(v, root): positive Perron vectors of the irreducible stack M (K x m x
    m) by inverse iteration from ones, item k with the shift mu[k] just above
    its root, where (mu I - M)^-1 is a positive matrix.  An item is
    certified, and frozen, at its first iterate whose Collatz-Wielandt
    bounds min and max of (M v) / v, which bracket the root, pinch to
    POWER_TOL relative spread.  A positive iterate moves its item to D^-1 M
    D, D = diag(v), whose Perron vector is near ones: where v spans many
    decades, the ratios at its tiny entries keep their precision only there.
    Every step acts on each item alone, and an item whose iterate is not
    positive skips that step's certificate and move (u = 1), so stacking
    changes no bit.  Where the vector spans past the float range, an entry
    of its scale underflows to 0, and the item raises _Underflow instead of
    coming back with that 0."""
    shifted = mu[:, None, None] * np.eye(M.shape[1])  # mu I
    live = np.ones(len(M), dtype=bool)  # the items not frozen yet
    vec, root = np.empty(M.shape[:2]), np.empty(len(M))
    scale = v = np.ones(M.shape[:2])
    for _ in range(50):  # each step damps the rest of the spectrum ~1e10-fold
        v = np.linalg.solve(shifted - M, v[..., None])[..., 0]
        v = v / v.sum(axis=1, keepdims=True)
        pos = v.min(axis=1) > 0
        u = np.where(pos[:, None], v, 1.0)
        ratios = np.sort((M @ u[..., None])[..., 0] / u, axis=1)
        lo, hi = ratios[:, 0], ratios[:, -1]
        # a live item's pair is overwritten until the step that freezes it
        np.copyto(vec, scale * v, where=live[:, None])
        np.copyto(root, 0.5 * (lo + hi), where=live)
        live &= ~(pos & (hi - lo <= POWER_TOL * hi))
        if not live.any():
            return _positive(vec), root
        # frozen items move too: their later iterates are never read; v / u
        # is exactly ones where the item moved
        scale, M, v = scale * u, M * u[:, None, :] / u[:, :, None], v / u
    stuck = ~scale.all(axis=1) & live
    if stuck.any():
        raise _Underflow(int(stuck.argmax()))
    raise ArithmeticError("Perron vector failed its Collatz-Wielandt bound")


class Gibbs(NamedTuple):
    """Gibbs data at a coefficient vector c: pressure P(c), the chain (Q,
    pi) on the lift's vertices, and the Gibbs mean and asymptotic covariance
    of the features, the gradient and Hessian of P.  The kernel returns a
    stack of them, one item per row of c, each field with a leading axis."""
    P: np.ndarray
    Q: np.ndarray
    pi: np.ndarray
    mean: np.ndarray
    var: np.ndarray


def _item(g: Gibbs, i: int) -> Gibbs:
    """Item i of a stack."""
    return Gibbs(g.P[i], g.Q[i], g.pi[i], g.mean[i], g.var[i])


def _range_error(row: np.ndarray) -> ValueError:
    row = np.array2string(row, max_line_width=math.inf)  # one stderr line
    return ValueError(f"exp(F c) spans past the float range at c={row}")


def _gibbs(shift: ShiftSpace, depth: int, F: np.ndarray,
           c: np.ndarray) -> Gibbs:
    """Pressure and Gibbs data of the edge potential F c on the depth lift,
    F an (edges x N) feature matrix, for each row of the (B x N) stack c.
    The weights exp(F c - max F c) lie in [e^-700, 1], so no |c| overflows;
    a wider spread is refused, and the maximum comes back in P.  So is a c
    whose Perron vector spans past the float range, which would leave 0 / 0
    in Q.  The chain is Q_ij = M_ij r_j / (lam r_i) with stationary vector
    l r / <l, r>, the right and left Perron vectors of every item solved as
    one stack.  The covariance is E[Z Z^T] under the edge masses, Z = C +
    g(target) - g(source) for the centred features C and the solution g of
    the Poisson equation (I - Q + 1 pi) g = h, with h the conditional mean
    of C.  Every product acts on each item alone, so an item's bits do not
    depend on the rest of the stack."""
    words, _, src, dst, cells = _lift(shift, depth)
    B, m = len(c), len(words)
    x = (F @ c[:, :, None])[..., 0]
    top = x.max(axis=1)
    x = x - top[:, None]
    if x.min() < -700:  # weights below e^-700 would drop off M
        raise _range_error(c[(x.min(axis=1) < -700).argmax()])
    M = np.zeros((B, m * m))
    M[:, cells] = np.exp(x)
    M = M.reshape(B, m, m)
    mu = np.linalg.eigvals(M).real.max(axis=1) * (1.0 + 1e-10)
    try:
        vec, root = _perron_vectors(np.concatenate((M, M.transpose(0, 2, 1))),
                                    np.concatenate((mu, mu)))
    except _Underflow as exc:  # a right or left vector of item args[0] mod B
        raise _range_error(c[exc.args[0] % B]) from None
    r, l, lam = vec[:B], vec[B:], root[:B]
    Q = M * r[:, None, :] / (lam[:, None, None] * r[:, :, None])
    Q = Q / Q.sum(axis=2, keepdims=True)  # absorb 1e-12 certificate residue
    pi = l * r / (l[:, None, :] @ r[:, :, None])[:, 0]
    Q.flags.writeable = pi.flags.writeable = False  # shared by the range cache
    step = Q.reshape(B, m * m).take(cells, axis=1)
    mass = pi.take(src, axis=1) * step
    mean = (mass[:, None, :] @ F)[:, 0]
    C = F - mean[:, None, :]
    h = np.zeros((m, B, F.shape[1]))
    np.add.at(h, src, (step[:, :, None] * C).transpose(1, 0, 2))
    g = np.linalg.solve(np.eye(m) - Q + pi[:, None, :], h.transpose(1, 0, 2))
    Z = C + g.take(dst, axis=1) - g.take(src, axis=1)
    P = np.array([math.log(x) for x in lam.tolist()]) + top
    return Gibbs(P, Q, pi, mean, Z.transpose(0, 2, 1) @ (mass[:, :, None] * Z))


@functools.lru_cache(maxsize=128)
def _phi_column(shift: ShiftSpace, phi: LocallyConstantObservable):
    """The one-column features, phi on the last d symbols of each edge word,
    once per (shift, phi); read-only."""
    d, value = phi.depth, phi.lookup()
    F = np.array([[value[w[-d:]]] for w in _lift(shift, d)[1]])
    F.flags.writeable = False
    return F


def _phi_gibbs(shift: ShiftSpace, phi: LocallyConstantObservable,
               qs: np.ndarray) -> Gibbs:
    """The one-column kernel at every q of the 1-D array qs, c = (q,); mean
    and var come back as the arrays P'(q) and P''(q)."""
    g = _gibbs(shift, phi.depth, _phi_column(shift, phi), qs[:, None])
    return g._replace(mean=g.mean[:, 0], var=g.var[:, 0, 0])


def gibbs_kernel(shift: ShiftSpace, phi: LocallyConstantObservable,
                 q: float) -> Gibbs:
    """The one-column kernel at one q; P, mean and var come back as the
    floats P(q), P'(q) and P''(q)."""
    return _item(_phi_gibbs(shift, phi, np.array([float(q)])), 0)


def gibbs_data(shift: ShiftSpace, phi: LocallyConstantObservable, q: float):
    """Gibbs-Markov chain at parameter q: (measure on lifted words, words,
    integral of phi, P(q)).  The chain maximizes h + q int(phi).
    """
    g = gibbs_kernel(shift, phi, q)
    words = list(_lift(shift, phi.depth)[0])
    return MarkovMeasure(g.Q, g.pi), words, g.mean, g.P


@dataclass
class SpectrumPoint:
    alpha: float
    h_var: float | None
    h_count: float | None = None
    n_count: int = 0
    empty: bool = False            # constraint set misses the attainable range


@functools.lru_cache(maxsize=128)
def _edge_gibbs(shift: ShiftSpace,
                phi: LocallyConstantObservable) -> tuple[Gibbs, Gibbs]:
    """Kernel at -Q_CAP and Q_CAP: the ends of the attainable range of the
    integral and the one-sided limits there, once per (shift, phi)."""
    g = _phi_gibbs(shift, phi, np.array([-Q_CAP, Q_CAP]))
    return _item(g, 0), _item(g, 1)


def _point(alpha: float, q: float, g: Gibbs) -> SpectrumPoint:
    return SpectrumPoint(alpha, max(g.P - q * alpha, 0.0))


def _constrained_sups(shift: ShiftSpace, phi: LocallyConstantObservable,
                      alphas) -> list[SpectrumPoint]:
    """H(alpha) = inf_q (P(q) - q alpha) for every alpha of the list in
    lockstep rounds.  P' (the Gibbs integral of phi) increases in q, so the
    infimum solves P'(q) = alpha.  Each alpha runs its own Newton search
    from q = 0 with slope P'', inside a bracket on [-Q_CAP, Q_CAP] that every
    evaluation shrinks, bisecting when a step would leave it, until
    |P'(q) - alpha| <= NEWTON_TOL.  A round evaluates the distinct q of the
    live searches in one stacked kernel call, and the kernel computes each
    item as it would alone, so every point is the one its search finds by
    itself.  Each evaluation rests on Collatz-Wielandt certified
    eigenpairs.  Alpha at or beyond the attainable edge comes back as a
    one-sided limit or tagged empty."""
    low, high = _edge_gibbs(shift, phi)
    if high.mean - low.mean < 1e-13:  # constant invariant integral
        hits = [abs(a - low.mean) <= 1e-9 for a in alphas]
        g = gibbs_kernel(shift, phi, 0.0) if any(hits) else None
        return [_point(a, 0.0, g) if hit else
                SpectrumPoint(a, None, empty=True)
                for a, hit in zip(alphas, hits)]
    points, live = {}, {}  # live: index -> [lo_q, hi_q, q]
    for i, a in enumerate(alphas):
        if a < low.mean - 1e-9 or a > high.mean + 1e-9:
            points[i] = SpectrumPoint(a, None, empty=True)
        elif a <= low.mean:
            points[i] = _point(a, -Q_CAP, low)
        elif a >= high.mean:
            points[i] = _point(a, Q_CAP, high)
        else:
            live[i] = [-Q_CAP, Q_CAP, 0.0]
    last = {}
    for _ in range(200):
        if not live:
            break
        qs = sorted({q for _, _, q in live.values()})
        g = _phi_gibbs(shift, phi, np.array(qs))
        column = {q: j for j, q in enumerate(qs)}
        for i, (lo_q, hi_q, q) in list(live.items()):
            last[i] = _item(g, column[q])
            miss = last[i].mean - alphas[i]
            if abs(miss) > NEWTON_TOL:
                if miss < 0:
                    lo_q = q
                else:
                    hi_q = q
                if hi_q - lo_q >= 1e-13:
                    var = last[i].var
                    newton = q - miss / var if var > 0 else lo_q
                    live[i] = [lo_q, hi_q, newton if lo_q < newton < hi_q
                               else 0.5 * (lo_q + hi_q)]
                    continue
            del live[i]
            points[i] = _point(alphas[i], q, last[i])
    for i, (_, _, q) in live.items():  # out of rounds: q is a step ahead
        points[i] = _point(alphas[i], q, last[i])
    return [points[i] for i in range(len(alphas))]


def constrained_sup(shift: ShiftSpace, phi: LocallyConstantObservable,
                    alpha: float) -> SpectrumPoint:
    """H(alpha) = inf_q (P(q) - q alpha): the lockstep search of
    `_constrained_sups` on one alpha."""
    return _constrained_sups(shift, phi, [alpha])[0]


@dataclass
class SpectrumResult:
    points: list[SpectrumPoint]
    sup_value: float
    sup_alpha: float


def spectrum(shift: ShiftSpace, phi: LocallyConstantObservable,
             lo: float, hi: float, closed: bool,
             alpha_grid, count_n: int | None = None) -> SpectrumResult:
    """Per-alpha values over the grid restricted to the constraint interval,
    plus the largest value among those grid points and the interval's two
    ends.  That is not the supremum over the interval, which can lie between
    grid points.  Open ends contribute their one-sided limits (H is
    continuous) rather than direct evaluations.  The grid and both ends
    share one lockstep Newton search, one stacked kernel call per round, and
    the counts of every grid alpha come from one walk of the Birkhoff sums.
    """
    if not (lo < hi):
        raise ValueError("malformed constraint interval")
    if count_n is not None and (isinstance(count_n, bool)
                                or not isinstance(count_n, int) or count_n < 1):
        raise ValueError(f"count_n must be an integer >= 1; got {count_n!r}")
    inside = (lambda a: lo <= a <= hi) if closed else (lambda a: lo < a < hi)
    *points, low_end, high_end = _constrained_sups(
        shift, phi, [a for a in alpha_grid if inside(a)] + [lo, hi])
    points = [pt for pt in points if not pt.empty]
    if count_n is not None and points:
        counts = levelset_counts_at(shift, phi, [p.alpha for p in points],
                                    count_n)
        for pt, est in zip(points, counts):
            pt.h_count = est.value
            pt.n_count = count_n
    candidates = points + [pt for pt in (low_end, high_end) if not pt.empty]
    if not candidates:
        raise EmptyConstraintError(
            "constraint interval misses the attainable range")
    best = max(candidates, key=lambda p: p.h_var)
    return SpectrumResult(points, best.h_var, best.alpha)


class ShrinkRow(NamedTuple):
    """lower <= sup{h(mu) : D(mu, nu) <= delta} <= upper."""
    delta: float
    lower: float
    upper: float


def _mehrotra(A, z, lam, delta, mean, var, b):
    """(z, lam) after one Mehrotra predictor-corrector step of each row of a
    stack on min P(y) - y.b + delta t subject to the slacks s = A z = (t - y,
    t + y) >= 0 with duals lam, where P has gradient mean and Hessian var.
    The affine and the corrector step solve with one matrix H + A^T diag(lam
    / s) A; each stops 0.99 of the way to the boundary, z and lam apart.
    Every product is a stacked matmul on one row alone, so a row's bits do
    not depend on the rest of the stack."""
    n = len(b)
    s = (A @ z[:, :, None])[..., 0]
    grad = np.concatenate((mean - b, delta[:, None]), axis=1)
    H = A.T @ (A * (lam / s)[:, :, None])
    H[:, :n, :n] += var

    def step(rc):  # the Newton step that drives each s lam to s lam - rc
        rhs = (A.T @ (lam - rc / s)[:, :, None])[..., 0] - grad
        dz = np.linalg.solve(H, rhs[:, :, None])[..., 0]
        ds = (A @ dz[:, :, None])[..., 0]
        return dz, ds, -(rc + lam * ds) / s

    def reach(v, dv, frac):  # min(1, frac times the step to v = 0)
        return frac / np.maximum((-dv / v).max(axis=1), frac)[:, None]

    mu = (s * lam).sum(axis=1) / (2 * n)
    dz, ds, dlam = step(s * lam)  # affine: s lam -> 0
    aff = (s + reach(s, ds, 1.0) * ds) * (lam + reach(lam, dlam, 1.0) * dlam)
    sigma_mu = (aff.sum(axis=1) / (2 * n) / mu) ** 3 * mu
    dz, ds, dlam = step(s * lam + ds * dlam - sigma_mu[:, None])
    return z + reach(s, ds, 0.99) * dz, lam + reach(lam, dlam, 0.99) * dlam


def _check_grid(grid: list, n: int) -> None:
    """A shrink grid is nonempty, finite, strictly decreasing and above the
    floor 2n 1e-16 of n cylinders, where the 2n duals, which sum to delta,
    average below 1e-16, the rounding of the Gibbs means they balance."""
    if not grid:
        raise ValueError("delta_grid is empty")
    for i, d in enumerate(grid):
        if not 0 < d < math.inf:
            raise ValueError(f"delta {d} is not a finite positive radius")
        if 2 * n / d >= 1e16:
            raise ValueError(f"delta {d} is at or below the floor 2n 1e-16 = "
                             f"{2 * n * 1e-16:.3g} of {n} cylinders")
        if i and d >= grid[i - 1]:
            raise ValueError(f"delta_grid must be strictly decreasing: {d} "
                             f"follows {grid[i - 1]}")


def shrink_experiment(shift: ShiftSpace, nu: MarkovMeasure,
                      family: TestFunctionFamily,
                      delta_grid) -> list[ShrinkRow]:
    """Certified brackets of sup{h_mu : D(mu, nu) <= delta} over invariant
    mu on the shift, one per delta of a nonempty, finite and strictly
    decreasing grid above 2n 1e-16 (else ValueError, before any work).

    The cylinders C_i, weighted 2^-(i+1), are the features F of the lift to
    the deepest one (only admissible words), so D(mu, nu) = |mu(F) - b|_1
    with b = nu(F).  Upper: h(mu) <= P(y) - y.mu(F), and |y.(mu(F) - b)| <=
    t delta in the ball when all |y_i| <= t, so such (y, t) bound the sup by
    P(y) - y.b + delta t, at every iterate with t = |y|_inf.  Mehrotra
    predictor-corrector steps, with the kernel's covariance as the Hessian
    of P, minimise it from y = 0, t = 1 and duals 1 until the bracket is
    GAP_TOL wide, or for 50 steps.  Lower: mu_y mixed with nu at s = min(1,
    delta / D(mu_y, nu)) lies in the ball, as D(s mu + (1 - s) nu, nu) = s
    D(mu, nu), and entropy is affine.  Both bounds are rounded outward by a
    relative 2^-50, so they keep their order where they meet.

    The deltas run side by side in lockstep rounds: each round, every open
    delta takes its bracket and its step, and one stacked kernel call
    serves them all.  The step algebra and the kernel act on each delta
    alone, so each one's iterates are bit for bit those of its search by
    itself.  A ball's upper bound holds for every smaller ball and its
    lower bound for every larger one, so both columns are monotone
    envelopes.
    """
    grid = list(delta_grid)
    _check_grid(grid, family.N)
    MarkovMeasure(nu.P, nu.pi, shift=shift)  # raises if nu leaves the shift
    depth = family.max_depth
    weight = 2.0 ** -np.arange(2, family.N + 2)
    F = weight * np.array([[w[-depth:][:f.depth] == f.word
                            for f in family.functions]
                           for w in _lift(shift, depth)[1]])
    b = weight * np.array([nu.cylinder_mass(f.word)
                           for f in family.functions])
    n, h_nu = len(b), markov_entropy(nu)
    delta = np.array(grid, dtype=float)
    K = len(delta)
    A = np.block([[-np.eye(n), np.ones((n, 1))], [np.eye(n), np.ones((n, 1))]])
    z = np.zeros((K, n + 1))  # z = (y, t); the slacks A z stay > 0
    z[:, n] = 1.0
    lam = np.ones((K, 2 * n))
    lower, upper = np.full(K, h_nu), np.full(K, math.inf)
    # every delta starts at y = 0: one evaluation serves them all
    g = Gibbs(*(np.repeat(f, K, axis=0)
                for f in _gibbs(shift, depth, F, z[:1, :n])))
    live = np.ones(K, dtype=bool)
    for steps in range(51):
        i = np.flatnonzero(live)
        D = np.abs(g.mean[i] - b).sum(axis=1)
        s = delta[i] / np.maximum(D, delta[i])  # min(1, delta / D)
        h = s * chain_entropy(g.Q[i], g.pi[i]) + (1 - s) * h_nu
        lower[i] = np.maximum(lower[i], h - np.abs(h) * 2.0 ** -50)
        dual = g.P[i] - (z[i, None, :n] @ b[:, None])[:, 0, 0] \
            + delta[i] * np.abs(z[i, :n]).max(axis=1)
        upper[i] = np.minimum(upper[i], dual + np.abs(dual) * 2.0 ** -50)
        live[i] = upper[i] - lower[i] > GAP_TOL
        i = np.flatnonzero(live)
        if steps == 50 or not len(i):
            break
        z[i], lam[i] = _mehrotra(A, z[i], lam[i], delta[i], g.mean[i],
                                 g.var[i], b)
        for field, value in zip(g, _gibbs(shift, depth, F, z[i, :n])):
            field[i] = value
    lowers = np.maximum.accumulate(lower[::-1])[::-1].tolist()
    uppers = np.minimum.accumulate(upper).tolist()
    return [ShrinkRow(*row) for row in zip(grid, lowers, uppers)]
