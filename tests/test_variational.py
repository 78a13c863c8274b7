import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitweave import entropy, variational
from orbitweave.entropy import (InfeasibleCountError, LevelSetQuery,
                                levelset_count, levelset_counts_at)
from orbitweave.measures import (LocallyConstantObservable, MarkovMeasure,
                                 TestFunctionFamily, bernoulli, chain_entropy,
                                 frequency_observable, markov_entropy)
from orbitweave.systems import ShiftSpace, full_shift, golden_mean_shift
from orbitweave.variational import (EmptyConstraintError, ReducibleLiftError,
                                    constrained_sup, gibbs_data, gibbs_kernel,
                                    shrink_experiment, spectrum)

FULL = full_shift(2)
PHI = frequency_observable(1)
FAMILY = TestFunctionFamily("cylinder", 16, 2)


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def test_pressure_unweighted_is_topological_entropy():
    assert gibbs_kernel(FULL, PHI, 0.0).P == pytest.approx(math.log(2),
                                                          abs=1e-11)
    gm = golden_mean_shift()
    golden = (1 + math.sqrt(5)) / 2
    assert gibbs_kernel(gm, PHI, 0.0).P == pytest.approx(math.log(golden),
                                                        abs=1e-10)


@given(st.floats(-8, 8))
@settings(max_examples=60, deadline=None)
def test_pressure_closed_form_full_shift(q):
    assert gibbs_kernel(FULL, PHI, q).P == pytest.approx(
        math.log(1 + math.exp(q)), abs=1e-10)


def test_pressure_large_negative_q():
    assert gibbs_kernel(FULL, PHI, -40.0).P == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- oracle
# The dense lift and shifted power iteration that the kernel replaced; the
# kernel's eigen-data must match them.

def _reference_matrix(shift, phi, q):
    """exp(q phi)-weighted transfer matrix on (d-1)-words (1-words when
    d = 1) and, per edge, the d-word that phi is evaluated on."""
    d = phi.depth
    side = max(d - 1, 1)
    words = [w for w in itertools.product(range(shift.alphabet_size),
                                          repeat=side)
             if shift.word_admissible(w)]
    M = np.zeros((len(words), len(words)))
    eval_word = {}
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if d == 1:
                ok = shift.allowed(u[-1], v[-1])
                w = v
            else:
                ok = u[1:] == v[:-1] and shift.allowed(u[-1], v[-1])
                w = u + v[-1:]
            if ok:
                M[i, j] = math.exp(q * phi.lookup()[w])
                eval_word[(i, j)] = w
    return M, eval_word


def _reference_power_eigen(M, max_iter=500_000):
    """Power iteration on M + c I with an adaptive Rayleigh shift c, until
    the Collatz-Wielandt bounds pinch to 1e-12 relative spread."""
    m = M.shape[0]
    v = np.ones(m) / m
    for _ in range(max_iter):
        Mv = M @ v
        ratios = Mv / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= 1e-12 * max(hi, 1e-300):
            return 0.5 * (lo + hi), v
        c = max(float(v @ Mv / (v @ v)), 1e-300)
        w = Mv + c * v
        v = w / np.linalg.norm(w)
    raise ArithmeticError("power iteration failed to converge")


def _reference_gibbs(shift, phi, q):
    M, eval_word = _reference_matrix(shift, phi, q)
    lam, r = _reference_power_eigen(M)
    _, l = _reference_power_eigen(M.T)
    Q = M * r[None, :] / (lam * r[:, None])
    Q = Q / Q.sum(axis=1, keepdims=True)
    pi = l * r
    pi = pi / pi.sum()
    integral = sum(pi[i] * Q[i, j] * phi.lookup()[w]
                   for (i, j), w in eval_word.items())
    return math.log(lam), Q, pi, integral


GOLDEN = golden_mean_shift()
DEPTH2 = LocallyConstantObservable(2, (((0, 0), 0.3), ((0, 1), 1.0),
                                       ((1, 0), -0.5), ((1, 1), 2.0)))
DEPTH3 = LocallyConstantObservable(3, tuple(
    (w, 0.25 * sum(w) + 0.4 * (w[0] == w[2]) - 0.1 * w[1])
    for w in itertools.product(range(2), repeat=3)))
PERIOD2 = ShiftSpace(2, ((0, 1), (1, 0)))
LIFTS = {"full": (FULL, PHI), "golden": (GOLDEN, PHI),
         "golden_depth2": (GOLDEN, DEPTH2), "full_depth3": (FULL, DEPTH3),
         "period2": (PERIOD2, PHI)}


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_kernel_matches_power_iteration_oracle(name):
    shift, phi = LIFTS[name]
    for q in (-50.0, -5.0, 0.0, 5.0, 50.0):
        P, Q, pi, integral = _reference_gibbs(shift, phi, q)
        g = gibbs_kernel(shift, phi, q)
        assert g.P == pytest.approx(P, abs=1e-10)
        assert np.abs(g.Q - Q).max() <= 1e-10
        assert np.abs(g.pi - pi).max() <= 1e-10
        assert g.mean == pytest.approx(integral, abs=1e-10)


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_kernel_derivatives_match_differences(name):
    shift, phi = LIFTS[name]
    h = 1e-4
    for q in np.linspace(-5.0, 5.0, 21):
        g = gibbs_kernel(shift, phi, q)
        lo = gibbs_kernel(shift, phi, q - h)
        hi = gibbs_kernel(shift, phi, q + h)
        assert g.mean == pytest.approx((hi.P - lo.P) / (2 * h), abs=1e-6)
        assert g.var == pytest.approx((hi.mean - lo.mean) / (2 * h), abs=1e-5)
        assert g.var >= 0.0  # P is convex


def test_reducible_lift_rejected():
    reducible = ShiftSpace(2, ((1, 1), (0, 1)))
    with pytest.raises(ReducibleLiftError):
        gibbs_kernel(reducible, PHI, 0.0)
    # depth 2 on three symbols, 2 -> {0, 1} only: no edge returns to 2
    tail = ShiftSpace(3, ((1, 1, 0), (1, 1, 0), (1, 1, 0)))
    phi2 = LocallyConstantObservable(2, tuple(
        (w, float(w[0] == w[1]))
        for w in itertools.product(range(3), repeat=2)))
    with pytest.raises(ReducibleLiftError):
        gibbs_kernel(tail, phi2, 0.0)


def test_weights_past_float_range():
    # only the spread of q phi matters: exp(q phi - max q phi) is in (0, 1]
    high = LocallyConstantObservable(1, (((0,), 100.0), ((1,), 101.0)))
    assert gibbs_kernel(FULL, high, 50.0).P == pytest.approx(
        5050.0 + math.log1p(math.exp(-50.0)), rel=1e-15)
    wide = LocallyConstantObservable(1, (((0,), 0.0), ((1,), 20.0)))
    with pytest.raises(ValueError, match="float range"):
        constrained_sup(FULL, wide, 10.0)


def test_gibbs_measure_is_bernoulli_on_full_shift():
    chain, words, integral, P = gibbs_data(FULL, PHI, 1.0)
    sigma = math.exp(1) / (1 + math.exp(1))
    assert integral == pytest.approx(sigma, abs=1e-9)
    assert chain.P[0][1] == pytest.approx(sigma, abs=1e-9)
    assert chain.P[0][1] == pytest.approx(chain.P[1][1], abs=1e-9)


def _kernel_spy(monkeypatch):
    """Record (q, P'(q), P''(q)) of every one-column kernel item, and one
    entry per stacked call."""
    steps, calls = [], []
    kernel = variational._gibbs

    def spy(shift, depth, F, c):
        g = kernel(shift, depth, F, c)
        calls.append(len(c))
        steps.extend(zip(c[:, 0].tolist(), g.mean[:, 0].tolist(),
                         g.var[:, 0, 0].tolist()))
        return g
    monkeypatch.setattr(variational, "_gibbs", spy)
    return steps, calls


def _landed_search(monkeypatch, shift, phi, alpha):
    """(point, steps) of constrained_sup at alpha, the range cached first so
    that the spy sees the search alone.  Its last item has P'(q) within
    NEWTON_TOL of alpha, and h_var is P(q) - q alpha by the oracle."""
    variational._edge_gibbs(shift, phi)
    with monkeypatch.context() as patch:
        steps, _ = _kernel_spy(patch)
        pt = constrained_sup(shift, phi, alpha)
    q, mean, _ = steps[-1]
    assert abs(mean - alpha) <= variational.NEWTON_TOL
    P, _, _, integral = _reference_gibbs(shift, phi, q)
    assert integral == pytest.approx(alpha, abs=1e-10)
    assert pt.h_var == pytest.approx(P - q * alpha, abs=1e-10)
    return pt, steps


def test_constrained_sup_binary_entropy(monkeypatch):
    for alpha in (0.1, 0.25, 0.5, 0.62, 0.9):
        pt, _ = _landed_search(monkeypatch, FULL, PHI, alpha)
        assert pt.h_var == pytest.approx(binary_entropy(alpha), abs=1e-9)
        assert 0.0 <= pt.h_var <= math.log(2)


def test_constrained_sup_symmetric_maximum():
    pt = constrained_sup(FULL, PHI, 0.5)
    assert pt.h_var == pytest.approx(math.log(2), abs=1e-10)
    # the maximizer at alpha = P'(0) is the chain at q = 0
    assert gibbs_kernel(FULL, PHI, 0.0).Q[0][1] == pytest.approx(0.5,
                                                                  abs=1e-8)


def test_constrained_sup_endpoint_limits(monkeypatch):
    # an end of the range is the one-sided limit the range probe computed:
    # no search runs for it
    variational._edge_gibbs(FULL, PHI)
    _, calls = _kernel_spy(monkeypatch)
    pt = constrained_sup(FULL, PHI, 0.0)
    assert calls == []
    assert pt.h_var == pytest.approx(0.0, abs=1e-9)
    pt1 = constrained_sup(FULL, PHI, 1.0)
    assert pt1.h_var == pytest.approx(0.0, abs=1e-9)


def test_constrained_sup_empty_constraint():
    pt = constrained_sup(FULL, PHI, 1.5)
    assert pt.empty
    assert pt.h_var is None


@pytest.mark.parametrize("shift, alpha", [(FULL, 0.001), (FULL, 0.999),
                                          (GOLDEN, 0.4999)])
def test_constrained_sup_near_edge(monkeypatch, shift, alpha):
    # P'' -> 0 toward the attainable edge: Newton from q = 0 crawls there, and
    # stops only once |P'(q) - alpha| <= 1e-13
    pt, _ = _landed_search(monkeypatch, shift, PHI, alpha)
    if shift is FULL:
        oracle = binary_entropy(alpha)
    else:
        oracle = (1 - alpha) * binary_entropy(alpha / (1 - alpha))
    assert pt.h_var == pytest.approx(oracle, abs=1e-9)


RUN3 = LocallyConstantObservable(3, tuple(
    (w, float(w == (1, 1, 1))) for w in itertools.product(range(2), repeat=3)))


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_constrained_sup_bisection_safeguard(monkeypatch, alpha):
    # frequency of 111 on the full shift: from q = 0 a Newton step leaves the
    # bracket, so the search must bisect and still land on P'(q) = alpha
    _, steps = _landed_search(monkeypatch, FULL, RUN3, alpha)
    assert any(q1 != q0 - (mean - alpha) / var
               for (q0, mean, var), (q1, _, _) in zip(steps, steps[1:]))


@pytest.mark.parametrize("shift, grid", [
    (FULL, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    (GOLDEN, [0.05, 0.1, 0.2, 0.3, 0.4, 0.45])])
def test_constrained_sup_kernel_calls(monkeypatch, shift, grid):
    _, calls = _kernel_spy(monkeypatch)
    for alpha in grid:
        variational._edge_gibbs.cache_clear()  # count the range too
        calls.clear()
        constrained_sup(shift, PHI, alpha)
        # every q evaluated, the range's two included, as one call each made
        assert sum(calls) <= 10, (alpha, calls)
        assert len(calls) <= 9, (alpha, calls)


def test_range_follows_q_cap_after_cache_clear(monkeypatch):
    # the range is cached on (shift, phi) alone, so a patched Q_CAP counts
    # only after cache_clear; at 400 the range's upper end comes close
    # enough to the table's edge 0.3 for alpha = 0.2995 (at 50 it is empty)
    monkeypatch.setattr(variational, "Q_CAP", 400.0)
    variational._edge_gibbs.cache_clear()
    try:
        pt = constrained_sup(GOLDEN, TABLE, 0.2995)
    finally:
        variational._edge_gibbs.cache_clear()
    assert pt.h_var == pytest.approx(0.031454, abs=1e-6)


def test_constrained_sup_golden_mean_range():
    gm = golden_mean_shift()
    # the golden-mean shift cannot average more 1s than every other symbol
    assert constrained_sup(gm, PHI, 0.7).empty
    pt = constrained_sup(gm, PHI, 0.3)
    assert 0.0 < pt.h_var <= math.log((1 + math.sqrt(5)) / 2) + 1e-12


def test_concavity_of_spectrum():
    alphas = [0.2, 0.3, 0.4, 0.5]
    hs = [constrained_sup(FULL, PHI, a).h_var for a in alphas]
    for i in range(1, len(hs) - 1):
        assert hs[i] >= 0.5 * (hs[i - 1] + hs[i + 1]) - 1e-9


def test_spectrum_open_interval_sup():
    res = spectrum(FULL, PHI, 0.25, 0.35, False, [0.27, 0.3, 0.33])
    oracle = binary_entropy(0.35)  # one-sided limit at the nearer endpoint
    assert res.sup_value == pytest.approx(oracle, abs=1e-9)
    assert all(0.25 < p.alpha < 0.35 for p in res.points)
    assert res.sup_alpha == 0.35  # the open end, not a grid point


def test_spectrum_closed_vs_interior():
    closed = spectrum(FULL, PHI, 0.3, 0.4, True, [0.3, 0.35, 0.4])
    interior = spectrum(FULL, PHI, 0.3, 0.4, False, [0.31, 0.35, 0.39])
    assert abs(closed.sup_value - interior.sup_value) <= 1e-6


def test_spectrum_full_range():
    res = spectrum(FULL, PHI, 0.0, 1.0, True,
                   [i / 10 for i in range(1, 10)])
    assert res.sup_value == pytest.approx(math.log(2), abs=1e-10)
    assert res.sup_alpha == 0.5


def test_spectrum_empty_constraint():
    gm = golden_mean_shift()
    with pytest.raises(EmptyConstraintError):
        spectrum(gm, PHI, 0.8, 0.95, True, [0.85, 0.9])


def test_spectrum_attaches_counts():
    res = spectrum(FULL, PHI, 0.0, 1.0, True, [0.5], count_n=12)
    [pt] = res.points
    assert pt.n_count == 12
    assert pt.h_count == pytest.approx(math.log(math.comb(12, 6)) / 12)


@pytest.mark.parametrize("count_n", [0, -3, 2.7, 24.0, "24", True])
def test_spectrum_refuses_count_n_not_a_positive_integer(count_n):
    # 0 divided by zero; -3 and 2.7 gave rows with a meaningless count
    with pytest.raises(ValueError, match="count_n must be an integer >= 1"):
        spectrum(FULL, PHI, 0.0, 1.0, True, [0.5], count_n=count_n)


def test_count_at_binomial():
    [est] = levelset_counts_at(FULL, PHI, [0.26], 12)  # nearest is 3/12
    assert est.diagnostics[0][1] == math.comb(12, 3)


def test_shrink_center_is_global_max():
    rows = shrink_experiment(FULL, bernoulli(0.5), FAMILY, [0.2, 0.1, 0.05])
    for _, sup_hat, _ in rows:
        assert sup_hat == pytest.approx(math.log(2), abs=1e-9)


def test_shrink_whole_space_ball():
    rows = shrink_experiment(FULL, bernoulli(0.8), FAMILY, [1.0])
    assert rows[0][1] == pytest.approx(math.log(2), abs=1e-3)


def test_shrink_profile_monotone_and_bounded():
    nu = bernoulli(0.8)
    rows = shrink_experiment(FULL, nu, FAMILY, [0.2, 0.1, 0.05, 0.02])
    sups = [r.lower for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))
    assert all(s >= markov_entropy(nu) - 1e-9 for s in sups)


def test_shrink_requires_decreasing_grid():
    with pytest.raises(ValueError):
        shrink_experiment(FULL, bernoulli(0.5), FAMILY, [0.1, 0.2])


@pytest.mark.parametrize("grid, named", [
    ([], "empty"), ([0.0], "delta 0.0 "), ([0.1, 0.0], "delta 0.0 "),
    ([-0.1], "delta -0.1 "), ([math.nan], "delta nan "),
    ([math.inf, 0.1], "delta inf "), ([0.1, 0.1], "0.1 follows 0.1"),
    ([0.2, 0.05, 0.1], "0.1 follows 0.05"),
    ([1e-15], "delta 1e-15 is at or below the floor 2n 1e-16 = 3.2e-15"), ([0.1, 1e-15], "delta 1e-15 is at or below the floor 2n 1e-16 = 3.2e-15")])
def test_shrink_rejects_bad_grid_before_any_work(monkeypatch, grid, named):
    def kernel(*args):
        raise AssertionError("the kernel ran on a bad grid")
    monkeypatch.setattr(variational, "_gibbs", kernel)
    with pytest.raises(ValueError, match=named):
        shrink_experiment(FULL, bernoulli(0.5), FAMILY, grid)


def test_shrink_centres_just_above_the_floor():
    # 2n / delta < 1e16: the duals of the 2n slacks still average above
    # 1e-16, and the bracket closes as it does far from the floor (1.3e-12
    # at 4e-15)
    rows = shrink_experiment(FULL, bernoulli(0.8), FAMILY, [0.1, 4e-15])
    assert rows[-1].upper < math.inf
    assert 0 < rows[-1].upper - rows[-1].lower <= variational.GAP_TOL


def test_shrink_closes_tiny_deltas():
    # the barrier ran y past the kernel's weight spread at 1e-11 (exit 2);
    # every delta here closes (1.3e-13, 8.6e-12, 3.7e-12 and 1.5e-12)
    rows = shrink_experiment(FULL, bernoulli(0.8), FAMILY,
                             [0.1, 3e-11, 1e-11, 1e-12])
    for r in rows:
        assert 0 <= r.upper - r.lower <= variational.GAP_TOL, r


LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
SHRINK_CASES = {
    "golden": (GOLDEN, MarkovMeasure([[0.9, 0.1], [1.0, 0.0]]), 16,
               [0.2, 0.1, 0.05, 0.02], LOG_PHI),
    "three_symbols": (full_shift(3), bernoulli([0.5, 0.3, 0.2]), 16,
                      [0.2, 0.1, 0.05, 0.02], math.log(3)),
    "family_40": (FULL, bernoulli(0.8), 40, [0.2, 0.1, 0.05, 0.02],
                  math.log(2)),
    "b099": (FULL, bernoulli(0.99), 16, [0.2, 0.05, 0.01, 0.005, 0.001],
             math.log(2)),
}


@pytest.mark.parametrize("name", sorted(SHRINK_CASES))
def test_shrink_bracket_contract(name):
    # upper may pass h_top by the barrier's leftover gap, never by more
    shift, nu, n, grid, h_top = SHRINK_CASES[name]
    family = TestFunctionFamily("cylinder", n, shift.alphabet_size)
    rows = shrink_experiment(shift, nu, family, grid)
    for r in rows:
        assert r.lower <= r.upper
        assert r.lower <= h_top + 1e-12
        assert r.upper - r.lower <= 1e-10
    lowers = [r.lower for r in rows]
    assert all(a >= b for a, b in zip(lowers, lowers[1:]))
    if name == "golden":  # the ball at 0.2 holds the Parry measure
        assert rows[0].lower == pytest.approx(LOG_PHI, abs=1e-10)
        assert rows[0].upper == pytest.approx(LOG_PHI, abs=1e-10)
    if name == "three_symbols":  # a search over sign vectors stalls 1e-2 short
        assert rows[-1].lower - markov_entropy(nu) >= 0.04151


@given(st.booleans(), st.floats(0.02, 0.98),
       st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=5, unique=True))
@settings(max_examples=40, deadline=None)
def test_shrink_bracket_property(golden, p, deltas):
    if golden:
        shift, nu, h_top = GOLDEN, MarkovMeasure([[1 - p, p], [1, 0]]), LOG_PHI
    else:
        shift, nu, h_top = FULL, bernoulli(p), math.log(2)
    rows = shrink_experiment(shift, nu, FAMILY, sorted(deltas, reverse=True))
    h_nu = markov_entropy(nu)
    for r in rows:
        assert h_nu - 1e-12 <= r.lower <= r.upper
        assert r.lower <= h_top + 1e-12
        assert r.upper - r.lower <= 1e-10
    assert all(a.lower >= b.lower and a.upper >= b.upper
               for a, b in zip(rows, rows[1:]))


def _reference_shrink(shift, nu, family, grid):
    """The oracle barrier on the plain schedule: tau grows tenfold, and each
    delta starts cold at y = 0, t = 1, tau = 2n / delta."""
    depth = family.max_depth
    weight = 2.0 ** -np.arange(2, family.N + 2)
    F = weight * np.array([[w[-depth:][:f.depth] == f.word
                            for f in family.functions]
                           for w in variational._lift(shift, depth)[1]])
    b = weight * np.array([nu.cylinder_mass(f.word)
                           for f in family.functions])
    n, h_nu = len(b), markov_entropy(nu)
    A = np.block([[-np.eye(n), np.ones((n, 1))], [np.eye(n), np.ones((n, 1))]])
    rows, upper = [], math.inf
    for delta in grid:
        z, tau = np.append(np.zeros(n), 1.0), 2 * n / delta
        lower = h_nu
        g = variational._item(
            variational._gibbs(shift, depth, F, z[None, :n]), 0)
        while upper - lower > variational.GAP_TOL and tau < 1e16:
            for _ in range(50):
                inv = 1 / (A @ z)
                grad = tau * np.append(g.mean - b, delta) - A.T @ inv
                H = A.T @ (A * inv[:, None] ** 2)
                H[:n, :n] += tau * g.var
                step = -np.linalg.solve(H, grad)
                if -grad @ step <= 1e-4:
                    break
                rate = np.max(-(A @ step) * inv)
                z = z + (min(1.0, 0.99 / rate) if rate > 0 else 1.0) * step
                g = variational._item(
                    variational._gibbs(shift, depth, F, z[None, :n]), 0)
            D = np.abs(g.mean - b).sum()
            s = min(1.0, delta / D) if D > 0 else 1.0
            h = markov_entropy(MarkovMeasure(g.Q, g.pi))
            lower = max(lower, s * h + (1 - s) * h_nu)
            upper = min(upper, g.P - z[:n] @ b + delta * z[n])
            tau *= 10
        rows.append((lower, upper))
    lowers = np.maximum.accumulate([r[0] for r in rows][::-1])[::-1]
    return [(lo, up) for lo, (_, up) in zip(lowers, rows)]


# the bench's shrink op: full 2-shift, B(0.8), 16 cylinders
BENCH_SHRINK = (FULL, bernoulli(0.8), 16, [0.2, 0.1, 0.05, 0.02], math.log(2))


@pytest.mark.parametrize("name", sorted(SHRINK_CASES) + ["bench"])
def test_shrink_matches_reference_barrier(name):
    shift, nu, n, grid, _ = SHRINK_CASES.get(name, BENCH_SHRINK)
    family = TestFunctionFamily("cylinder", n, shift.alphabet_size)
    rows = shrink_experiment(shift, nu, family, grid)
    for r, (lower, upper) in zip(rows, _reference_shrink(shift, nu, family,
                                                         grid)):
        assert r.lower == pytest.approx(lower, abs=1e-10)
        assert r.upper == pytest.approx(upper, abs=1e-10)


def test_shrink_kernel_calls(monkeypatch):
    # one stacked call per lockstep round: 12 calls carrying 33 items, the
    # shared start at y = 0 included (alone, the deltas take 1, 12, 11 and
    # 12; the log-barrier took 54 calls carrying 202 items in lockstep, and
    # 150 one delta after another)
    calls = []
    kernel = variational._gibbs

    def counted(*args):
        calls.append(len(args[3]))
        return kernel(*args)
    monkeypatch.setattr(variational, "_gibbs", counted)
    shift, nu, _, grid, _ = BENCH_SHRINK
    shrink_experiment(shift, nu, FAMILY, grid)
    assert len(calls) <= 16, calls  # tenfold and cold per delta: 373
    # every live delta steps in every round, so the rounds are the longest
    # search alone
    lockstep, solo = len(calls), []
    for d in grid:
        calls.clear()
        shrink_experiment(shift, nu, FAMILY, [d])
        solo.append(len(calls))
    assert lockstep == max(solo), (lockstep, solo)
    # the ball at 0.2 holds B(1/2): the shared evaluation at y = 0 closes it
    assert solo[0] == 1, solo


def _solo_envelopes(shift, nu, family, grid):
    """The rows of each delta's shrink alone, made monotone: the running
    max of lower from the smallest ball, the running min of upper from the
    largest."""
    solo = [shrink_experiment(shift, nu, family, [d])[0] for d in grid]
    lowers = np.maximum.accumulate([r.lower for r in solo][::-1])[::-1]
    uppers = np.minimum.accumulate([r.upper for r in solo])
    return [variational.ShrinkRow(d, lo, up)
            for d, lo, up in zip(grid, lowers.tolist(), uppers.tolist())]


@pytest.mark.parametrize("name", sorted(SHRINK_CASES) + ["bench"])
def test_lockstep_shrink_equals_solo_envelopes(name):
    # the deltas share each round's kernel call, and each keeps its bits
    shift, nu, n, grid, _ = SHRINK_CASES.get(name, BENCH_SHRINK)
    family = TestFunctionFamily("cylinder", n, shift.alphabet_size)
    assert shrink_experiment(shift, nu, family, grid) == \
        _solo_envelopes(shift, nu, family, grid)


@given(st.booleans(), st.floats(0.02, 0.98),
       st.lists(st.floats(1e-3, 0.5), min_size=2, max_size=5, unique=True))
@settings(max_examples=10, deadline=None)
def test_lockstep_shrink_equals_solo_envelopes_on_any_grid(golden, p, deltas):
    if golden:
        shift, nu = GOLDEN, MarkovMeasure([[1 - p, p], [1, 0]])
    else:
        shift, nu = FULL, bernoulli(p)
    grid = sorted(deltas, reverse=True)
    assert shrink_experiment(shift, nu, FAMILY, grid) == \
        _solo_envelopes(shift, nu, FAMILY, grid)


def test_shrink_rejects_nu_off_the_shift():
    with pytest.raises(ValueError, match="forbidden by the SFT"):
        shrink_experiment(GOLDEN, bernoulli(0.5), FAMILY, [0.1])


WIDE = LocallyConstantObservable(4, tuple(zip(
    itertools.product(range(2), repeat=4),
    (-0.316422, -0.316414, -0.314453, -0.314453, -0.282227, -0.282227,
     -0.280762, -0.280762, 0.109131, 0.109131, 0.109497, 0.109497,
     0.132874, 0.132874, 0.132843, 0.132843))))


@pytest.mark.parametrize("q", [30.0, 50.0])
def test_perron_vector_over_many_decades(q):
    # at these q the Perron vector runs down to about 1e-17, where the
    # Collatz-Wielandt ratios of the unscaled matrix stall near 1e-10
    M, _ = _reference_matrix(FULL, WIDE, q)
    lam = max(np.linalg.eigvals(M).real)
    assert gibbs_kernel(FULL, WIDE, q).P == pytest.approx(math.log(lam),
                                                          rel=1e-12)


@pytest.mark.parametrize("q", [-800.0, 800.0, 1200.0])
def test_perron_vector_past_the_float_range_is_refused(q):
    # the Perron vector spans past 1e-308 here: an entry of its scale goes
    # to 0, which left 0 / 0 in Q at +-800 and stalled the Collatz-Wielandt
    # certificate at 1200
    with pytest.raises(ValueError, match=r"float range at c=\[%d\.\]" % q):
        gibbs_kernel(FULL, WIDE, q)
    # in a stack, the message names the item past the range
    with pytest.raises(ValueError, match=r"float range at c=\[%d\.\]" % q):
        variational._phi_gibbs(FULL, WIDE, np.array([30.0, q]))


def test_range_error_is_one_line():
    # numpy wraps a 16-entry row over several lines unless told otherwise
    depth, F = _cylinder_features(FULL, 16)
    c = np.linspace(-4000.0, -20000.0, 16)[None, :]
    x = F @ c[0]
    assert x.max() - x.min() > 700
    with pytest.raises(ValueError, match="spans past the float range") as exc:
        variational._gibbs(FULL, depth, F, c)
    assert "\n" not in str(exc.value)


# --------------------------------------------------------- stacked kernel
# The kernel computes every item of a (B, N) stack as it would alone, so a
# stack must equal its single items bit for bit, the q = +-Q_CAP ends too.

TABLE = LocallyConstantObservable(2, (((0, 0), 0.3), ((0, 1), 1.0),
                                      ((1, 0), -0.5), ((1, 1), 0.1)))
COEFFICIENT = st.one_of(st.sampled_from([-variational.Q_CAP,
                                         variational.Q_CAP]),
                        st.floats(-variational.Q_CAP, variational.Q_CAP))


def _cylinder_features(shift, N):
    """(depth, F): the shrink's weighted cylinder features on the lift to
    the deepest of the first N cylinders."""
    family = TestFunctionFamily("cylinder", N, shift.alphabet_size)
    depth = family.max_depth
    weight = 2.0 ** -np.arange(2, N + 2)
    return depth, weight * np.array([[w[-depth:][:f.depth] == f.word
                                      for f in family.functions]
                                     for w in variational._lift(shift,
                                                                depth)[1]])


STACK_SHIFTS = {"full2": FULL, "full3": full_shift(3), "golden": GOLDEN}


@given(st.sampled_from(sorted(STACK_SHIFTS)), st.integers(1, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_stack_equals_single_items(name, B, data):
    shift, N = STACK_SHIFTS[name], 16
    depth, F = _cylinder_features(shift, N)
    c = np.array(data.draw(st.lists(
        st.lists(COEFFICIENT, min_size=N, max_size=N), min_size=B,
        max_size=B)))
    stack = variational._gibbs(shift, depth, F, c)
    for i in range(B):
        one = variational._gibbs(shift, depth, F, c[i:i + 1])
        for field in variational.Gibbs._fields:
            assert np.array_equal(getattr(stack, field)[i],
                                  getattr(one, field)[0]), (i, field)


COLUMN_CASES = {"golden_table": (GOLDEN, TABLE), "full_table": (FULL, TABLE),
                "full2": (FULL, PHI), "full3": (full_shift(3),
                                                frequency_observable(2, 3)),
                "full_wide": (FULL, WIDE)}


@given(st.sampled_from(sorted(COLUMN_CASES)), COEFFICIENT)
@settings(max_examples=60, deadline=None)
def test_gibbs_chain_attains_the_pressure(name, q):
    # the Gibbs chain is an equilibrium state: h(mu_q) + q P'(q) = P(q)
    # (Walters ch. 9); worst on a 201-point q grid: 2.4e-13 (full_wide)
    shift, phi = COLUMN_CASES[name]
    g = gibbs_kernel(shift, phi, q)
    gap = float(chain_entropy(g.Q, g.pi)) + q * g.mean - g.P
    assert abs(gap) <= 1e-10 * max(1.0, abs(g.P))


@given(st.sampled_from(sorted(COLUMN_CASES)),
       st.lists(COEFFICIENT, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_column_stack_equals_gibbs_kernel(name, qs):
    # the wide observable takes items through the rebalanced Perron problem
    # and freezes them in different rounds
    shift, phi = COLUMN_CASES[name]
    stack = variational._phi_gibbs(shift, phi, np.array(qs))
    for i, q in enumerate(qs):
        one = gibbs_kernel(shift, phi, q)
        assert stack.P[i] == one.P and stack.mean[i] == one.mean
        assert stack.var[i] == one.var
        assert np.array_equal(stack.Q[i], one.Q)
        assert np.array_equal(stack.pi[i], one.pi)


# ---------------------------------------------------------- lockstep oracle
# The per-alpha Newton loop, one kernel call per step, that the lockstep
# rounds replaced; every point of `spectrum` must equal its own.

def _reference_constrained_sup(shift, phi, alpha):
    low, high = variational._edge_gibbs(shift, phi)
    q_cap = variational.Q_CAP
    if high.mean - low.mean < 1e-13:
        if abs(alpha - low.mean) <= 1e-9:
            return variational._point(alpha, 0.0,
                                      gibbs_kernel(shift, phi, 0.0))
        return variational.SpectrumPoint(alpha, None, empty=True)
    if alpha < low.mean - 1e-9 or alpha > high.mean + 1e-9:
        return variational.SpectrumPoint(alpha, None, empty=True)
    if alpha <= low.mean:
        return variational._point(alpha, -q_cap, low)
    if alpha >= high.mean:
        return variational._point(alpha, q_cap, high)
    lo_q, hi_q, q = -q_cap, q_cap, 0.0
    for _ in range(200):
        g = gibbs_kernel(shift, phi, q)
        miss = g.mean - alpha
        if abs(miss) <= variational.NEWTON_TOL:
            break
        if miss < 0:
            lo_q = q
        else:
            hi_q = q
        if hi_q - lo_q < 1e-13:
            break
        newton = q - miss / g.var if g.var > 0 else lo_q
        q = newton if lo_q < newton < hi_q else 0.5 * (lo_q + hi_q)
    return variational._point(alpha, q, g)


def _assert_same_point(got, want):
    for name in ("alpha", "h_var", "empty"):
        assert getattr(got, name) == getattr(want, name), (got.alpha, name)


NEAR_EDGE = [1e-3, 1e-6, 0.4999]
ORACLE_CASES = {
    "bench_full": (FULL, PHI, 0.0, 1.0,
                   [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] + NEAR_EDGE),
    "bench_golden": (GOLDEN, PHI, 0.0, 1.0,
                     [0.05, 0.1, 0.2, 0.3, 0.4, 0.45] + NEAR_EDGE),
    "golden_table": (GOLDEN, TABLE, 0.25, 0.3,
                     [0.25, 0.2501, 0.26, 0.28, 0.2995, 0.3]),
    "bisection": (FULL, RUN3, 0.0, 1.0, [0.5, 0.9, 0.99]),
    "constant": (FULL, LocallyConstantObservable(1, (((0,), 0.5),
                                                     ((1,), 0.5))),
                 0.0, 1.0, [0.25, 0.5]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_lockstep_spectrum_matches_per_alpha_oracle(name):
    shift, phi, lo, hi, grid = ORACLE_CASES[name]
    res = spectrum(shift, phi, lo, hi, True, grid)
    want = [p for p in (_reference_constrained_sup(shift, phi, a)
                        for a in grid) if not p.empty]
    ends = [p for p in (_reference_constrained_sup(shift, phi, a)
                        for a in (lo, hi)) if not p.empty]
    assert len(res.points) == len(want)
    for got, ref in zip(res.points, want):
        _assert_same_point(got, ref)
    # the ends take part in the sup with their own bits
    best = max(want + ends, key=lambda p: p.h_var)
    assert (res.sup_value, res.sup_alpha) == (best.h_var, best.alpha)
    for alpha in grid:
        _assert_same_point(constrained_sup(shift, phi, alpha),
                           _reference_constrained_sup(shift, phi, alpha))


def test_spectrum_kernel_calls(monkeypatch):
    # the bench's spectrum_full op: one stacked call per Newton round, the
    # range included (one call per alpha and step made 47)
    variational._edge_gibbs.cache_clear()
    _, calls = _kernel_spy(monkeypatch)
    spectrum(FULL, PHI, 0.0, 1.0, True, [i / 10 for i in range(1, 10)],
             count_n=24)
    assert len(calls) <= 10, calls


# ------------------------------------------------------------ count column

@pytest.mark.parametrize("shift, phi, grid, n", [
    (FULL, PHI, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], 24),
    (GOLDEN, PHI, [0.05, 0.1, 0.2, 0.3, 0.4, 0.45], 24),
    (GOLDEN, TABLE, [0.26, 0.27, 0.28, 0.29], 22),
    (GOLDEN, TABLE, [0.26, 0.27, 0.28, 0.29], 3)])
def test_spectrum_counts_match_levelset_count(shift, phi, grid, n):
    # one walk serves the grid; each alpha reads the one average S / (n D)
    # nearest it, the open window (2S -+ 1) / 2nD of levelset_count
    D = math.lcm(*(Fraction(str(v)).denominator
                   for v in phi.lookup().values()))
    res = spectrum(shift, phi, *phi.value_range, True, grid, count_n=n)
    assert [p.alpha for p in res.points] == grid
    for pt in res.points:
        S = round(pt.alpha * n * D)
        est = levelset_count(shift, LevelSetQuery(
            phi, Fraction(2 * S - 1, 2 * n * D),
            Fraction(2 * S + 1, 2 * n * D), n))
        assert pt.n_count == n and pt.h_count == est.value
        [one] = levelset_counts_at(shift, phi, [pt.alpha], n)
        assert pt.h_count == one.value


@pytest.mark.parametrize("shift, lo, hi, grid", [
    (FULL, 0.3, 0.4, [0.1, 0.2, 0.9]),       # no grid alpha inside
    (GOLDEN, 0.2, 0.9, [0.6, 0.7, 0.8])])    # every inside alpha empty
def test_spectrum_walks_only_for_surviving_points(monkeypatch, shift, lo, hi,
                                                  grid):
    # a count_n past the table budget costs nothing when no point is left
    monkeypatch.setattr(entropy, "TABLE_BUDGET", 64)
    res = spectrum(shift, PHI, lo, hi, True, grid, count_n=80)
    assert res.points == [] and res.sup_alpha in (lo, hi)
    with pytest.raises(InfeasibleCountError):
        spectrum(shift, PHI, lo, hi, True, grid + [0.35], count_n=80)


def test_count_window_isolates_one_average():
    # averages of the table lie on the 1/(10 n) grid; the former 1/n window
    # held several of them and gave 0.481666 at both alphas
    res = spectrum(GOLDEN, TABLE, -0.5, 1.0, True, [0.26, 0.28], count_n=22)
    low, high = res.points
    assert low.h_count == math.log(1230) / 22      # S = 57
    assert high.h_count == math.log(3740) / 22     # S = 62
    assert low.h_var == pytest.approx(0.381909, abs=1e-6)
    assert high.h_var == pytest.approx(0.449868, abs=1e-6)
    assert low.h_count < low.h_var and high.h_count < high.h_var


def test_perron_stack_survives_a_nonpositive_iterate(monkeypatch):
    # an item whose iterate is not positive skips that round's certificate
    # and rebalance, and the others keep every bit
    qs = np.array([0.5, 3.0])
    clean = variational._phi_gibbs(FULL, WIDE, qs)
    solve, flipped = np.linalg.solve, []

    def flip(A, b):
        x = solve(A, b)
        if not flipped and len(A) == 2 * len(qs):  # the first Perron round
            flipped.append(True)
            x[0, x[0, :, 0].argmin(), 0] *= -1
        return x
    monkeypatch.setattr(np.linalg, "solve", flip)
    dirty = variational._phi_gibbs(FULL, WIDE, qs)
    assert flipped
    for field in variational.Gibbs._fields:
        assert np.array_equal(getattr(dirty, field)[1],
                              getattr(clean, field)[1]), field
    assert dirty.P[0] == pytest.approx(clean.P[0], rel=1e-12)
    assert np.abs(dirty.pi[0] - clean.pi[0]).max() <= 1e-10


def test_phi_column_names_the_admissible_word_the_table_misses():
    # the KeyError of the missing word reached the console as "(1, 1)"
    phi = LocallyConstantObservable(2, (((0, 0), 0.3), ((0, 1), 1.0),
                                        ((1, 0), -0.5)))
    with pytest.raises(ValueError, match=re.escape("misses the word [1, 1]")):
        variational._phi_column(FULL, phi)
    # on the golden mean no edge word ends in 11
    column = variational._phi_column(golden_mean_shift(), phi)
    assert set(column[:, 0]) == {0.3, 1.0, -0.5}
