import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitweave import variational
from orbitweave.measures import (LocallyConstantObservable, MarkovMeasure,
                                 TestFunctionFamily, bernoulli,
                                 frequency_observable, markov_entropy)
from orbitweave.systems import ShiftSpace, full_shift, golden_mean_shift
from orbitweave.variational import (EmptyConstraintError, ReducibleLiftError,
                                    constrained_sup, count_at, gibbs_data,
                                    gibbs_kernel, pressure, shrink_experiment,
                                    spectrum)

FULL = full_shift(2)
PHI = frequency_observable(1)
FAMILY = TestFunctionFamily("cylinder", 16, 2)


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def test_pressure_unweighted_is_topological_entropy():
    assert pressure(FULL, PHI, 0.0) == pytest.approx(math.log(2), abs=1e-11)
    gm = golden_mean_shift()
    golden = (1 + math.sqrt(5)) / 2
    assert pressure(gm, PHI, 0.0) == pytest.approx(math.log(golden), abs=1e-10)


@given(st.floats(-8, 8))
@settings(max_examples=60, deadline=None)
def test_pressure_closed_form_full_shift(q):
    assert pressure(FULL, PHI, q) == pytest.approx(math.log(1 + math.exp(q)),
                                                   abs=1e-10)


def test_pressure_large_negative_q():
    assert pressure(FULL, PHI, -40.0) == pytest.approx(0.0, abs=1e-12)


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
                M[i, j] = math.exp(q * phi.value(w))
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
    integral = sum(pi[i] * Q[i, j] * phi.value(w)
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
        pressure(reducible, PHI, 0.0)
    # depth 2 on three symbols, 2 -> {0, 1} only: no edge returns to 2
    tail = ShiftSpace(3, ((1, 1, 0), (1, 1, 0), (1, 1, 0)))
    phi2 = LocallyConstantObservable(2, tuple(
        (w, float(w[0] == w[1]))
        for w in itertools.product(range(3), repeat=2)))
    with pytest.raises(ReducibleLiftError):
        pressure(tail, phi2, 0.0)


def test_weights_past_float_range():
    # only the spread of q phi matters: exp(q phi - max q phi) is in (0, 1]
    high = LocallyConstantObservable(1, (((0,), 100.0), ((1,), 101.0)))
    assert pressure(FULL, high, 50.0) == pytest.approx(
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


def test_constrained_sup_binary_entropy():
    for alpha in (0.1, 0.25, 0.5, 0.62, 0.9):
        pt = constrained_sup(FULL, PHI, alpha)
        assert pt.h_var == pytest.approx(binary_entropy(alpha), abs=1e-9)
        assert pt.maximizer_integral == pytest.approx(alpha, abs=1e-8)
        assert abs(pt.duality_gap) <= 1e-8
        assert 0.0 <= pt.h_var <= math.log(2)


def test_constrained_sup_symmetric_maximum():
    pt = constrained_sup(FULL, PHI, 0.5)
    assert pt.h_var == pytest.approx(math.log(2), abs=1e-10)
    assert pt.maximizer.P[0][1] == pytest.approx(0.5, abs=1e-8)


def test_constrained_sup_endpoint_limits():
    pt = constrained_sup(FULL, PHI, 0.0)
    assert pt.endpoint_limit
    assert pt.h_var == pytest.approx(0.0, abs=1e-9)
    pt1 = constrained_sup(FULL, PHI, 1.0)
    assert pt1.h_var == pytest.approx(0.0, abs=1e-9)


def test_constrained_sup_empty_constraint():
    pt = constrained_sup(FULL, PHI, 1.5)
    assert pt.empty
    assert pt.h_var is None


@pytest.mark.parametrize("shift, alpha", [(FULL, 0.001), (FULL, 0.999),
                                          (GOLDEN, 0.4999)])
def test_constrained_sup_near_edge(shift, alpha):
    # P'' -> 0 toward the attainable edge: Newton from q = 0 crawls there, and
    # stops only once |P'(q) - alpha| <= 1e-13
    pt = constrained_sup(shift, PHI, alpha)
    if shift is FULL:
        oracle = binary_entropy(alpha)
    else:
        oracle = (1 - alpha) * binary_entropy(alpha / (1 - alpha))
    assert not pt.endpoint_limit
    assert pt.h_var == pytest.approx(oracle, abs=1e-9)
    assert pt.maximizer_integral == pytest.approx(alpha, abs=1e-12)


RUN3 = LocallyConstantObservable(3, tuple(
    (w, float(w == (1, 1, 1))) for w in itertools.product(range(2), repeat=3)))


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_constrained_sup_bisection_safeguard(monkeypatch, alpha):
    # frequency of 111 on the full shift: from q = 0 a Newton step leaves the
    # bracket, so the search must bisect and still land on P'(q) = alpha
    variational._edge_gibbs(FULL, RUN3, variational.Q_CAP)
    steps = []
    kernel = variational.gibbs_kernel

    def spy(shift, phi, q):
        steps.append((q, kernel(shift, phi, q)))
        return steps[-1][1]
    monkeypatch.setattr(variational, "gibbs_kernel", spy)
    pt = constrained_sup(FULL, RUN3, alpha)
    assert any(q1 != q0 - (g0.mean - alpha) / g0.var
               for (q0, g0), (q1, _) in zip(steps, steps[1:]))
    P, _, _, integral = _reference_gibbs(FULL, RUN3, pt.q_star)
    assert integral == pytest.approx(alpha, abs=1e-10)
    assert pt.h_var == pytest.approx(P - pt.q_star * alpha, abs=1e-10)


@pytest.mark.parametrize("shift, grid", [
    (FULL, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    (GOLDEN, [0.05, 0.1, 0.2, 0.3, 0.4, 0.45])])
def test_constrained_sup_kernel_calls(monkeypatch, shift, grid):
    calls = []
    kernel = variational.gibbs_kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)
    monkeypatch.setattr(variational, "gibbs_kernel", counted)
    for alpha in grid:
        variational._edge_gibbs.cache_clear()  # count the range too
        calls.clear()
        constrained_sup(shift, PHI, alpha)
        assert len(calls) <= 10, (alpha, len(calls))


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
    assert any(p.endpoint_limit for p in res.endpoint_points)


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


def test_count_at_binomial():
    est = count_at(FULL, PHI, 0.26, 12)  # nearest achievable is 3/12
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
