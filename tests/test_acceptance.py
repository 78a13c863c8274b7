"""Acceptance suite: seven end-to-end criteria, one pass/fail line each.

Each test prints a single summary line before asserting, so the log shows
the measured numbers even on failure.  Tolerances and runtime budgets are
pinned; nothing here is tuned to the implementation.
"""

import itertools
import math
import time

import numpy as np

from orbitweave.entropy import (katok_count, katok_entropy, levelset_counts_at,
                                max_separated, min_spanning)
from orbitweave.measures import (AtomicMeasure, LocallyConstantObservable,
                                 TestFunctionFamily, bernoulli,
                                 frequency_observable, integrate,
                                 markov_entropy, weak_star_distance)
from orbitweave.shadowing import (make_rng, perturbed_orbit, shadow_interval,
                                  shadow_shift, validate_pseudo, _random_start)
from orbitweave.systems import (TentMap, Word, full_shift, golden_mean_shift)
from orbitweave.variational import (constrained_sup, gibbs_kernel,
                                    shrink_experiment)
from orbitweave.weaving import run_weave, separation_audit, weave_point

FULL = full_shift(2)
PHI = frequency_observable(1)
FAMILY = TestFunctionFamily("cylinder", 16, 2)
GRID = [i / 10 for i in range(1, 10)]


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def test_criterion_1_besicovitch_eggleston():
    t0 = time.monotonic()
    worst = max(abs(constrained_sup(FULL, PHI, a).h_var - binary_entropy(a))
                for a in GRID)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(1, ok, f"max |H(alpha) - binary entropy| = {worst:.3g} "
                  f"(tol 1e-6), runtime {elapsed:.2f}s (< 1s)")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_counting_agreement():
    t0 = time.monotonic()
    worst24 = 0.0
    monotone = True
    for alpha in GRID:
        gaps = []
        for n in (12, 16, 20, 24):
            j = round(alpha * n)
            rate = levelset_counts_at(FULL, PHI, [alpha], n)[0].value
            gaps.append(abs(rate - constrained_sup(FULL, PHI, j / n).h_var))
        worst24 = max(worst24, gaps[-1])
        monotone = monotone and all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.monotonic() - t0
    ok = worst24 <= 0.1 and monotone and elapsed < 10.0
    report(2, ok, f"max gap at n=24 is {worst24:.4f} (tol 0.1), "
                  f"monotone over n in 12..24: {monotone}, "
                  f"runtime {elapsed:.2f}s (< 10s)")
    assert worst24 <= 0.1
    assert monotone
    assert elapsed < 10.0


def test_criterion_3_katok_estimator():
    t0 = time.monotonic()
    count = katok_count(FULL, bernoulli(0.5), 20, 0.5, 0.1)
    oracle = math.ceil(0.9 * 2 ** 21)
    rate = math.log(count) / 20
    est = katok_entropy(FULL, bernoulli(0.7), 0.25, 0.2, [12, 18, 24])
    gap7 = abs(est.value - 0.610864)
    elapsed = time.monotonic() - t0
    ok = (count == oracle and abs(rate - math.log(2)) <= 0.05
          and gap7 <= 0.08 and elapsed < 30.0)
    report(3, ok, f"exact count {count} == {oracle}, "
                  f"|rate - ln2| = {abs(rate - math.log(2)):.4f} (tol 0.05), "
                  f"B(0.7) gap {gap7:.4f} (tol 0.08), "
                  f"runtime {elapsed:.1f}s (< 30s)")
    assert count == oracle
    assert abs(rate - math.log(2)) <= 0.05
    assert gap7 <= 0.08
    assert elapsed < 30.0


def test_criterion_4_shadowing_contract():
    t0 = time.monotonic()
    gm = golden_mean_shift()
    ok_full = ok_gm = 0
    for t in range(1000):
        for sh in (FULL, gm):
            rng = make_rng(10_000 + t)
            x0 = _random_start(sh, rng)
            po = perturbed_orbit(sh, x0, 200, 2.0 ** -8, seed=20_000 + t)
            res = shadow_shift(sh, po)
            good = res.max_deviation <= 2.0 ** -9
            if sh is gm:
                ok_gm += good and sh.admissible(res.point, depth=250)
            else:
                ok_full += good
    tent = TentMap(2.0)
    ok_tent = 0
    for t in range(200):
        rng = make_rng(30_000 + t)
        po = perturbed_orbit(tent, _random_start(tent, rng), 100, 1e-6,
                             seed=40_000 + t)
        if shadow_interval(tent, po, 1e-3) is not None:
            ok_tent += 1
    elapsed = time.monotonic() - t0
    ok = (ok_full == 1000 and ok_gm == 1000 and ok_tent >= 190
          and elapsed < 60.0)
    report(4, ok, f"splice {ok_full}/1000 full, {ok_gm}/1000 golden-mean "
                  f"(need 100%), tent {ok_tent}/200 (need >= 190), "
                  f"runtime {elapsed:.1f}s (< 60s)")
    assert ok_full == 1000
    assert ok_gm == 1000
    assert ok_tent >= 190
    assert elapsed < 60.0


def test_criterion_5_weave_end_to_end():
    t0 = time.monotonic()
    target = bernoulli(0.7)
    schedule, families, outcome = run_weave(
        FULL, target, FAMILY, k_max=3, gamma=0.25, block_length=16,
        epsilon=0.25, budget=400, seed=11, min_total_length=50_000)
    assert schedule.certified  # every integer invariant checked exactly
    rng = make_rng(99)
    slots = list(outcome.picks)
    audits = 0
    for _ in range(100):
        slot = slots[int(rng.integers(len(slots)))]
        fam = families[(slot[0], slot[1])]
        picks2 = dict(outcome.picks)
        picks2[slot] = (picks2[slot] + 1
                        + int(rng.integers(len(fam.blocks) - 1))) \
            % len(fam.blocks)
        out2 = weave_point(FULL, schedule, families, target, FAMILY,
                           seed=11, picks=picks2)
        audits += separation_audit(FULL, schedule, outcome, out2)
    elapsed = time.monotonic() - t0
    ok = (schedule.total_length >= 50_000 and outcome.final_distance <= 0.05
          and audits == 100 and elapsed < 120.0)
    report(5, ok, f"length {schedule.total_length} (>= 5e4), invariants "
                  f"certified, final D = {outcome.final_distance:.4f} "
                  f"(tol 0.05), separation audits {audits}/100, "
                  f"runtime {elapsed:.1f}s (< 120s)")
    assert schedule.total_length >= 50_000
    assert outcome.final_distance <= 0.05
    assert audits == 100
    assert elapsed < 120.0


def _golden_min(f, a, b, steps=60):
    """Minimum of a convex function on [a, b] by golden-section search."""
    g = (math.sqrt(5) - 1) / 2
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(steps):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
    return min(f1, f2)


def _ball_dual(nu, delta):
    """c -> P(sum_i c_i 1_{C_i}) - sum_i c_i nu(C_i) + delta max_i |c_i| 2^(i+1),
    an upper bound on sup{h(mu) : D(mu, nu) <= delta} for every c."""
    cyls = FAMILY.functions
    nu_mass = [integrate(nu, f) for f in cyls]
    depth = FAMILY.max_depth
    words = list(itertools.product(range(2), repeat=depth))

    def dual(c):
        phi = LocallyConstantObservable(depth, tuple(
            (w, sum(ci for ci, f in zip(c, cyls) if w[:f.depth] == f.word))
            for w in words))
        return (gibbs_kernel(FULL, phi, 1.0).P
                - sum(ci * m for ci, m in zip(c, nu_mass))
                + delta * max(abs(ci) * 2.0 ** (i + 1)
                              for i, ci in enumerate(c, start=1)))
    return dual


def _certified_bracket(p_nu, delta):
    """[L, U] around sup{h(mu) : D(mu, B(p_nu)) <= delta}, mu invariant.

    L is the entropy of the Bernoulli measure nearest 1/2 inside the ball.
    U minimises the dual bound along c = -lam (2^-(i+1) s_i), with s_i the
    sign of B(p)(C_i) - nu(C_i) at that Bernoulli measure.
    """
    nu = bernoulli(p_nu)
    lo, hi = p_nu, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if weak_star_distance(bernoulli(mid), nu, FAMILY) <= delta:
            lo = mid
        else:
            hi = mid
    inside = bernoulli(lo)
    signs = [float(np.sign(integrate(inside, f) - integrate(nu, f)))
             for f in FAMILY.functions]
    dual = _ball_dual(nu, delta)
    upper = _golden_min(
        lambda lam: dual([-lam * 2.0 ** -(i + 1) * s
                          for i, s in enumerate(signs, start=1)]),
        0.0, 20.0)
    return markov_entropy(inside), upper


def test_criterion_6_shrinking_principle():
    # The shrinking principle says sup{h(mu) : D(mu, nu) <= delta} -> h(nu)
    # as delta -> 0; it fixes no value at any delta, so each estimate is
    # checked against a certified bracket [L, U] of the true supremum.
    #   L: B(p) is invariant, so any B(p) inside the ball is feasible and
    #      its entropy is a lower bound; bisect p between 0.8 and 1/2.
    #   U: for f = sum_i c_i 1_{C_i}, the variational principle gives
    #      h(mu) <= P(f) - int f dmu, and |int f dmu - int f dnu|
    #      <= max_i |c_i| 2^(i+1) * D(mu, nu), so every c yields
    #      sup <= P(f) - sum_i c_i nu(C_i) + delta max_i |c_i| 2^(i+1).
    #      Loose c only loosens U; it never invalidates it.
    # At c = -ln 4 * 1_[0] the Gibbs measure of f is nu itself and
    # P(f) = ln(5/4), which gives sup - h_nu <= 4 ln 4 * delta in closed form.
    # Measured at delta = 0.02: [L, U] - h_nu = [0.056569, 0.056579], so
    # the true gap exceeds 0.05 for any correct search.
    nu = bernoulli(0.8)
    h_nu = markov_entropy(nu)
    t0 = time.monotonic()
    rows = shrink_experiment(FULL, nu, FAMILY, [0.2, 0.1, 0.05, 0.02])
    elapsed = time.monotonic() - t0
    sups = [r.lower for r in rows]
    monotone = all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))
    bounded = all(s >= h_nu - 1e-9 for s in sups)
    brackets = [_certified_bracket(0.8, r.delta) for r in rows]
    inside = all(lo - 1e-6 <= s <= up + 1e-9
                 for s, (lo, up) in zip(sups, brackets))
    width = max(up - lo for lo, up in brackets)
    rate = all(s - h_nu <= 4 * math.log(4) * delta for delta, s, _ in rows)
    lo, up = brackets[-1]
    ok = (monotone and bounded and inside and width <= 1e-4 and rate
          and elapsed < 60.0)
    report(6, ok, f"nonincreasing: {monotone}, >= h_nu: {bounded}, "
                  f"sup_hat(0.02) - h_nu = {sups[-1] - h_nu:.6f} in certified "
                  f"[{lo - h_nu:.6f}, {up - h_nu:.6f}], all deltas inside: "
                  f"{inside}, max width {width:.1e} (tol 1e-4), "
                  f"<= 4 ln4 delta: {rate}, runtime {elapsed:.1f}s (< 60s)")
    assert monotone
    assert bounded
    assert elapsed < 60.0
    c0 = [-math.log(4)] + [0.0] * (FAMILY.N - 1)
    for delta, *_ in rows:
        closed = h_nu + 4 * math.log(4) * delta
        assert abs(_ball_dual(nu, delta)(c0) - closed) <= 1e-9
    for s, (lo, up) in zip(sups, brackets):
        assert lo - 1e-6 <= s <= up + 1e-9
        assert up - lo <= 1e-4
    assert rate
    # The library's own bracket [lower, upper] lies inside the test's and is
    # narrower.  The test's U is within 1e-12 of the supremum on this grid,
    # so the library's upper may pass it by the library's own gap.
    for r, (lo, up) in zip(rows, brackets):
        assert lo - 1e-12 <= r.lower <= r.upper <= up + 1e-10
        assert r.upper - r.lower <= max(up - lo, 1e-10)


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    # weak* metric axioms on 500 random atomic-measure triples
    rng = make_rng(123)
    worst_slack = 0.0
    worst_bound = 0.0

    def rand_measure():
        k = int(rng.integers(1, 4))
        atoms = []
        weights = rng.random(k)
        weights = weights / weights.sum()
        for w in weights:
            cyc = tuple(int(s) for s in rng.integers(0, 2, size=3))
            atoms.append((Word.periodic(cyc), float(w)))
        total = sum(w for _, w in atoms)
        return AtomicMeasure(tuple((a, w / total) for a, w in atoms))

    for _ in range(500):
        mu, nu, rho = rand_measure(), rand_measure(), rand_measure()
        d1 = weak_star_distance(mu, rho, FAMILY)
        d2 = weak_star_distance(mu, nu, FAMILY)
        d3 = weak_star_distance(nu, rho, FAMILY)
        worst_slack = max(worst_slack, d1 - d2 - d3)
        worst_bound = max(worst_bound, d1, d2, d3)
        assert d2 == weak_star_distance(nu, mu, FAMILY)
    # separated/spanning sandwich, exhaustive parameter sweep n + q <= 12
    pts = [Word.periodic(w) for w in itertools.product(range(2), repeat=4)]
    sandwich = True
    for n in range(1, 12):
        for q in range(1, 13 - n):
            eps = 2.0 ** -q
            p2 = max_separated(FULL, pts, n, 2 * eps).count
            qq = min_spanning(FULL, pts, n, eps).count
            p1 = max_separated(FULL, pts, n, eps).count
            sandwich = sandwich and p2 <= qq <= p1
    # pseudo-orbit validation round-trips
    for t in range(20):
        po = perturbed_orbit(FULL, _random_start(FULL, make_rng(t)),
                             50, 2.0 ** -5, seed=t)
        validate_pseudo(FULL, po.states, po.delta)
    elapsed = time.monotonic() - t0
    ok = (worst_slack <= 1e-12 and worst_bound <= 1.0 and sandwich
          and elapsed < 30.0)
    report(7, ok, f"triangle slack {worst_slack:.2g} (tol 1e-12), "
                  f"D <= 1: {worst_bound:.3f}, sandwich holds: {sandwich}, "
                  f"round-trips ok, runtime {elapsed:.1f}s (< 30s)")
    assert worst_slack <= 1e-12
    assert worst_bound <= 1.0
    assert sandwich
    assert elapsed < 30.0
