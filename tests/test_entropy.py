import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitweave.entropy import (InfeasibleCountError, LevelSetQuery,
                                katok_count, katok_entropy, levelset_count,
                                max_separated, min_spanning)
from orbitweave.measures import (MarkovMeasure, bernoulli,
                                 frequency_observable)
from orbitweave.systems import Word, dist_n, full_shift, golden_mean_shift


def all_periodic(n):
    return [Word.periodic(w) for w in itertools.product(range(2), repeat=n)]


def test_max_separated_exact_small():
    sh = full_shift(2)
    pts = all_periodic(3)  # 8 points
    res = max_separated(sh, pts, 3, 1.0)
    assert res.exact
    # d_3 = 1 iff the first 3 symbols differ somewhere, so all 8 qualify
    assert res.count == 8


def test_max_separated_matches_brute_force():
    sh = full_shift(2)
    pts = all_periodic(2) + [Word.periodic((0, 1, 1))]
    n, eps = 2, 0.5
    res = max_separated(sh, pts, n, eps)
    best = 0
    for r in range(len(pts), 0, -1):
        for sub in itertools.combinations(range(len(pts)), r):
            if all(dist_n(sh, pts[i], pts[j], n) >= eps
                   for i, j in itertools.combinations(sub, 2)):
                best = max(best, r)
        if best:
            break
    assert res.count == best


def test_min_spanning_exact_small():
    sh = full_shift(2)
    pts = all_periodic(2)
    res = min_spanning(sh, pts, 2, 0.5)
    assert res.exact
    # a strict (2, 1/2)-ball is a 3-cylinder; 4 points with distinct 2-prefixes
    # and periodic continuations need 4 centers
    assert res.count == 4


def test_greedy_fallback_flagged():
    sh = full_shift(2)
    pts = all_periodic(5)  # 32 > exact limit
    res = max_separated(sh, pts, 5, 1.0)
    assert not res.exact
    assert res.count >= 1


def test_separated_spanning_sandwich_small():
    sh = full_shift(2)
    pts = all_periodic(3)
    for n in (1, 2, 3):
        for q in (1, 2):
            eps = 2.0 ** -q
            p_2eps = max_separated(sh, pts, n, 2 * eps).count
            q_eps = min_spanning(sh, pts, n, eps).count
            p_eps = max_separated(sh, pts, n, eps).count
            assert p_2eps <= q_eps <= p_eps


def test_katok_count_fair_coin_closed_form():
    # all (n+q)-cylinders of the uniform measure on k symbols weigh
    # k^-(n+q); need the least count with count * k^-(n+q) > 1 - delta
    for k, n, q, delta in [(2, 4, 1, 0.1), (2, 6, 2, 0.25), (3, 13, 1, 0.1)]:
        expect = math.floor((1 - delta) * k ** (n + q)) + 1
        m = bernoulli([1 / k] * k)
        assert katok_count(full_shift(k), m, n, 2.0 ** -q, delta) == expect


def test_katok_count_matches_enumeration():
    gm = golden_mean_shift()
    chain = np.random.default_rng(3).random((3, 3))
    cases = [
        (full_shift(2), bernoulli(0.7), 5, 2, 0.2),
        (full_shift(3), bernoulli([0.5, 0.3, 0.2]), 6, 1, 0.2),
        (full_shift(3), MarkovMeasure(chain / chain.sum(axis=1, keepdims=True)),
         5, 2, 0.1),
        (gm, MarkovMeasure([[0.6, 0.4], [1.0, 0.0]], shift=gm), 8, 1, 0.2),
    ]
    for sh, m, n, q, delta in cases:
        words = itertools.product(range(sh.alphabet_size), repeat=n + q)
        masses = sorted((m.cylinder_mass(w) for w in words), reverse=True)
        cum, cnt = 0.0, 0
        for mass in masses:
            if cum > 1 - delta:
                break
            cum += mass
            cnt += 1
        assert katok_count(sh, m, n, 2.0 ** -q, delta) == cnt


def test_katok_count_respects_sft_support():
    gm = golden_mean_shift()
    supported = MarkovMeasure([[0.5, 0.5], [1.0, 0.0]], shift=gm)
    cnt = katok_count(gm, supported, 4, 0.5, 0.1)
    admissible = sum(1 for w in itertools.product(range(2), repeat=5)
                     if gm.word_admissible(w))
    assert 0 < cnt <= admissible


def test_katok_entropy_diagnostics():
    sh = full_shift(2)
    est = katok_entropy(sh, bernoulli(0.5), 0.5, 0.1, [4, 8, 12])
    assert est.method == "katok"
    assert len(est.diagnostics) == 3
    assert est.value == est.diagnostics[-1][2]
    assert abs(est.value - math.log(2)) < 0.06


def test_katok_infeasible():
    sh = full_shift(2)
    with pytest.raises(InfeasibleCountError):
        katok_count(sh, bernoulli(0.5), 28, 0.25, 0.1)
    with pytest.raises(ValueError):
        katok_count(sh, bernoulli(0.5), 4, 0.3, 0.1)  # not a power of 2


def test_levelset_count_binomial():
    sh = full_shift(2)
    phi = frequency_observable(1)
    n = 12
    for j in (0, 3, 6, 12):
        q = LevelSetQuery(phi, (j - 0.5) / n, (j + 0.5) / n, n)
        est = levelset_count(sh, q)
        assert est.diagnostics[0][1] == math.comb(n, j)


def test_levelset_count_window():
    sh = full_shift(2)
    phi = frequency_observable(1)
    n = 10
    q = LevelSetQuery(phi, 0.25, 0.65, n)
    est = levelset_count(sh, q)
    expect = sum(math.comb(n, j) for j in range(n + 1) if 0.25 < j / n < 0.65)
    assert est.diagnostics[0][1] == expect


def test_levelset_empty_tagged():
    gm = golden_mean_shift()
    phi = frequency_observable(1)
    # frequency of 1 above 1/2 is impossible on the golden-mean shift
    q = LevelSetQuery(phi, 0.8, 0.95, 12)
    est = levelset_count(gm, q)
    assert est.empty
    assert est.value is None


def test_levelset_depth_two_observable():
    from orbitweave.measures import LocallyConstantObservable
    sh = full_shift(2)
    phi = LocallyConstantObservable(2, (((0, 0), 1.0), ((0, 1), 0.0),
                                        ((1, 0), 0.0), ((1, 1), 0.0)))
    n = 6
    q = LevelSetQuery(phi, -0.01, 0.01, n, closed=True)
    est = levelset_count(sh, q)
    # words of length 7 with no 00 window: Fibonacci count F(9)
    assert est.diagnostics[0][1] == 34


@given(st.integers(2, 8), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_levelset_total_over_all_windows(n, _q):
    sh = full_shift(2)
    phi = frequency_observable(1)
    total = 0
    for j in range(n + 1):
        q = LevelSetQuery(phi, (j - 0.5) / n, (j + 0.5) / n, n)
        total += levelset_count(sh, q).diagnostics[0][1]
    assert total == 2 ** n
