import bisect
import importlib.util
import itertools
import math
import pathlib
import re
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitweave import entropy
from orbitweave.entropy import (InfeasibleCountError, LevelSetQuery,
                                _birkhoff_sums, _cylinder_mass_classes,
                                _walk_counts, katok_count,
                                katok_entropy, levelset_count,
                                levelset_counts_at, max_separated,
                                min_spanning)
from orbitweave.measures import (LocallyConstantObservable, MarkovMeasure,
                                 bernoulli, frequency_observable)
from orbitweave.systems import (EndpointFixedMap, KindMismatchError,
                                ShiftSpace, TentMap, Word, full_shift,
                                golden_mean_shift)

from bowen import dist_n

ORACLES = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def all_periodic(n):
    return [Word.periodic(w) for w in itertools.product(range(2), repeat=n)]


def test_max_separated_exact_small():
    sh = full_shift(2)
    pts = all_periodic(3)  # 8 points
    res = max_separated(sh, pts, 3, 1.0)
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
    # a strict (2, 1/2)-ball is a 3-cylinder; 4 points with distinct 2-prefixes
    # and periodic continuations need 4 centers
    assert res.count == 4


def test_separated_and_spanning_exact_on_32_points():
    sh = full_shift(2)
    pts = all_periodic(5)  # distinct 5-prefixes: 32 classes at n = 5, eps = 1
    assert max_separated(sh, pts, 5, 1.0).count == 32
    assert min_spanning(sh, pts, 5, 1.0).count == 32


def _random_points(sh, rng, count):
    """Admissible eventually periodic points, heads <= 4 and cycles <= 4."""
    pts = []
    while len(pts) < count:
        x = Word(tuple(rng.integers(sh.alphabet_size,
                                    size=rng.integers(5)).tolist()),
                 tuple(rng.integers(sh.alphabet_size,
                                    size=rng.integers(1, 5)).tolist()))
        if sh.admissible(x):
            pts.append(x)
    return pts


@pytest.mark.parametrize("sh", [full_shift(2), full_shift(3),
                                golden_mean_shift()])
def test_counts_match_subset_enumeration(sh):
    rng = np.random.default_rng(7)
    for eps in (2.0, 1.5, 1.0, 0.7, 0.5, 0.3, 0.25, 0.1, 0.05, 2.0 ** -5):
        for _ in range(6):
            pts = _random_points(sh, rng, int(rng.integers(1, 11)))
            n = int(rng.integers(1, 6))
            close = [[dist_n(sh, x, y, n) < eps for y in pts] for x in pts]
            idx = range(len(pts))
            most = max(len(sub) for r in idx for sub in
                       itertools.combinations(idx, r + 1)
                       if not any(close[i][j] for i, j in
                                  itertools.combinations(sub, 2)))
            fewest = min(len(sub) for r in idx for sub in
                         itertools.combinations(idx, r + 1)
                         if all(any(close[t][c] for c in sub) for t in idx))
            sep = max_separated(sh, pts, n, eps)
            span = min_spanning(sh, pts, n, eps)
            assert (sep.count, span.count) == (most, fewest)
            assert len(sep.witnesses) == most and len(span.centers) == fewest
            assert all(w in pts for w in sep.witnesses + span.centers)
            assert all(dist_n(sh, x, y, n) >= eps for x, y in
                       itertools.combinations(sep.witnesses, 2))
            assert all(any(dist_n(sh, t, c, n) < eps for c in span.centers)
                       for t in pts)


def test_separated_and_spanning_input_checks():
    sh, pts = full_shift(2), all_periodic(2)
    for count in (max_separated, min_spanning):
        with pytest.raises(ValueError, match="need a shift"):
            count(TentMap(2.0), [0.25, 0.5], 2, 0.5)
        with pytest.raises(ValueError, match="need a shift"):
            count(EndpointFixedMap((0.0, 0.5, 1.0), (0.0, 0.9, 1.0)),
                  [0.25], 2, 0.5)
        with pytest.raises(KindMismatchError):
            count(sh, pts + [0.5], 2, 0.5)
        for eps in (0.0, -0.5):
            with pytest.raises(ValueError, match="epsilon"):
                count(sh, pts, 2, eps)
        with pytest.raises(ValueError, match="n must be"):
            count(sh, pts[:1], 0, 0.5)
    with pytest.raises(ValueError, match="nonempty"):
        max_separated(sh, [], 2, 0.5)
    empty = min_spanning(sh, [], 2, 0.5)
    assert (empty.count, empty.centers) == (0, [])


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
    for k, n, q, delta in [(2, 4, 1, 0.1), (2, 6, 2, 0.25), (3, 13, 1, 0.1),
                           (32, 3, 1, 0.1)]:
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


def _edge_tuple_mass_classes(shift, m, L):
    """The earlier class table, kept as the oracle: one state per (first
    symbol, last symbol, sorted transition indices k*a + b)."""
    k = shift.alphabet_size
    if m.alphabet_size != k:
        raise ValueError("measure alphabet mismatch")
    allowed = [[j for j in range(k) if shift.allowed(i, j) and m.P[i, j] > 0]
               for i in range(k)]
    # state: (first symbol, last symbol, sorted transitions) -> multiplicity;
    # the last symbol follows from the others, so states are the classes
    states: dict[tuple, int] = {}
    for a in range(k):
        if m.pi[a] > 0:
            states[(a, a, ())] = 1
    for _ in range(L - 1):
        nxt: dict[tuple, int] = {}
        for (first, last, edges), mult in states.items():
            for b in allowed[last]:
                e = k * last + b
                i = bisect.bisect_right(edges, e)
                key = (first, b, edges[:i] + (e,) + edges[i:])
                if key in nxt:
                    nxt[key] += mult
                elif len(nxt) < 2 ** 22:
                    nxt[key] = mult
                else:
                    raise InfeasibleCountError(
                        f"more than 2^22 mass classes of {L}-cylinders")
        states = nxt
    classes = []
    for (first, _last, edges), mult in states.items():
        mass = float(m.pi[first])
        for e, run in itertools.groupby(edges):
            mass *= float(m.P[e // k, e % k]) ** len(list(run))
        if mass > 0:
            classes.append((mass, mult))
    return classes


def _mass_levels(classes):
    """Classes merged where masses agree to 1e-9 relative: [mass, total]."""
    levels = []
    for mass, mult in sorted(classes):
        if levels and mass <= levels[-1][0] * (1 + 1e-9):
            levels[-1][1] += mult
        else:
            levels.append([mass, mult])
    return levels


def _random_chain(k, seed):
    P = np.random.default_rng(seed).random((k, k))
    return MarkovMeasure(P / P.sum(axis=1, keepdims=True))


TIED = MarkovMeasure([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                      [0.25, 0.25, 0.5]], [1 / 3] * 3)

ORACLE_GRID = [
    (full_shift(2), bernoulli(0.7), 12),
    (full_shift(2), bernoulli(0.5), 12),
    (full_shift(2), _random_chain(2, 5), 12),
    (full_shift(3), bernoulli([0.5, 0.3, 0.2]), 12),
    (full_shift(3), bernoulli([1 / 3] * 3), 10),
    (full_shift(3), _random_chain(3, 0), 11),
    (full_shift(3), _random_chain(3, 1), 9),
    (full_shift(3), TIED, 12),
    (full_shift(4), _random_chain(4, 2), 6),
    (golden_mean_shift(), MarkovMeasure([[0.6, 0.4], [1.0, 0.0]],
                                        shift=golden_mean_shift()), 12),
    (golden_mean_shift(), MarkovMeasure([[0.5, 0.5], [1.0, 0.0]],
                                        shift=golden_mean_shift()), 12),
]


def _enumerated_count(shift, m, L, delta):
    """Fewest L-cylinders with mass > 1 - delta, by listing every word, in
    exact rational arithmetic on the decimals of the measure's entries."""
    k = shift.alphabet_size
    pi = [Fraction(str(x)) for x in m.pi.tolist()]
    P = [[Fraction(str(x)) for x in row] for row in m.P.tolist()]
    cylinders = list(enumerate(pi))  # (last symbol, mass) per word
    for _ in range(L - 1):
        cylinders = [(b, mass * P[a][b]) for a, mass in cylinders
                     for b in range(k) if shift.allowed(a, b)]
    cum, cnt, target = Fraction(0), 0, 1 - Fraction(str(delta))
    for mass in sorted((mass for _, mass in cylinders), reverse=True):
        if cum > target:
            break
        cum += mass
        cnt += 1
    return cnt


@pytest.mark.parametrize("shift, m, top", ORACLE_GRID)
def test_mass_classes_match_edge_tuple_oracle(shift, m, top):
    k = shift.alphabet_size
    for L in sorted({1, 2, 3, top // 2, top}):
        new, unit = _cylinder_mass_classes(shift, m, [L])[0]
        old = _edge_tuple_mass_classes(shift, m, L)
        assert len(new) <= len(old)
        got = _mass_levels([(mass / unit, mult) for mass, mult in new])
        want = _mass_levels(old)
        assert [t for _, t in got] == [t for _, t in want]
        assert [x for x, _ in got] == pytest.approx([x for x, _ in want],
                                                    rel=1e-12)
        if k ** L <= 5000:
            for delta in (0.1, 0.25, 0.5):
                assert (katok_count(shift, m, L - 1, 0.5, delta)
                        == _enumerated_count(shift, m, L, delta))


@pytest.mark.parametrize("probs, L, delta, count", [
    # 0.64 + 0.16 is 0.8 = 1 - delta: reached, not exceeded
    ([0.2, 0.8], 2, 0.2, 3),
    # 0.125 + 3 * 0.075 + 3 * 0.05 = 0.5
    ([0.5, 0.3, 0.2], 3, 0.5, 8),
    ([0.5, 0.3, 0.2], 4, 0.9, 3),
    ([0.4, 0.4, 0.2], 3, 0.2, 18),
])
def test_katok_count_exact_at_a_tie(probs, L, delta, count):
    # float sums land on either side of such ties
    m = bernoulli(probs)
    assert katok_count(full_shift(len(probs)), m, L - 1, 0.5, delta) == count
    assert _enumerated_count(full_shift(len(probs)), m, L, delta) == count


def test_tied_transition_values_merge_classes():
    # six transitions carry 1/4 and three carry 1/2, so a cylinder's class is
    # how many of its steps stay put; the edge-tuple key keeps every sorted
    # transition multiset apart
    sh, L = full_shift(3), 8
    new, _unit = _cylinder_mass_classes(sh, TIED, [L])[0]
    assert len(new) == L  # 0 to 7 steps that stay put, one pi value
    assert len(_edge_tuple_mass_classes(sh, TIED, L)) > 100
    for delta in (0.1, 0.3):
        assert (katok_count(sh, TIED, L - 1, 0.5, delta)
                == _enumerated_count(sh, TIED, L, delta))


def _enumerated_masses(shift, m, L):
    """{mass: multiplicity} of every admissible L-cylinder of positive mass,
    word by word, in exact rational arithmetic on the decimals of pi and P."""
    k = shift.alphabet_size
    pi = [Fraction(str(x)) for x in m.pi.tolist()]
    P = [[Fraction(str(x)) for x in row] for row in m.P.tolist()]
    masses = Counter()
    for w in itertools.product(range(k), repeat=L):
        if shift.word_admissible(w):
            mass = pi[w[0]] * math.prod(P[a][b] for a, b in zip(w, w[1:]))
            masses[mass] += mass > 0
    return +masses


@st.composite
def _measures(draw):
    """(shift, measure): Bernoulli measures, where pi is every row of P;
    chains whose pi shares no value with P; rows with zero entries; and
    chains on the golden-mean shift."""
    kind = draw(st.sampled_from(["bernoulli", "chain", "zeros", "golden"]))
    if kind == "golden":
        p = draw(st.integers(1, 9)) / 10
        gm = golden_mean_shift()
        return gm, MarkovMeasure([[1 - p, p], [1.0, 0.0]], shift=gm)
    k = draw(st.integers(2, 4))
    if kind == "bernoulli":
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)
                       .filter(any))
        return full_shift(k), bernoulli([w / sum(weights) for w in weights])
    rows = [draw(st.lists(st.integers(0 if kind == "zeros" else 1, 4),
                          min_size=k, max_size=k).filter(any))
            for _ in range(k)]
    try:
        m = MarkovMeasure([[w / sum(row) for w in row] for row in rows])
    except ValueError:  # no stationary vector within the checks
        assume(False)
    if kind == "chain":
        assume(not set(m.pi.tolist()) & set(m.P.ravel().tolist()))
    return full_shift(k), m


@given(_measures(), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_mass_classes_match_every_cylinder(case, L, other):
    # each snapshot of one walk to max(Ls), at radix max(Ls) + 1, holds the
    # enumerated masses; a Bernoulli word of one symbol puts one value in all
    # L factors, past a radix of max(Ls)
    shift, m = case
    Ls = sorted({L, other})
    for L, (classes, unit) in zip(Ls, _cylinder_mass_classes(shift, m, Ls)):
        got = Counter()
        for mass, mult in classes:
            got[Fraction(mass, unit)] += mult
        assert got == _enumerated_masses(shift, m, L)


def test_walk_holds_one_entry_per_last_symbol_and_value_counts(monkeypatch):
    # B(0.5, 0.3, 0.2): each factor's value is its symbol's mass, so an
    # L-word's value counts are its symbol counts, with its last symbol >= 1
    L, probs = 12, [0.5, 0.3, 0.2]
    pairs = {(b, counts) for counts in itertools.product(range(L + 1),
                                                         repeat=3)
             if sum(counts) == L for b in range(3) if counts[b]}
    assert len(pairs) == 3 * math.comb(L + 1, 2)
    m = bernoulli(probs)
    monkeypatch.setattr(entropy, "TABLE_BUDGET", len(pairs))
    [(classes, _unit)] = _cylinder_mass_classes(full_shift(3), m, [L])
    assert len(classes) == math.comb(L + 2, 2)
    monkeypatch.setattr(entropy, "TABLE_BUDGET", len(pairs) - 1)
    with pytest.raises(InfeasibleCountError):
        _cylinder_mass_classes(full_shift(3), m, [L])


@pytest.mark.parametrize("p", [0.7, 0.8])
def test_katok_count_to_100_matches_the_bench_reference(p):
    # bernoulli(p) holds 1 - p of the decimal p, so the count is the one of
    # the masses p and 1 - p, which sum to 1
    probs = [1 - Fraction(str(p)), Fraction(str(p))]
    assert (katok_count(full_shift(2), bernoulli(p), 100, 0.5, 0.1)
            == oracles.katok_reference(probs, 101, Fraction("0.1")))


def _bernoulli_reference(probs, L, delta):
    """Fewest L-cylinders of the Bernoulli measure with mass > 1 - delta,
    greedy over multinomial classes in exact rational arithmetic."""
    k, classes = len(probs), []
    for cut in itertools.combinations(range(L + k - 1), k - 1):
        # stars and bars: symbol counts summing to L
        parts = [b - a - 1 for a, b in zip((-1,) + cut, cut + (L + k - 1,))]
        mult = math.factorial(L)
        for c in parts:
            mult //= math.factorial(c)
        classes.append((math.prod(p ** c for p, c in zip(probs, parts)), mult))
    classes.sort(reverse=True)
    target, cum, total = 1 - delta, Fraction(0), 0
    for mass, mult in classes:
        if cum > target:
            break
        take = min(mult, math.floor((target - cum) / mass) + 1)
        total += take
        cum += take * mass
    return total


@pytest.mark.parametrize("probs", [
    ["0.3", "0.7"], ["0.5", "0.5"], ["0.9", "0.1"],
    ["0.5", "0.3", "0.2"], ["0.6", "0.3", "0.1"],
    ["0.4", "0.3", "0.2", "0.1"], ["0.25"] * 4,
])
def test_katok_count_bernoulli_exact_reference(probs):
    exact = [Fraction(p) for p in probs]
    m = bernoulli([float(p) for p in exact])
    sh = full_shift(len(probs))
    for L in (1, 2, 5, 9, 14):
        for delta in ("0.1", "0.3"):
            assert (katok_count(sh, m, L - 1, 0.5, float(delta))
                    == _bernoulli_reference(exact, L, Fraction(delta)))


def test_katok_count_large_alphabet_repeated_values():
    # eight distinct symbol masses, one value per symbol for pi and P alike:
    # C(14, 7) = 3,432 classes, where a separate pi digit had 8 x C(13, 6) =
    # 13,728 and the edge-tuple key 1,596,120
    exact = [Fraction(i, 36) for i in range(1, 9)]
    m = bernoulli([i / 36 for i in range(1, 9)])
    start = time.perf_counter()
    count = katok_count(full_shift(8), m, 6, 0.5, 0.1)
    elapsed = time.perf_counter() - start
    assert count == _bernoulli_reference(exact, 7, Fraction("0.1"))
    assert elapsed < 2.0


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
    assert len(est.diagnostics) == 3
    assert est.value == est.diagnostics[-1][2]
    assert abs(est.value - math.log(2)) < 0.06


@pytest.mark.parametrize("grid", [[0, 4], [-2], [], [8, 8], [4, 8.7], [8.0],
                                  [True]])
def test_katok_entropy_refuses_bad_grid(grid):
    # n = 0 divided by zero and n = -2 gave the row (-2, 1, -0.0); an entry
    # that is not an int is refused rather than cut
    with pytest.raises(ValueError, match="n_grid must be nonempty, increasing"):
        katok_entropy(full_shift(2), bernoulli(0.5), 0.5, 0.1, grid)


def test_katok_infeasible(monkeypatch):
    # the table budget is the only limit on the word length
    sh = full_shift(2)
    monkeypatch.setattr(entropy, "TABLE_BUDGET", 64)
    assert katok_count(sh, bernoulli(0.7), 8, 0.5, 0.1) == 256
    with pytest.raises(InfeasibleCountError):
        katok_count(sh, bernoulli(0.7), 40, 0.5, 0.1)
    phi = frequency_observable(1)
    assert levelset_count(sh, LevelSetQuery(phi, 0.45, 0.55, 30)).value
    with pytest.raises(InfeasibleCountError):
        levelset_count(sh, LevelSetQuery(phi, 0.45, 0.55, 40))
    with pytest.raises(ValueError):
        katok_count(sh, bernoulli(0.5), 4, 0.3, 0.1)  # not a power of 2


@pytest.mark.parametrize("probs, L", [(["0.3", "0.7"], 40),
                                      (["0.5", "0.3", "0.2"], 30)])
def test_katok_count_past_the_former_length_cap(probs, L):
    # B(0.7) and B(0.5, 0.3, 0.2) beyond the former n + q <= 26
    exact = [Fraction(p) for p in probs]
    m = bernoulli([float(p) for p in exact])
    for delta in ("0.1", "0.3"):
        assert (katok_count(full_shift(len(exact)), m, L - 1, 0.5, float(delta))
                == _bernoulli_reference(exact, L, Fraction(delta)))


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


def _float_levelset_count(shift, query):
    """The earlier level-set DP, kept as the oracle: one state per (suffix
    symbols, partial Birkhoff sum rounded to 10 decimals), the window tested
    on the float average."""
    phi, n, d = query.observable, query.n, query.observable.depth
    k = shift.alphabet_size
    table = phi.lookup()
    suflen = max(d - 1, 1)
    # DP over (suffix symbols, partial Birkhoff sum); word length n+d-1,
    # a window's contribution is added when its last symbol is placed
    states: dict[tuple, int] = {((), 0.0): 1}
    L = n + d - 1
    for p in range(L):
        nxt: dict[tuple, int] = {}
        for (suf, s), cnt in states.items():
            for b in range(k):
                if suf and not shift.allowed(suf[-1], b):
                    continue
                ext = suf + (b,)
                s2 = round(s + table[ext[-d:]], 10) if p >= d - 1 else s
                key = (ext[-suflen:], s2)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    if query.closed:
        return sum(cnt for (_suf, s), cnt in states.items()
                   if query.lo <= s / n <= query.hi)
    return sum(cnt for (_suf, s), cnt in states.items()
               if query.lo < s / n < query.hi)


def _levelset_total(shift, query):
    """The word count behind levelset_count, 0 for a tagged empty set."""
    est = levelset_count(shift, query)
    return 0 if est.empty else est.diagnostics[0][1]


def _table(depth, k, values):
    """Observable of the given depth taking the values in turn over the
    k-ary words in lexicographic order."""
    words = itertools.product(range(k), repeat=depth)
    return LocallyConstantObservable(depth, tuple(
        (w, values[i % len(values)]) for i, w in enumerate(words)))


DEAD_END = ShiftSpace(2, ((1, 1), (0, 0)))  # no symbol follows 1
DEPTH2_VALUES = [0.3, 1.0, -0.5, 0.1, -0.25]
DEPTH3_VALUES = [0.3, -0.7, 0.15, 1.0, -0.05, 0.6, 0.0, -0.35]
LEVELSET_GRID = [
    (sh, phi) for sh in (full_shift(2), full_shift(3), golden_mean_shift(),
                         DEAD_END)
    for phi in (frequency_observable(1, sh.alphabet_size),
                _table(2, sh.alphabet_size, DEPTH2_VALUES),
                _table(3, sh.alphabet_size, DEPTH3_VALUES))]


@pytest.mark.parametrize("shift, phi", LEVELSET_GRID)
def test_levelset_count_matches_float_oracle(shift, phi):
    # every value has at most two decimals, so the averages lie on the
    # 1/(100 n) grid and window ends at its midpoints are never attained,
    # where rounding could tip the float oracle either way
    rng = np.random.default_rng(shift.alphabet_size * 10 + phi.depth)
    vlo, vhi = phi.value_range
    for n in (1, 2, 5, 11, 24):
        lo_i, hi_i = round(vlo * 100 * n), round(vhi * 100 * n)
        windows = [(lo_i - 1, hi_i)]  # every average
        for _ in range(3):
            a, b = sorted(rng.integers(lo_i - 1, hi_i, size=2))
            windows.append((a, max(b, a + 1)))
        for i, (a, b) in enumerate(windows):
            q = LevelSetQuery(phi, (a + 0.5) / (100 * n),
                              (b + 0.5) / (100 * n), n, closed=bool(i % 2))
            assert _levelset_total(shift, q) == _float_levelset_count(shift, q)


def _enumerated_levelset_count(shift, phi, n, lo, hi, closed):
    """Admissible (n + d - 1)-words with Birkhoff average in the window, by
    listing every word, in exact rational arithmetic."""
    d = phi.depth
    value = {w: Fraction(str(v)) for w, v in phi.lookup().items()}
    count = 0
    for w in shift.admissible_words(n + d - 1):
        avg = sum(value[w[i:i + d]] for i in range(n)) / n
        count += (lo <= avg <= hi) if closed else (lo < avg < hi)
    return count


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift(),
                                   DEAD_END])
def test_levelset_window_ends_are_exact(shift):
    # ends that are attained averages: closed windows count the words there,
    # open ones do not, whatever the float rounding of the ends
    phi = _table(2, 2, DEPTH2_VALUES)
    for n, lo, hi in [(10, 0.3, 0.5), (11, Fraction(2, 11), Fraction(9, 22)),
                      (12, -0.25, 0.1)]:
        for closed in (False, True):
            q = LevelSetQuery(phi, lo, hi, n, closed)
            assert _levelset_total(shift, q) == _enumerated_levelset_count(
                shift, phi, n, Fraction(str(lo)), Fraction(str(hi)), closed)


def test_count_at_windows_have_rational_ends():
    # the Birkhoff sums are multiples of 1/D, D = 10, so the averages lie on
    # the 1/(nD) grid and the count takes the open window (2S -+ 1) / 2nD
    # around S = round(alpha n D): 2 words at j = 3 and 56 at j = 4, where
    # the former 1/n window held 356 and 145 words of several averages
    phi = _table(2, 2, DEPTH2_VALUES)
    gm, n, D = golden_mean_shift(), 12, 10
    for j, words in ((3, 2), (4, 56)):
        S = round(j / n * n * D)
        lo, hi = Fraction(2 * S - 1, 2 * n * D), Fraction(2 * S + 1, 2 * n * D)
        [est] = levelset_counts_at(gm, phi, [j / n], n)
        assert est.diagnostics[0][1] == words == \
            _enumerated_levelset_count(gm, phi, n, lo, hi, closed=False)


def test_levelset_golden_mean_counts_past_the_former_length_cap():
    # n-words with no 11 and j ones: C(n + 1 - j, j), at n = 1,000
    gm, phi, n = golden_mean_shift(), frequency_observable(1), 1000
    for j in (0, 1, 276, 500):
        est = levelset_count(gm, LevelSetQuery(phi, (j - 0.5) / n,
                                               (j + 0.5) / n, n))
        assert est.diagnostics[0][1] == math.comb(n + 1 - j, j)


def _packed_walk_counts(L, start, step):
    """The earlier walk, kept as the reference: one walk per length, each
    state one int, weight * V + index of the last s symbols, so an extension
    adds a delta fixed per edge and floor division and modulo split a key.
    InfeasibleCountError past entropy.TABLE_BUDGET entries, checked after
    each state's extensions."""
    vertices = sorted({*start, *(w[:-1] for w in step), *(w[1:] for w in step)})
    V, index = len(vertices), {u: i for i, u in enumerate(vertices)}
    deltas = [[] for _ in vertices]
    for w, inc in step.items():
        deltas[index[w[:-1]]].append(inc * V + index[w[1:]] - index[w[:-1]])
    states = {weight * V + index[u]: 1 for u, weight in start.items()}
    for _ in range(L - len(next(iter(start), ()))):
        nxt = defaultdict(int)
        for key, cnt in states.items():
            for delta in deltas[key % V]:
                nxt[key + delta] += cnt
            if len(nxt) > entropy.TABLE_BUDGET:
                raise InfeasibleCountError(f"{L}-words")
        states = nxt
    counts = defaultdict(int)
    for key, cnt in states.items():
        counts[key // V] += cnt
    return dict(counts)


def _walk_tables(call):
    """(start, step) of every walk that call() asks for; no walk is run."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_walk_counts", lambda Ls, start, step: (
            seen.append((start, step)) or [{} for _ in Ls]))
        call()
    return seen


BLOCKS = ShiftSpace(3, ((1, 1, 0), (1, 1, 0), (0, 0, 1)))  # two closed classes
KATOK_TABLE_CASES = [
    (full_shift(2), bernoulli(0.7)),
    (full_shift(3), _random_chain(3, 0)),
    (full_shift(3), TIED),
    (golden_mean_shift(), MarkovMeasure([[0.6, 0.4], [1.0, 0.0]],
                                        shift=golden_mean_shift())),
    (BLOCKS, MarkovMeasure([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]],
                           [0.225, 0.375, 0.4], shift=BLOCKS)),
]
LEVELSET_TABLE_CASES = [
    (sh, _table(d, sh.alphabet_size, values))
    for sh in (full_shift(2), full_shift(3), golden_mean_shift(), BLOCKS)
    for d, values in ((1, [0.0, -0.4, 0.7]), (2, DEPTH2_VALUES),
                      (3, DEPTH3_VALUES))]


def _katok_tables(shift, m, Ls):
    [tables] = _walk_tables(lambda: _cylinder_mass_classes(shift, m, Ls))
    return tables


def _levelset_tables(shift, phi):
    [tables] = _walk_tables(lambda: _birkhoff_sums(shift, phi, 1))
    return tables


@pytest.mark.parametrize("shift, m", KATOK_TABLE_CASES)
def test_katok_walk_snapshots_match_one_walk_per_length(shift, m):
    # the tables weigh by radix max(Ls) + 1; each snapshot must be the walk
    # at its own length on those same tables
    for Ls in ([1], [1, 2, 3], [2, 5, 9], [3, 4, 8, 12]):
        start, step = _katok_tables(shift, m, Ls)
        got = _walk_counts(Ls, start, step)
        assert len(got) == len(Ls)
        for L, counts in zip(Ls, got):
            assert counts == _packed_walk_counts(L, start, step)


@pytest.mark.parametrize("shift, phi", LEVELSET_TABLE_CASES)
def test_levelset_walk_snapshots_match_one_walk_per_length(shift, phi):
    # weights of both signs and zero; the first length is the start table
    start, step = _levelset_tables(shift, phi)
    s = max(phi.depth - 1, 1)
    for Ls in ([s], [s, s + 1, s + 4], [s + 2, s + 9]):
        got = _walk_counts(Ls, start, step)
        assert len(got) == len(Ls)
        for L, counts in zip(Ls, got):
            assert counts == _packed_walk_counts(L, start, step)


@pytest.mark.parametrize("shift, m, top", ORACLE_GRID)
def test_katok_entropy_grid_matches_counts_per_n(shift, m, top):
    k, rng = shift.alphabet_size, np.random.default_rng(top + 7 * len(m.pi))
    for _ in range(3):
        q, delta = int(rng.integers(0, 3)), float(rng.choice([0.1, 0.25]))
        ns = np.arange(1, top - q + 1)
        grid = sorted(rng.choice(ns, size=min(int(rng.integers(1, 5)),
                                              len(ns)), replace=False).tolist())
        est = katok_entropy(shift, m, 2.0 ** -q, delta, grid)
        assert [row[0] for row in est.diagnostics] == grid
        for n, count, rate in est.diagnostics:
            assert count == katok_count(shift, m, n, 2.0 ** -q, delta)
            assert rate == math.log(count) / n
            if k ** (n + q) <= 5000:
                assert count == _enumerated_count(shift, m, n + q, delta)


def test_each_katok_call_walks_once(monkeypatch):
    lengths, walk = [], entropy._walk_counts
    monkeypatch.setattr(entropy, "_walk_counts", lambda Ls, start, step: (
        lengths.append(list(Ls)) or walk(Ls, start, step)))
    m = bernoulli([0.5, 0.3, 0.2])
    katok_entropy(full_shift(3), m, 0.5, 0.1, [8, 10, 12])
    assert lengths == [[9, 11, 13]]
    katok_count(full_shift(3), m, 7, 0.25, 0.1)
    assert lengths == [[9, 11, 13], [9]]


def _raises_past_budget(call):
    try:
        call()
    except InfeasibleCountError:
        return True
    return False


@pytest.mark.parametrize("budget", [12, 40, 150])
def test_walk_budget_refuses_what_the_packed_walk_refuses(monkeypatch,
                                                          budget):
    monkeypatch.setattr(entropy, "TABLE_BUDGET", budget)
    seen = set()
    for L in range(1, 15):
        cases = [_katok_tables(shift, m, [L]) for shift, m in KATOK_TABLE_CASES]
        cases += [_levelset_tables(shift, phi)
                  for shift, phi in LEVELSET_TABLE_CASES
                  if L >= max(phi.depth - 1, 1)]
        for start, step in cases:
            want = _raises_past_budget(
                lambda: _packed_walk_counts(L, start, step))
            for Ls in ([L], sorted({1, (L + 1) // 2, L})):
                if Ls[0] >= len(next(iter(start))):
                    assert _raises_past_budget(
                        lambda: _walk_counts(Ls, start, step)) == want
            seen.add(want)
    assert seen == {False, True}


@pytest.mark.parametrize("n, epsilon", [(-1, 0.5), (0, 1.0), (-1, 1.0),
                                        (-3, 0.125), (2.5, 0.5), (2.0, 0.5),
                                        (True, 0.5)])
def test_katok_count_refuses_n_outside_its_domain(n, epsilon):
    # n = -1 at q = 1 and n = 0 at q = 0 divided by zero (radix 0); n = 2.5
    # raised TypeError from the walk's range, and True counted as 1
    with pytest.raises(ValueError, match=r"n must be >= 0 and n \+ q >= 1"):
        katok_count(full_shift(2), bernoulli(0.7), n, epsilon, 0.1)


@pytest.mark.parametrize("n", [0, -3, 2.5, True])
def test_levelset_counts_refuse_n_below_one(n):
    # 0 and -3 came back tagged empty from levelset_count, and 0 divided by
    # zero in levelset_counts_at
    phi = frequency_observable(1)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        levelset_count(full_shift(2), LevelSetQuery(phi, 0.4, 0.6, n))
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        levelset_counts_at(full_shift(2), phi, [0.5], n)


def test_birkhoff_sums_name_the_admissible_word_the_table_misses():
    phi = LocallyConstantObservable(2, (((0, 0), 0.3), ((0, 1), 1.0),
                                        ((1, 0), -0.5)))
    with pytest.raises(ValueError, match=re.escape("misses the word [1, 1]")):
        _birkhoff_sums(full_shift(2), phi, 4)
    # on the golden mean every admissible 5-word has its sum
    sums, _ = _birkhoff_sums(golden_mean_shift(), phi, 4)
    assert sum(sums.values()) == len(golden_mean_shift().admissible_words(5))


def _two_block(shift, m):
    """The 2-block presentation X2 of shift and the lift of the chain m: the
    symbols are the admissible 2-words, (a, b) -> (b, c) is allowed,
    P2[(a,b),(b,c)] = P[b,c] and pi2[(a,b)] = pi[a] P[a,b], taken from the
    decimals of pi and P so that the decimals of pi2 are the exact products."""
    words = shift.admissible_words(2)
    P, pi = m.P.tolist(), m.pi.tolist()
    X2 = ShiftSpace(len(words), [[int(b == v[0]) for v in words]
                                 for _, b in words])
    P2 = [[P[b][c] if b == b2 else 0.0 for b2, c in words] for _, b in words]
    pi2 = [float(Fraction(str(pi[a])) * Fraction(str(P[a][b])))
           for a, b in words]
    return X2, MarkovMeasure(P2, pi2, shift=X2)


def _renamed(shift, perm):
    """(shift with symbol a renamed perm[a], old) with old[perm[a]] = a."""
    old = np.argsort(perm)
    T = np.array(shift.transition)[np.ix_(old, old)]
    return ShiftSpace(shift.alphabet_size, T), old


RECODED = [KATOK_TABLE_CASES[i] for i in (0, 3, 4)]  # full 2, golden, BLOCKS


@pytest.mark.parametrize("shift, m", RECODED)
def test_katok_counts_agree_on_the_two_block_presentation(shift, m):
    # an (n+q)-cylinder of X is an (n+q-1)-cylinder of X2 with the same mass
    X2, m2 = _two_block(shift, m)
    for n, q, delta in itertools.product((5, 9, 14), (1, 2, 3), (0.1, 0.25)):
        assert katok_count(shift, m, n, 2.0 ** -q, delta) == katok_count(
            X2, m2, n, 2.0 ** -(q - 1), delta)


@pytest.mark.parametrize("shift, m", RECODED)
def test_katok_counts_ignore_the_names_of_symbols(shift, m):
    for perm in itertools.permutations(range(shift.alphabet_size)):
        renamed, old = _renamed(shift, perm)
        m_renamed = MarkovMeasure(m.P[np.ix_(old, old)], m.pi[old],
                                  shift=renamed)
        for n, q in itertools.product((5, 9, 14), (1, 2)):
            assert katok_count(shift, m, n, 2.0 ** -q, 0.1) == katok_count(
                renamed, m_renamed, n, 2.0 ** -q, 0.1)


@pytest.mark.parametrize("shift, phi", [
    (full_shift(2), frequency_observable(1)),
    (golden_mean_shift(), frequency_observable(1)),
    (full_shift(3), _table(2, 3, DEPTH2_VALUES))])
def test_h_var_ignores_the_names_of_symbols(shift, phi):
    from orbitweave.variational import spectrum
    lo, hi = phi.value_range
    grid = np.linspace(lo, hi, 7)[1:-1].tolist()
    want = spectrum(shift, phi, lo, hi, True, grid)
    for perm in itertools.permutations(range(shift.alphabet_size)):
        psi = LocallyConstantObservable(phi.depth, tuple(
            (tuple(perm[a] for a in w), v) for w, v in phi.table))
        got = spectrum(_renamed(shift, perm)[0], psi, lo, hi, True, grid)
        for p, r in zip(want.points, got.points):
            assert p.h_var is not None and abs(p.h_var - r.h_var) <= 1e-12
        assert abs(want.sup_value - got.sup_value) <= 1e-12
