import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitweave.measures import (AtomicMeasure, CylinderIndicator,
                                 DecompositionError,
                                 LocallyConstantObservable, MarkovMeasure,
                                 MixtureMeasure, TestFunctionFamily,
                                 bernoulli, convex_decompose,
                                 frequency_observable, integrate,
                                 markov_entropy, measure_from_json,
                                 weak_star_distance)
from orbitweave.shadowing import make_rng
from orbitweave.systems import Word, full_shift, golden_mean_shift

FAMILY = TestFunctionFamily("cylinder", 16, 2)


def binary_entropy(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def test_family_ordering():
    words = [f.word for f in FAMILY.functions]
    assert words[:6] == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert FAMILY.max_depth == 4
    assert FAMILY.tail == 2.0 ** -16
    with pytest.raises(ValueError):
        TestFunctionFamily("hat", 4)
    for bad in (0, 1, 2.0, True):  # an empty alphabet would never end
        with pytest.raises(ValueError, match="no integer >= 2"):
            TestFunctionFamily("cylinder", 4, bad)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 5), N=st.integers(1, 200))
def test_family_order_is_the_shift_enumeration(k, N):
    # the former enumeration through ShiftSpace(k).admissible_words, kept as
    # the oracle of the itertools.product one
    former = itertools.islice(itertools.chain.from_iterable(
        full_shift(k).admissible_words(n) for n in itertools.count(1)), N)
    assert [f.word for f in TestFunctionFamily("cylinder", N, k).functions] \
        == list(former)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), N=st.integers(1, 120))
def test_leaf_runs_cover_exactly_the_words_each_cylinder_prefixes(k, N):
    family = TestFunctionFamily("cylinder", N, k)
    rank, runs, count = family.leaves
    words = list(itertools.product(range(k), repeat=family.max_depth))
    assert len(rank) == len(words) and sorted(set(rank.tolist())) == \
        list(range(count))
    for f, (lo, hi) in zip(family.functions, runs.tolist()):
        assert [w for w, u in zip(words, rank.tolist()) if lo <= u < hi] == \
            [w for w in words if w[:f.depth] == f.word]
    with pytest.raises(ValueError):
        rank[0] = 1


def test_weights_are_the_exact_powers_and_0_past_2_to_the_minus_1074():
    w = TestFunctionFamily("cylinder", 1500, 2).weights
    assert all(w[i - 1] == 1 / 2.0 ** (i + 1) for i in range(1, 1022))
    assert w[1072] == 2.0 ** -1074 and not w[1073:].any()
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_distance_past_N_1074_is_the_one_at_1074():
    # the terms past 2^-1074 weigh 0; dividing by 2.0 ** (i + 1) overflowed
    # at N >= 1023
    mixture = measure_from_json({"mixture": [[0.37, {"bernoulli": 0.25}],
                                             [0.63, {"bernoulli": 0.8}]]})
    for N in (1022, 1074, 1100, 1500):
        assert weak_star_distance(bernoulli(0.7), mixture, TestFunctionFamily(
            "cylinder", N, 2)) == 0.050723081390749554


def test_dirac_distance_reference_value():
    # delta at 000... versus delta at 111..., truncated at N = 2:
    # both depth-1 indicators disagree by 1, weights 1/4 and 1/8
    fam2 = TestFunctionFamily("cylinder", 2, 2)
    mu = AtomicMeasure(((Word.periodic((0,)), 1.0),))
    nu = AtomicMeasure(((Word.periodic((1,)), 1.0),))
    assert weak_star_distance(mu, nu, fam2) == 0.375


def test_distance_bounded_by_one():
    mu = AtomicMeasure(((Word.periodic((0,)), 1.0),))
    nu = AtomicMeasure(((Word.periodic((1,)), 1.0),))
    assert weak_star_distance(mu, nu, FAMILY) <= 1.0


atomic_measures = st.lists(
    st.tuples(st.lists(st.integers(0, 1), min_size=1, max_size=4),
              st.integers(1, 5)),
    min_size=1, max_size=4,
).map(lambda raw: AtomicMeasure(tuple(
    (Word.periodic(tuple(c)), w / sum(x for _, x in raw)) for c, w in raw)))


@given(atomic_measures, atomic_measures, atomic_measures)
@settings(max_examples=150)
def test_weak_star_metric_axioms(mu, nu, rho):
    d = weak_star_distance(mu, nu, FAMILY)
    assert d == weak_star_distance(nu, mu, FAMILY)
    assert 0.0 <= d <= 1.0
    lhs = weak_star_distance(mu, rho, FAMILY)
    rhs = d + weak_star_distance(nu, rho, FAMILY)
    assert lhs <= rhs + 1e-12


def test_bernoulli_cylinder_mass():
    m = bernoulli(0.7)
    assert m.cylinder_mass((1, 1, 0)) == pytest.approx(0.7 * 0.7 * 0.3)
    assert m.cylinder_mass(()) == 1.0


def test_markov_stationary_and_support():
    P = [[0.9, 0.1], [0.5, 0.5]]
    m = MarkovMeasure(P)
    assert m.pi @ np.asarray(P) == pytest.approx(m.pi)
    gm = golden_mean_shift()
    MarkovMeasure([[0.5, 0.5], [1.0, 0.0]], shift=gm)
    with pytest.raises(ValueError):
        MarkovMeasure([[0.5, 0.5], [0.5, 0.5]], shift=gm)


def test_markov_rejects_other_alphabet_than_the_shift():
    with pytest.raises(ValueError, match="2-symbol measure on a 3-symbol"):
        bernoulli(0.3, shift=full_shift(3))
    with pytest.raises(ValueError, match="3-symbol measure on a 2-symbol"):
        bernoulli([0.5, 0.3, 0.2], shift=golden_mean_shift())


PERIOD2 = [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("measure", [
    MarkovMeasure([[0.6, 0.4], [1.0, 0.0]], shift=golden_mean_shift()),
    bernoulli(0.0),
    MarkovMeasure(PERIOD2, [0.5, 0.5]),
    bernoulli([0.7, 0.2, 0.1, 0.0]),
], ids=["golden", "bernoulli0", "period2", "zero_last"])
def test_sample_words_support(measure):
    W = measure.sample_words(2000, 30, make_rng(5))
    assert W.shape == (2000, 30) and W.dtype == np.int8
    assert np.all(measure.pi[W[:, 0]] > 0)
    assert np.all(measure.P[W[:, :-1], W[:, 1:]] > 0)
    assert measure.sample_word(30, make_rng(5)) == tuple(W[0].tolist())


@pytest.mark.parametrize("P", [[[0.6, 0.4], [1.0, 0.0]],
                               [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3],
                                [0.0, 0.4, 0.6]]])
def test_sample_words_matches_choice_loop(P):
    # Generator.choice inverts the CDF of one random() draw, and random()
    # fills a matrix row by row, so the batch repeats the per-symbol stream
    m = MarkovMeasure(P)
    rng = make_rng(3)
    ref = []
    for _ in range(40):
        w = [int(rng.choice(m.alphabet_size, p=m.pi))]
        for _ in range(24):
            w.append(int(rng.choice(m.alphabet_size, p=m.P[w[-1]])))
        ref.append(w)
    assert m.sample_words(40, 25, make_rng(3)).tolist() == ref


def ref_sample_words(m, count, n, rng):
    """The former column loop: a (count, k) comparison against the
    cumulative rows of the previous symbols, summed along k."""
    u = rng.random((count, n))
    table = np.vstack([m.pi, m.P])
    cum = np.cumsum(table, axis=1)
    last = m.alphabet_size - 1 - np.argmax(table[:, ::-1] > 0, axis=1)
    W = np.empty((count, n), dtype=np.int8)
    row = np.zeros(count, dtype=np.intp)
    for j in range(n):
        sym = np.minimum((u[:, j, None] >= cum[row]).sum(axis=1), last[row])
        W[:, j] = sym
        row = sym + 1
    return W


@st.composite
def markov_chains(draw):
    """Random irreducible chains on 2-6 symbols with some entries zero: each
    row a keeps a positive entry a -> a + 1 mod k."""
    k = draw(st.integers(2, 6))
    rows = []
    for a in range(k):
        row = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5]),
                            min_size=k, max_size=k))
        row[(a + 1) % k] += 1.0
        rows.append([x / sum(row) for x in row])
    return MarkovMeasure(rows)


class OnTheSums:
    """A stub generator whose uniforms are 0 or a cumulative sum of the
    chain's pi or P, where >= and > part."""

    def __init__(self, m, seed):
        self.values = np.cumsum(np.vstack([[0.0] * m.alphabet_size, m.pi,
                                           m.P]), axis=1).ravel()
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        return self.rng.choice(self.values, shape)


@settings(max_examples=80, deadline=None)
@given(m=markov_chains(), count=st.integers(1, 50), n=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32), on_sums=st.booleans())
def test_sample_words_matches_former_column_loop(m, count, n, seed, on_sums):
    # the same comparisons, one contiguous column at a time: the same bits
    rng = (lambda: OnTheSums(m, seed)) if on_sums else lambda: make_rng(seed)
    W = m.sample_words(count, n, rng())
    assert W.dtype == np.int8
    assert np.array_equal(W, ref_sample_words(m, count, n, rng()))


def test_sample_words_clamps_past_row_sum():
    # the float sum of (0.7, 0.2, 0.1, 0) is 1 - 2^-53, which the largest
    # uniform reaches: the draw must be symbol 2, not the zero-mass 3
    m = bernoulli([0.7, 0.2, 0.1, 0.0])
    assert np.cumsum(m.pi)[-1] <= np.nextafter(1.0, 0.0)
    assert np.all(m.sample_words(3, 5, TopUniform()) == 2)
    assert np.all(bernoulli(0.0).sample_words(3, 5, TopUniform()) == 0)


class TopUniform:
    """A stub generator whose every uniform is the largest below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("m", [
    bernoulli([0.7, 0.2, 0.1, 0.0]),  # its float sum is 1 - 2^-53
    MarkovMeasure([[1.0, 0.0], [0.5, 0.5]], [1.0, 0.0]),  # pi has a zero
    MarkovMeasure([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]),
    MarkovMeasure([[1.0]]),
    bernoulli(0.7),
], ids=["top_sum", "zero_pi", "three_sft", "one_symbol", "b07"])
@pytest.mark.parametrize("draws", ["rng", "top", "on_sums"])
def test_sampler_without_unreachable_sums_matches_column_loop(m, draws):
    # the +inf sums from each row's last positive symbol on, with the last
    # column left out, draw what the clamp of the former loop drew
    rng = {"rng": lambda: make_rng(7), "top": TopUniform,
           "on_sums": lambda: OnTheSums(m, 7)}[draws]
    assert np.array_equal(m.sample_words(300, 26, rng()),
                          ref_sample_words(m, 300, 26, rng()))


@pytest.mark.parametrize("P", [
    [[0.6, 0.4], [1.0, 0.0]],
    [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.0, 0.4, 0.6]],
    [[0.5, 0.3, 0.2]] * 3,
])
def test_sample_words_frequencies(P):
    # rows are independent chains, so every column is an i.i.d. draw of pi
    # and every pair of adjacent columns an i.i.d. draw of pi_a P_ab
    m = MarkovMeasure(P)
    k, rows = m.alphabet_size, 200_000
    W = m.sample_words(rows, 3, make_rng(11)).astype(np.intp)

    def within(counts, probs):
        se = np.sqrt(rows * probs * (1 - probs))
        return np.all(np.abs(counts - rows * probs) <= 5 * se + 1e-9)

    for j in range(3):
        assert within(np.bincount(W[:, j], minlength=k), m.pi)
    for j in range(2):
        pairs = np.bincount(k * W[:, j] + W[:, j + 1], minlength=k * k)
        assert within(pairs, (m.pi[:, None] * m.P).ravel())


def test_markov_entropy_closed_forms():
    assert markov_entropy(bernoulli(0.5)) == pytest.approx(math.log(2))
    assert markov_entropy(bernoulli(0.8)) == pytest.approx(binary_entropy(0.8))
    assert markov_entropy(bernoulli(0.0)) == 0.0


def test_mixture_entropy_affine():
    mix = MixtureMeasure(((0.25, bernoulli(0.2)), (0.75, bernoulli(0.6))))
    expected = 0.25 * binary_entropy(0.2) + 0.75 * binary_entropy(0.6)
    assert markov_entropy(mix) == pytest.approx(expected)


def test_integrate_cylinder_against_markov():
    m = bernoulli(0.3)
    phi = CylinderIndicator((1, 0))
    assert integrate(m, phi) == pytest.approx(0.3 * 0.7)


def test_integrate_observable():
    phi = frequency_observable(1)
    assert integrate(bernoulli(0.3), phi) == pytest.approx(0.3)
    mix = MixtureMeasure(((0.5, bernoulli(0.2)), (0.5, bernoulli(0.8))))
    assert integrate(mix, phi) == pytest.approx(0.5)


def _ladder_integrate(measure, phi) -> float:
    """Reference: one branch per measure type, each atom matched symbol by
    symbol and each Markov word enumerated."""
    if isinstance(phi, CylinderIndicator):
        if isinstance(measure, AtomicMeasure):
            return sum(w for x, w in measure.atoms
                       if all(x.symbol(i) == s for i, s in enumerate(phi.word)))
        return measure.cylinder_mass(phi.word)
    if isinstance(measure, AtomicMeasure):
        out = 0.0
        for x, w in measure.atoms:
            if not isinstance(x, Word):
                raise TypeError("locally constant observables need shift states")
            out += w * phi.lookup()[tuple(x.prefix(phi.depth))]
        return out
    if isinstance(measure, MixtureMeasure):
        return sum(float(a) * _ladder_integrate(m, phi)
                   for a, m in measure.components)
    out = 0.0
    for w in itertools.product(range(measure.alphabet_size), repeat=phi.depth):
        m = measure.cylinder_mass(w)
        if m > 0:
            out += m * phi.lookup()[w]
    return out


def _random_chain(rng, k):
    P = rng.random((k, k)) * (rng.random((k, k)) < 0.7)
    P[np.arange(k), rng.integers(k, size=k)] += 0.1  # no empty row
    return MarkovMeasure(P / P.sum(axis=1, keepdims=True))


def _random_measures(rng, k):
    atoms = [(Word(tuple(rng.integers(k, size=rng.integers(0, 4)).tolist()),
                   tuple(rng.integers(k, size=rng.integers(1, 4)).tolist())),
              float(rng.integers(1, 6))) for _ in range(rng.integers(1, 6))]
    total = sum(w for _, w in atoms)
    mix = rng.random(3) + 0.1
    return [AtomicMeasure(tuple((x, w / total) for x, w in atoms)),
            _random_chain(rng, k),
            MixtureMeasure(tuple((float(a), _random_chain(rng, k))
                                 for a in mix / mix.sum()))]


@pytest.mark.parametrize("k", [2, 3])
def test_integrate_matches_the_type_ladder(k):
    rng = make_rng(40 + k)
    for _ in range(60):
        depth = int(rng.integers(1, 4))
        phi = LocallyConstantObservable(depth, tuple(
            (w, float(rng.normal()))
            for w in itertools.product(range(k), repeat=depth)))
        cyl = CylinderIndicator(tuple(
            rng.integers(k, size=rng.integers(1, 5)).tolist()))
        for measure in _random_measures(rng, k):
            for f in (phi, cyl):
                assert abs(integrate(measure, f)
                           - _ladder_integrate(measure, f)) <= 1e-12


def test_integrate_needs_shift_states_and_a_full_table():
    interval = AtomicMeasure(((0.25, 0.5), (0.75, 0.5)))
    for f in (CylinderIndicator((0,)), frequency_observable(1)):
        with pytest.raises(TypeError, match="need shift states"):
            integrate(interval, f)
    # a table missing a word of positive mass is refused ...
    partial = LocallyConstantObservable(2, (((0, 0), 1.0), ((0, 1), 2.0),
                                            ((1, 0), 3.0)))
    dirac = AtomicMeasure(((Word.periodic((1,)), 1.0),))
    for measure in (bernoulli(0.3), dirac):
        with pytest.raises(KeyError, match="carries mass"):
            integrate(measure, partial)
    # ... but on the golden mean the missing word 11 carries none
    golden = MarkovMeasure([[0.6, 0.4], [1.0, 0.0]])
    assert abs(integrate(golden, partial)
               - _ladder_integrate(golden, partial)) <= 1e-12


def test_convex_decompose_ergodic_is_identity():
    m = bernoulli(0.7)
    [(a, comp)] = convex_decompose(m, 3, FAMILY)
    assert a == Fraction(1)
    assert comp is m


def test_convex_decompose_mixture():
    mix = MixtureMeasure(((1 / 3, bernoulli(0.2)), (2 / 3, bernoulli(0.9))))
    comps = convex_decompose(mix, 50, FAMILY)
    assert sum(a for a, _ in comps) == 1
    assert all(isinstance(a, Fraction) for a, _ in comps)
    rebuilt = MixtureMeasure(tuple(comps))
    assert weak_star_distance(mix, rebuilt, FAMILY) <= 1 / 50


def test_convex_decompose_cap_reported():
    mix = MixtureMeasure(((1 / 3, bernoulli(0.2)), (2 / 3, bernoulli(0.9))))
    with pytest.raises(DecompositionError) as exc:
        convex_decompose(mix, 10 ** 9, FAMILY, denominator_cap=2)
    assert exc.value.achieved < 1.0


def test_measure_json_round_trip():
    back = measure_from_json({"P": [[0.6, 0.4], [0.6, 0.4]], "pi": [0.6, 0.4]})
    assert np.allclose(back.P, bernoulli(0.4).P)
    back2 = measure_from_json({"mixture": [[0.5, {"bernoulli": 0.2}],
                                           [0.5, {"bernoulli": 0.8}]]})
    assert isinstance(back2, MixtureMeasure)
    assert back2.cylinder_mass((1,)) == pytest.approx(0.5)


def test_weights_validated():
    with pytest.raises(ValueError):
        AtomicMeasure(((Word.periodic((0,)), 0.5),))
    with pytest.raises(ValueError):
        MixtureMeasure(((0.5, bernoulli(0.2)),))


@pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.nan),
                                     (1.5, -0.5)])
def test_mixture_refuses_nan_and_negative_weights(weights):
    # a NaN weight failed no comparison, so the mixture was accepted
    with pytest.raises(ValueError, match="mixture weights must"):
        MixtureMeasure(tuple(zip(weights, (bernoulli(0.3), bernoulli(0.7)))))


@pytest.mark.parametrize("P, pi, message", [
    ([[0.5, 0.5], [0.5, 0.5]], [math.nan, math.nan], "not fixed"),
    ([[0.5, 0.5], [0.5, 0.5]], [0.5, math.nan], "not fixed"),
    ([[math.nan, math.nan], [0.5, 0.5]], None, "rows must be"),
    ([[math.nan, 1.0], [0.5, 0.5]], [0.5, 0.5], "rows must be"),
    ([[math.inf, 0.0], [0.5, 0.5]], [0.5, 0.5], "rows must be"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.5, -0.5], "nonnegative and sum to 1"),
    ([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.4], "nonnegative and sum to 1"),
])
def test_markov_measure_refuses_nan_and_negative_mass(P, pi, message):
    # NaN entries failed no comparison and were accepted, and pi = (1.5,
    # -0.5) gave the cylinder [1] a negative mass
    with pytest.raises(ValueError, match=message):
        MarkovMeasure(P, pi)


@pytest.mark.parametrize("doc, message", [
    ({"bernoulli": 0.7, "p": 0.3}, "measure keys are P (pi), bernoulli or "
                                   "mixture; got ['bernoulli', 'p']"),
    ({"P": [[0.5, 0.5], [0.5, 0.5]], "Pi": [0.5, 0.5]}, "got ['P', 'Pi']"),
    ({"mixture": [[1.0, {"bernoulli": 0.7, "q": 1}]]}, "got ['bernoulli', 'q']"),
    ({"bernoulli": "0.7"}, "bernoulli parameter must hold numbers; got '0.7'"),
    ({"bernoulli": True}, "bernoulli parameter must hold numbers; got True"),
    ({"bernoulli": [0.5, "0.5"]}, "bernoulli parameter must hold numbers"),
    ({"P": [[0.5, "0.5"], [0.5, 0.5]]}, "stochastic matrix P must hold numbers"),
    ({"P": [[0.5, 0.5], [0.5, 0.5]], "pi": ["0.5", 0.5]},
     "stationary vector pi must hold numbers"),
    # numpy read a true among numbers as 1.0
    ({"P": [[True, 0.0], [0.5, 0.5]]}, "stochastic matrix P must hold numbers"),
    ({"bernoulli": [0.5, np.bool_(True)]}, "bernoulli parameter must hold"),
])
def test_measure_from_json_refuses_unknown_keys_and_non_numbers(doc, message):
    # "0.7" was read as 0.7 by float(), and an unknown key was ignored
    with pytest.raises(ValueError, match=re.escape(message)):
        measure_from_json(doc)


def test_mixture_weight_is_not_cast():
    with pytest.raises(TypeError):
        measure_from_json({"mixture": [["0.5", {"bernoulli": 0.3}],
                                       [0.5, {"bernoulli": 0.7}]]})


@pytest.mark.parametrize("depth, table, message", [
    (1, [], "got []"),
    (2, [((0,), 0.0), ((1,), 1.0)], "words of 2 integer symbols; got [[0], [1]]"),
    (2, [((0, 0), 0.0), ((0, 1, 1), 1.0)], "got [[0, 0], [0, 1, 1]]"),
    (1, [((0,), 0.0), ((0,), 1.0)], "distinct words"),
    (1, [((0.0,), 0.0), ((1,), 1.0)], "integer symbols; got [[0.0], [1]]"),
    (1, [((True,), 0.0), ((0,), 1.0)], "integer symbols; got [[True], [0]]"),
    (1, [((0,), "0.5"), ((1,), 1.0)], "observable values must hold numbers"),
    (1, [((0,), None), ((1,), 1.0)], "observable values must hold numbers"),
])
def test_observable_table_is_checked_against_its_depth(depth, table, message):
    # each of these was accepted and failed later, if at all, on a bare key
    with pytest.raises(ValueError, match=re.escape(message)):
        LocallyConstantObservable(depth, table)


def test_observable_lookup_names_the_word_it_misses():
    # a table may leave out a word, as long as nothing reads it
    phi = LocallyConstantObservable(2, (((0, 0), 0.0), ((0, 1), 1.0),
                                        ((1, 0), 1.0)))
    assert phi.lookup()[(0, 1)] == 1.0
    with pytest.raises(ValueError, match=re.escape("misses the word [1, 1]")):
        phi.lookup()[(1, 1)]
