import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitweave.systems import (EndpointFixedMap, InteriorFixedPointError,
                                KindMismatchError, ShiftSpace, TentMap, Word,
                                apply_map, dist, full_shift,
                                golden_mean_shift, orbit, system_from_json)

from bowen import dist_n

words = st.builds(
    Word,
    head=st.lists(st.integers(0, 1), max_size=6).map(tuple),
    cycle=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
)


def test_word_indexing():
    w = Word((1, 0), (0, 1, 1))
    assert w.prefix(8) == (1, 0, 0, 1, 1, 0, 1, 1)
    assert w.shift().prefix(7) == (0, 0, 1, 1, 0, 1, 1)
    assert Word.periodic((1,)).symbol(999) == 1


def test_shift_rotates_cycle_when_head_empty():
    w = Word((), (0, 1))
    assert w.shift().prefix(4) == (1, 0, 1, 0)


def test_empty_cycle_rejected():
    with pytest.raises(ValueError):
        Word((0,), ())


@given(words, words)
def test_dist_symmetric_and_bounded(x, y):
    sh = full_shift(2)
    d = dist(sh, x, y)
    assert d == dist(sh, y, x)
    assert 0.0 <= d <= 1.0


@given(words)
def test_dist_identity(x):
    sh = full_shift(2)
    assert dist(sh, x, x) == 0.0


def test_dist_exact_across_representations():
    # same sequence 0111... written two ways
    sh = full_shift(2)
    a = Word((0,), (1,))
    b = Word((0, 1, 1), (1, 1))
    assert dist(sh, a, b) == 0.0


@given(words, words, words)
@settings(max_examples=200)
def test_dist_ultrametric(x, y, z):
    sh = full_shift(2)
    assert dist(sh, x, z) <= max(dist(sh, x, y), dist(sh, y, z)) + 1e-15


@given(words, words, st.integers(1, 6))
@settings(max_examples=200)
def test_dist_n_matches_brute_force(x, y, n):
    sh = full_shift(2)
    brute = 0.0
    a, b = x, y
    for _ in range(n):
        brute = max(brute, dist(sh, a, b))
        a, b = a.shift(), b.shift()
    assert dist_n(sh, x, y, n) == brute


def test_dist_n_scaling():
    sh = full_shift(2)
    x = Word((0, 0, 0, 1), (0,))
    y = Word.periodic((0,))
    assert dist(sh, x, y) == 2.0 ** -3
    # the disagreement at index 3 is seen at distance 1 once shifted past it
    assert dist_n(sh, x, y, 4) == 1.0
    assert dist_n(sh, x, y, 2) == 2.0 ** -2


def test_golden_mean_admissibility():
    gm = golden_mean_shift()
    assert gm.admissible(Word.periodic((0, 1)))
    assert not gm.admissible(Word.periodic((1, 1)))
    assert gm.word_admissible((0, 1, 0, 0, 1))
    assert not gm.word_admissible((0, 1, 1))
    assert gm.is_irreducible()


def _loop_admissible(shift, x, depth=None):
    """Reference: the transition loop `admissible` ran before, which range
    checks the symbols before `depth` and only indexes symbol `depth`."""
    if depth is None:
        depth = len(x.head) + 2 * len(x.cycle)
    for i in range(depth):
        a, b = x.symbol(i), x.symbol(i + 1)
        if not (0 <= a < shift.alphabet_size) or not shift.allowed(a, b):
            return False
    return True


def test_admissible_checks_the_symbol_at_depth():
    # symbol 1 was only an index into the table: 5 raised IndexError and -1
    # read the row's last entry
    sh = full_shift(2)
    assert not sh.admissible(Word((0, 5), (0,)), depth=1)
    assert not sh.admissible(Word((0, -1), (0,)), depth=1)
    assert sh.admissible(Word((0, 1), (7,)), depth=1)  # 7 lies past depth
    assert not sh.admissible(Word((0, 1), (7,)))


SHIFTS = [full_shift(2), golden_mean_shift(), full_shift(3),
          ShiftSpace(3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_admissible_matches_the_loop_on_alphabet_words(data):
    shift = data.draw(st.sampled_from(SHIFTS))
    symbols = st.integers(0, shift.alphabet_size - 1)
    x = Word(tuple(data.draw(st.lists(symbols, max_size=6))),
             tuple(data.draw(st.lists(symbols, min_size=1, max_size=4))))
    depth = data.draw(st.none() | st.integers(0, 12))
    assert shift.admissible(x, depth) == _loop_admissible(shift, x, depth)


def test_admissible_words_match_the_product_filter():
    # the enumeration that extends each word by its successors lists what
    # the k^L product and its per-word filter listed, in the same order
    rng = np.random.default_rng(7)
    for k in rng.integers(2, 6, size=40).tolist():
        allowed = (rng.random((k, k)) < 0.6).astype(int)
        allowed[rng.integers(k)] = 0  # a symbol with no successor
        shift = ShiftSpace(k, allowed)
        for length in range(7):
            ref = [w for w in itertools.product(range(k), repeat=length)
                   if all(shift.allowed(a, b) for a, b in zip(w, w[1:]))]
            assert shift.admissible_words(length) == ref


def test_transition_is_stored_as_one_tuple_matrix():
    # a list matrix built, then broke the spectrum's lift cache (unhashable)
    from orbitweave.measures import frequency_observable
    from orbitweave.variational import spectrum
    golden = golden_mean_shift()
    phi = frequency_observable(1)
    want = spectrum(golden, phi, 0.0, 0.5, True, [0.2, 0.4])
    for matrix in ([[1, 1], [1, 0]], np.array([[1, 1], [1, 0]]),
                   np.array([[1, 1], [1, 0]], np.int8)):
        shift = ShiftSpace(2, matrix)
        assert shift == golden and hash(shift) == hash(golden)
        assert {type(v) for r in shift.transition for v in r} == {int}
        assert spectrum(shift, phi, 0.0, 0.5, True, [0.2, 0.4]) == want
    for matrix in (np.array([[1, 1], [1, 0]], bool),
                   np.array([[1, 1], [1, 0]], float),
                   np.array([[1, 1], [1, 0]], np.float32)):
        with pytest.raises(ValueError, match="transition entries must be 0/1"):
            ShiftSpace(2, matrix)


def test_word_admissible_reads_one_cached_read_only_table():
    golden = golden_mean_shift()
    assert golden.word_admissible(np.array([0, 1, 0, 0, 1], np.int8))
    table = golden._allowed
    assert table is golden._allowed and not table.flags.writeable
    assert table.tolist() == [True, True, True, False]
    # the cache is no field: equality and hashing still read the two fields
    fresh = ShiftSpace(2, ((1, 1), (1, 0)))
    assert fresh == golden and hash(fresh) == hash(golden)
    assert [f.name for f in dataclasses.fields(golden)] == [
        "alphabet_size", "transition"]


def test_reducible_matrix_detected():
    sh = ShiftSpace(2, ((1, 1), (0, 1)))
    assert not sh.is_irreducible()


def test_tent_map_values():
    f = TentMap(2.0)
    assert f.value(0.5) == 1.0
    assert f.value(1.0) == 2.0
    assert f.value(1.5) == 1.0
    with pytest.raises(ValueError):
        TentMap(1.0)
    with pytest.raises(ValueError):
        TentMap(2.5)


@pytest.mark.parametrize("slope", [2.0, 1.9, 1.7, 1.5, 1.2, 1.0 + 2.0 ** -40])
def test_tent_value_matches_the_branch_form(slope):
    # s * min(x, 2 - x) against the two-branch form: 2 - x is exact on
    # [1, 2] and rounds to at least 1 below 1, so it is never below x there
    ends = np.array([0.0, 1.0, 2.0])
    x = np.concatenate([
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        np.random.default_rng(5).uniform(-0.5, 2.5, 10_000),
        np.random.default_rng(6).uniform(0.0, 2.0, 10_000),
        [-0.0, np.inf, -np.inf, np.nan]])
    branches = np.where(x <= 1.0, slope * x, slope * (2.0 - x))
    got = TentMap(slope).value(x)
    assert np.array_equal(got, branches, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(branches))


def test_tent_pieces_cover_domain():
    f = TentMap(1.7)
    (a0, b0, m0, c0), (a1, b1, m1, c1) = f.pieces()
    assert (a0, b1) == f.domain
    for x in (0.0, 0.3, 1.0):
        assert f.value(x) == pytest.approx(m0 * x + c0)
    for x in (1.0, 1.4, 2.0):
        assert f.value(x) == pytest.approx(m1 * x + c1)


def test_endpoint_fixed_map_accepts_valid():
    f = EndpointFixedMap((0.0, 0.5, 1.0), (0.0, 0.9, 1.0))
    assert f.value(0.5) == 0.9
    assert f.value(0.25) == pytest.approx(0.45)


def test_endpoint_fixed_map_rejects_interior_fixed_point():
    with pytest.raises(InteriorFixedPointError):
        EndpointFixedMap((0.0, 0.5, 1.0), (0.2, 0.5, 0.8))
    with pytest.raises(InteriorFixedPointError):
        # segment crossing the diagonal strictly inside
        EndpointFixedMap((0.0, 1.0), (0.9, 0.1))


@pytest.mark.parametrize("bp", [(0.0, math.nan, 1.0), (0.0, 0.5, 0.5, 1.0),
                                (0.0, 0.6, 0.4, 1.0)])
def test_endpoint_fixed_map_refuses_unordered_breakpoints(bp):
    # a NaN breakpoint failed every comparison and passed the order check
    with pytest.raises(ValueError, match="strictly increasing"):
        EndpointFixedMap(bp, (0.0,) + (0.9,) * (len(bp) - 2) + (1.0,))


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
@settings(max_examples=100)
def test_endpoint_fixed_map_never_has_interior_crossing(b, v):
    try:
        f = EndpointFixedMap((0.0, b if b < 1 else 0.5, 1.0), (0.0, v, 1.0))
    except (InteriorFixedPointError, ValueError):
        return
    # accepted maps keep f(x) - x single-signed on each open segment
    for x in [i / 64 for i in range(1, 64)]:
        assert f.value(x) != x or x in (0.0, 1.0) or abs(f.value(x) - x) < 1e-12


def test_apply_map_and_orbit():
    sh = full_shift(2)
    x = Word((1, 0, 1), (0,))
    assert apply_map(sh, x).prefix(3) == (0, 1, 0)
    assert [p.symbol(0) for p in orbit(sh, x, 4)] == [1, 0, 1, 0]
    f = TentMap(2.0)
    assert orbit(f, 0.25, 3) == [0.25, 0.5, 1.0]


def test_kind_mismatch():
    sh = full_shift(2)
    with pytest.raises(KindMismatchError):
        apply_map(sh, 0.5)
    with pytest.raises(KindMismatchError):
        apply_map(TentMap(2.0), Word.periodic((0,)))


def test_domain_enforced():
    with pytest.raises(ValueError):
        apply_map(TentMap(2.0), 2.5)


def test_system_from_json():
    assert system_from_json({"kind": "full_shift", "k": 3}).alphabet_size == 3
    sft = system_from_json({"kind": "sft", "transition": [[1, 1], [1, 0]]})
    assert sft.transition == golden_mean_shift().transition
    assert isinstance(system_from_json({"kind": "tent", "s": 2.0}), TentMap)
    pl = system_from_json({"kind": "plmap", "breakpoints": [0.0, 0.5, 1.0],
                           "values": [0.0, 0.9, 1.0]})
    assert isinstance(pl, EndpointFixedMap)
    with pytest.raises(ValueError):
        system_from_json({"kind": "nope"})


def test_irreducible_cycles_need_every_path_length():
    # on the k-cycle, k - 1 steps are needed to go from i + 1 back to i
    for k in range(2, 10):
        cycle = tuple(tuple(int(b == (a + 1) % k) for b in range(k))
                      for a in range(k))
        assert ShiftSpace(k, cycle).is_irreducible()
        broken = tuple(tuple(int(b == a + 1) for b in range(k))
                       for a in range(k))
        assert not ShiftSpace(k, broken).is_irreducible()


@pytest.mark.parametrize("doc, error, message", [
    ({"kind": "full_shift", "k": 2.9}, ValueError, "alphabet size 2.9 is no"),
    ({"kind": "full_shift", "k": True}, ValueError, "alphabet size True is no"),
    ({"kind": "full_shift", "k": 2, "K": 3}, TypeError, "argument 'K'"),
    ({"kind": "sft", "transition": [[1, 1], [1, 0.5]]}, ValueError,
     "transition entries must be 0/1; got ((1, 1), (1, 0.5))"),
    ({"kind": "sft", "transition": [[1, 1], [1, 1.0]]}, ValueError,
     "transition entries must be 0/1"),
    ({"kind": "sft", "transition": [[1, 1], [True, 0]]}, ValueError,
     "transition entries must be 0/1"),
    ({"kind": "tent", "s": "2"}, ValueError, "slope must be in (1, 2]; got '2'"),
    ({"kind": "tent", "s": True}, ValueError, "slope must be in (1, 2]; got True"),
    ({"kind": "tent", "slope": 2.0}, TypeError, "argument 'slope'"),
    ({"kind": "plmap", "breakpoints": [0.0, 1.0], "values": [0.0, 1.0],
      "s": 1.0}, TypeError, "argument 's'"),
    ({"kind": "Tent", "s": 2.0}, ValueError, "unknown system kind: 'Tent'"),
])
def test_system_from_json_binds_keys_and_casts_nothing(doc, error, message):
    # int() and float() read 2.9 as 2, 0.5 as 0 and "2" as 2.0, and an
    # unknown key was ignored
    with pytest.raises(error, match=re.escape(message)):
        system_from_json(doc)
