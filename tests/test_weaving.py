import bisect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitweave.measures import (MarkovMeasure, MixtureMeasure,
                                 TestFunctionFamily, bernoulli,
                                 integrate)
from orbitweave.shadowing import (AUDIT_DEPTH, PseudoOrbitViolation,
                                  make_rng, shadow_shift, validate_pseudo,
                                  word_state)
from orbitweave.systems import full_shift, golden_mean_shift
from orbitweave.weaving import (DEFAULT_LENGTH_CAP, BlockFamily,
                                BlockSearchError, WeaveOutcome, WeaveSchedule,
                                _cylinder_distances, _distance_cap,
                                build_schedule,
                                concatenate, connector, run_weave,
                                select_blocks, separation_audit, weave_point,
                                word_empirical_distance)

FAMILY = TestFunctionFamily("cylinder", 16, 2)
FULL = full_shift(2)
GOLDEN_CHAIN = [[0.6, 0.4], [1.0, 0.0]]


def test_connector_full_shift():
    s, path = connector(FULL, 0, 1)
    assert s == 1 and path == (0,)
    s, path = connector(FULL, 1, 1)
    assert s == 1 and path == (1,)  # same-cell connectors still take a step


def test_connector_golden_mean():
    gm = golden_mean_shift()
    s, path = connector(gm, 1, 1)
    assert s == 2
    assert path == (1, 0)
    s, path = connector(gm, 0, 1)
    assert s == 1 and path == (0,)


def test_connector_requires_irreducible():
    from orbitweave.systems import ShiftSpace
    reducible = ShiftSpace(2, ((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        connector(reducible, 0, 1)


def test_select_blocks_invariants():
    fam = select_blocks(FULL, bernoulli(0.5), 16, 0.5, 2, 0.25,
                        budget=300, seed=7, family=FAMILY)
    assert len(fam.blocks)
    window = range(fam.n, fam.n + 1)
    for w in fam.blocks:
        assert w[0] == fam.cell
        assert w[fam.n] == w[0]  # return to the cell at exactly n steps
        assert word_empirical_distance(w, fam.n, fam.measure, FAMILY) < 0.5
    prefixes = {tuple(w[:fam.n]) for w in fam.blocks.tolist()}
    assert len(prefixes) == len(fam.blocks)
    assert 16 <= fam.n <= 20
    assert 0.0 < fam.acceptance_rate <= 1.0


def _loop_empirical_distance(word, m, measure, family):
    """Reference count: one Python scan per window and cylinder."""
    total = 0.0
    for i, phi in enumerate(family.functions, start=1):
        d = phi.depth
        hits = sum(1 for t in range(m) if tuple(word[t:t + d]) == phi.word)
        total += abs(hits / m - measure.cylinder_mass(phi.word)) / 2.0 ** (i + 1)
    return total


@pytest.mark.parametrize("k", [2, 3])
def test_word_empirical_distance_matches_loop(k):
    family = TestFunctionFamily("cylinder", 16, k)
    measure = bernoulli([0.5, 0.3, 0.2] if k == 3 else 0.7)
    rng = make_rng(k)
    for _ in range(20):
        w = measure.sample_word(40, rng)
        for m in (1, 7, 20, 40 - family.max_depth + 1):
            assert word_empirical_distance(w, m, measure, family) == \
                _loop_empirical_distance(w, m, measure, family)
    with pytest.raises(ValueError):
        word_empirical_distance(w, 40, measure, family)


@pytest.mark.parametrize("k", [2, 3])
def test_cylinder_distances_batch_matches_rows(k):
    family = TestFunctionFamily("cylinder", 16, k)
    measure = bernoulli([0.5, 0.3, 0.2] if k == 3 else 0.7)
    W = measure.sample_words(50, 40, make_rng(k))
    ms = np.arange(1, 40 - family.max_depth + 2)
    batch = _cylinder_distances(W, ms, measure, family)
    assert batch.shape == (50, len(ms))
    for row, got in zip(W, batch):
        assert np.array_equal(got, _cylinder_distances(row, ms, measure,
                                                       family))


def _reference_cylinder_distances(symbols, ms, measure, family):
    """The former kernel, the oracle of the bincount one: a bool hit array
    and a cumsum over every position per cylinder."""
    sym = np.asarray(symbols, dtype=np.int8)
    ms = np.asarray(ms, dtype=np.int64)
    top = int(ms.max())
    total = np.zeros(sym.shape[:-1] + ms.shape)
    for i, phi in enumerate(family.functions, start=1):
        hit = np.ones(sym.shape[:-1] + (top,), dtype=bool)
        for off, s in enumerate(phi.word):
            hit &= sym[..., off:off + top] == s
        hits = np.cumsum(hit, axis=-1)[..., ms - 1]
        total += np.abs(hits / ms - measure.cylinder_mass(phi.word)) \
            / 2.0 ** (i + 1)
    return total


def _kernel_case(k, N):
    from orbitweave.measures import MarkovMeasure
    measure = (bernoulli([0.5, 0.3, 0.2]) if k == 3
               else MarkovMeasure(GOLDEN_CHAIN))
    return TestFunctionFamily("cylinder", N, k), measure, make_rng(10 * k + N)


# N = 5 and 16 leave the deepest level partial on both alphabets
@pytest.mark.parametrize("N", [5, 16])
@pytest.mark.parametrize("k", [2, 3])
def test_cylinder_distances_match_reference_on_50k_words(k, N):
    family, measure, rng = _kernel_case(k, N)
    w = measure.sample_words(1, 50_000, rng)[0]
    top = 50_000 - family.max_depth + 1
    grid = np.unique(rng.integers(1, top, 300)).tolist() + [top]  # sparse
    for ms in (grid, grid[::-1], grid[:40] * 2, [top], [1]):
        assert np.array_equal(
            _cylinder_distances(w, ms, measure, family),
            _reference_cylinder_distances(w, ms, measure, family))


@pytest.mark.parametrize("N", [5, 16])
@pytest.mark.parametrize("k", [2, 3])
def test_cylinder_distances_match_reference_on_batches(k, N):
    family, measure, rng = _kernel_case(k, N)
    W = measure.sample_words(60, 30, rng)
    ms = np.arange(1, 30 - family.max_depth + 2)
    for shape in ((30,), (60, 30), (3, 20, 30), (0, 30), (2, 0, 30)):
        sym = W[:math.prod(shape[:-1])].reshape(shape)
        got = _cylinder_distances(sym, ms[::3], measure, family)
        assert got.shape == shape[:-1] + (len(ms[::3]),)
        assert np.array_equal(got, _reference_cylinder_distances(
            sym, ms[::3], measure, family))
    with pytest.raises(ValueError, match="alphabet"):
        _cylinder_distances(np.full(30, k), ms, measure, family)


def ref_cylinder_distances(symbols, ms, measure, family):
    """The kernel before the cumulative count table, its oracle: a cylinder's
    hits summed over its run of sorted leaves, leaf by leaf."""
    sym = np.asarray(symbols, dtype=np.int8)
    ms = np.asarray(ms, dtype=np.int64)
    k, depth, L = family.alphabet_size, family.max_depth, sym.shape[-1]
    top = int(ms.max())
    listed = {phi.word for phi in family.functions}
    leaf = [next((w[:d] for d in range(depth, 0, -1) if w[:d] in listed), ())
            for w in np.ndindex((k,) * depth)]
    leaves = sorted(set(leaf))
    bounds, where = np.unique(ms, return_inverse=True)
    B, S = math.prod(sym.shape[:-1]), len(bounds)
    code = np.zeros((B, top), dtype=np.min_scalar_type(-k ** depth))
    for d in range(depth):
        code = code * k + sym.reshape(B, L)[:, d:d + top]
    bins = np.take([bisect.bisect_left(leaves, u) * B * S for u in leaf], code)
    bins += np.arange(B)[:, None] * S + np.repeat(
        np.arange(S), np.diff(bounds, prepend=0))
    runs = np.bincount(bins.ravel(), minlength=len(leaves) * B * S)
    flat = np.cumsum(runs, out=runs).reshape(len(leaves) * B, S)
    flat[1:] -= flat[:-1, -1:]
    runs, total = runs.reshape(len(leaves), B, S), np.zeros((B, S))
    for i, phi in enumerate(family.functions, start=1):
        lo, hi = (bisect.bisect_left(leaves, phi.word + e) for e in ((), (k,)))
        total += np.abs(runs[lo:hi].sum(axis=0) / bounds
                        - measure.cylinder_mass(phi.word)) / 2.0 ** (i + 1)
    return total[:, where].reshape(sym.shape[:-1] + ms.shape)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cylinder_distances_match_the_leaf_run_kernel(data):
    # every D bitwise: the same integer hits, then the same float steps per
    # cylinder added in the family's order
    k = data.draw(st.integers(2, 4), label="k")
    family = TestFunctionFamily("cylinder", data.draw(
        st.sampled_from([1, 5, 16, 40]), label="N"), k)
    shape = data.draw(st.sampled_from([(3000,), (400, 30), (3, 20, 30)]),
                      label="shape")
    top = shape[-1] - family.max_depth + 1
    ms = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=50),
                   label="ms")  # unsorted and repeated
    rng = make_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    measure = bernoulli(rng.dirichlet(np.ones(k)))
    sym = rng.integers(0, k, shape).astype(np.int8)
    assert np.array_equal(_cylinder_distances(sym, ms, measure, family),
                          ref_cylinder_distances(sym, ms, measure, family))


@st.composite
def extreme_chains(draw):
    """Chains on 2-4 symbols whose cylinder masses lie near 0 and near 1:
    i.i.d. rows of tiny and near-one entries, or a general chain."""
    k = draw(st.integers(2, 4))
    entries = st.sampled_from([0.0, 1e-300, 1e-17, 1e-9, 0.3, 1.0])
    if draw(st.booleans()):
        row = draw(st.lists(entries, min_size=k, max_size=k))
        row[draw(st.integers(0, k - 1))] = 1.0
        return bernoulli(np.array(row) / sum(row))
    rows = []
    for a in range(k):
        row = draw(st.lists(entries, min_size=k, max_size=k))
        row[(a + 1) % k] += 1.0
        rows.append([x / sum(row) for x in row])
    return MarkovMeasure(rows)


@settings(max_examples=80, deadline=None)
@given(measure=extreme_chains(), N=st.integers(1, 60), data=st.data())
def test_no_distance_exceeds_the_cap(measure, N, data):
    # the cap that lets select_blocks skip the kernel bounds every value the
    # kernel computes, on sampled words and on constant ones (frequencies 0
    # and 1, where the kernel comes nearest the cap)
    k = measure.alphabet_size
    family = TestFunctionFamily("cylinder", N, k)
    L = data.draw(st.integers(family.max_depth, 60), label="L")
    rng = make_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    words = np.vstack([measure.sample_words(20, L, rng),
                       np.repeat(np.arange(k, dtype=np.int8)[:, None], L, 1)])
    D = _cylinder_distances(words, np.arange(1, L - family.max_depth + 2),
                            measure, family)
    assert D.max() <= _distance_cap(measure, family)


def select_calls(monkeypatch, forced):
    """Count select_blocks' kernel calls; forced: the cap never decides."""
    import orbitweave.weaving as weaving
    calls, kernel = [], weaving._cylinder_distances
    monkeypatch.setattr(weaving, "_cylinder_distances",
                        lambda *a: calls.append(1) or kernel(*a))
    if forced:
        monkeypatch.setattr(weaving, "_distance_cap", lambda *a: math.inf)
    return calls


BENCH_TARGETS = {  # the weave bench's targets and mixture components
    "b07": (FULL, bernoulli(0.7)),
    "golden": (golden_mean_shift(), MarkovMeasure(GOLDEN_CHAIN)),
    "b025": (FULL, bernoulli(0.25)),
    "b08": (FULL, bernoulli(0.8)),
    "b05": (FULL, bernoulli(0.5)),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BENCH_TARGETS))
def test_select_blocks_skips_only_tests_the_cap_decides(monkeypatch, name, k):
    # the family, its return time, cell and acceptance rate are those of the
    # closeness test run on every word; it runs at level 3 only, and there
    # only where the cap reaches 1/3: on every target here but B(0.5)
    shift, measure = BENCH_TARGETS[name]
    args = (shift, measure, 16, 0.25, k, 0.25, 400, 1000 * k + 1)
    forced = select_calls(monkeypatch, forced=True)
    want = select_blocks(*args, family=FAMILY)
    monkeypatch.undo()
    calls = select_calls(monkeypatch, forced=False)
    got = select_blocks(*args, family=FAMILY)
    assert (got.n, got.cell, got.acceptance_rate) == \
        (want.n, want.cell, want.acceptance_rate)
    assert np.array_equal(got.blocks, want.blocks)
    assert len(forced) == 1
    assert len(calls) == (k == 3 and name != "b05")


def test_cap_at_level_two_is_below_one_half():
    # masses lie in [0, 1], so the cap is below 1/2 - 2^-(N+1) < 1/2 for
    # every N <= 53 and level 2 never runs the kernel
    for N in (1, 16, 53):
        family = TestFunctionFamily("cylinder", N, 2)
        for measure in (bernoulli(0.0), bernoulli(1e-300), bernoulli(0.7)):
            assert _distance_cap(measure, family) <= 0.5 - 2.0 ** -(N + 1)


@pytest.mark.parametrize("k", [0, -1])
def test_select_blocks_below_level_one_is_unchanged(k):
    # 1 / 0 raises, and no distance is below a negative 1/k
    args = (FULL, bernoulli(0.5), 16, 0.25, k, 0.25, 50, 1)
    with pytest.raises(ZeroDivisionError if k == 0 else BlockSearchError):
        select_blocks(*args, family=FAMILY)


def test_distance_table_holds_one_point_sized_intp_array():
    # weave_point's call on a 50,006-symbol point: the widened gather is the
    # one point-length intp array alive, so the traced peak stays below
    # 1.6 x 8L bytes (holding the intp codes and the gather at once, 2.1)
    import tracemalloc
    L = 50_006
    z = bernoulli(0.7).sample_words(1, L, make_rng(4))[0]
    grid = np.r_[np.arange(37, L - 3, 35), L - 3]  # as many as a weave's
    segment = np.repeat(np.arange(len(grid)), np.diff(grid, prepend=0))
    _cylinder_distances(z, grid, bernoulli(0.7), FAMILY, segment=segment)
    tracemalloc.start()
    try:
        _cylinder_distances(z, grid, bernoulli(0.7), FAMILY, segment=segment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 8 * L, peak / (8 * L)


def _loop_select_blocks(measure, n, epsilon, k, gamma, budget, seed, family):
    """Reference selection: the per-word return test and
    word_empirical_distance on each row of the same sampled matrix."""
    window = list(range(n, math.floor((1 + gamma) * n) + 1))
    block_len = window[-1] + max(1, round(-math.log2(epsilon))) \
        + family.max_depth
    W = measure.sample_words(budget, block_len, make_rng(seed))
    accepted = []
    for w in map(tuple, W.tolist()):
        returns = [q for q in window if w[q] == w[0]]
        if returns and all(
                word_empirical_distance(w, m, measure, family) < 1.0 / k
                for m in range(n, block_len - family.max_depth + 2)):
            accepted.append((w, returns))
    counts = {q: sum(1 for _w, rs in accepted if q in rs) for q in window}
    n_sel = min(window, key=lambda q: (-counts[q], q))
    pool = [w for w, rs in accepted if n_sel in rs]
    cells = {}
    for w in pool:
        cells[w[0]] = cells.get(w[0], 0) + 1
    cell = min(cells, key=lambda c: (-cells[c], c))
    seen = {}
    for w in pool:
        if w[0] == cell:
            seen.setdefault(w[:n_sel], w)
    return tuple(seen.values()), n_sel, cell, len(accepted) / budget


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("golden", [False, True])
def test_select_blocks_matches_loop(golden, k):
    from orbitweave.measures import MarkovMeasure
    shift = golden_mean_shift() if golden else FULL
    measure = (MarkovMeasure(GOLDEN_CHAIN, shift=shift) if golden
               else bernoulli(0.5))
    args = (measure, 10, 0.5, k, 0.3, 300, 9)
    fam = select_blocks(shift, *args, family=FAMILY)
    blocks, n, cell, rate = _loop_select_blocks(*args, FAMILY)
    assert (tuple(map(tuple, fam.blocks.tolist())), fam.n, fam.cell,
            fam.acceptance_rate) == \
        (blocks, n, cell, rate)
    assert len(blocks) > 1 and 0 < rate < 1


def test_select_blocks_deterministic_measure():
    fam = select_blocks(FULL, bernoulli(0.0), 12, 0.5, 2, 0.25,
                        budget=50, seed=1, family=FAMILY)
    assert len(fam.blocks) == 1
    assert set(fam.blocks[0]) == {0}
    assert fam.n == 12 and fam.cell == 0  # every q ties: the smallest wins


def test_select_blocks_budget_exhaustion():
    gm = golden_mean_shift()
    from orbitweave.measures import MarkovMeasure
    m = MarkovMeasure([[0.5, 0.5], [1.0, 0.0]], shift=gm)
    # impossible closeness demand at tiny budget
    with pytest.raises(BlockSearchError):
        select_blocks(gm, m, 8, 0.5, 10 ** 6, 0.25, budget=5, seed=0,
                      family=FAMILY)


def _single_level_schedule(n=16, min_total=0):
    m = bernoulli(0.5)
    decomposition = [[(Fraction(1), m)]]
    return build_schedule(FULL, decomposition, [[n]], [[0]], k_max=1,
                          epsilon=0.25, min_total_length=min_total)


def _slot_start(schedule, k, i, j, t):
    """M_{k,i,j,t}, read where the layout keeps it (1-based like the paper)."""
    return int(schedule.layout.slots[(k, j)][1][i - 1, t - 1])


def test_build_schedule_single_level():
    sched = _single_level_schedule()
    assert sched.certified
    assert sched.C[0][0] == Fraction(1, 16)
    assert sched.N[0] % 16 == 0
    assert sched.Y[0] == sched.N[0] + sched.X[0]
    assert sched.total_length == sched.offsets_M[-1]


def test_build_schedule_two_measures():
    decomposition = [[(Fraction(1, 2), bernoulli(0.3)),
                      (Fraction(1, 2), bernoulli(0.7))]]
    sched = build_schedule(FULL, decomposition, [[16, 16]], [[0, 1]],
                           k_max=1, epsilon=0.25)
    assert sched.certified
    assert all((sched.N[0] * c).denominator == 1 for c in sched.C[0])
    assert sched.X[0] == 2  # two within-level connectors of length 1


def test_build_schedule_min_total_length():
    sched = _single_level_schedule(min_total=4000)
    assert sched.total_length >= 4000


def test_build_schedule_ceilings_are_exact_past_the_float_range():
    # Y_1 = 14 and s_1 = 1: T_1 = ceil(2^60 / 14) gives 14 T_1 + 1; a float
    # ceiling gave 2^60 - 63, below the asked minimum
    with pytest.raises(OverflowError,
                       match="needs 1152921504606846983 > cap 1000$"):
        build_schedule(FULL, [[(Fraction(1), bernoulli(0.5))]], [[13]], [[0]],
                       k_max=1, epsilon=0.25, length_cap=1000,
                       min_total_length=2 ** 60 + 1)


def test_build_schedule_length_cap_truncates():
    m = bernoulli(0.5)
    decomposition = [[(Fraction(1), m)] for _ in range(4)]
    sched = build_schedule(FULL, decomposition, [[16]] * 4, [[0]] * 4,
                           k_max=4, epsilon=0.25, length_cap=600)
    assert sched.truncated
    assert sched.truncation_level == sched.k_max < 4
    assert sched.total_length <= 600


def test_offsets_recurrences():
    decomposition = [[(Fraction(1), bernoulli(0.5))],
                     [(Fraction(1), bernoulli(0.5))]]
    sched = build_schedule(FULL, decomposition, [[12], [12]], [[0], [0]],
                           k_max=2, epsilon=0.25)
    assert sched.offsets_M[0] == 0
    assert sched.offsets_M[1] == sched.T[0] * sched.Y[0] + sched.s(1, 1, 2, 1)
    # cycle i of level k starts at M_k + (i - 1) Y_k, block t of it t - 1
    # blocks of length 12 later; the last block and its connector back into
    # the cell end the cycle
    for k in (1, 2):
        T, Y, reps = sched.T[k - 1], sched.Y[k - 1], sched.repetitions(k, 1)
        for i in range(1, T + 1):
            for t in range(1, reps + 1):
                assert _slot_start(sched, k, i, 1, t) \
                    == sched.offsets_M[k - 1] + (i - 1) * Y + (t - 1) * 12
            assert _slot_start(sched, k, i, 1, reps) + 12 \
                + sched.s(k, 1, k, 1) == sched.offsets_M[k - 1] + i * Y


def ref_build_schedule(shift, decomposition, block_lengths, cells, k_max,
                       epsilon, length_cap=DEFAULT_LENGTH_CAP,
                       min_total_length=0):
    """The former build_schedule: every level start summed afresh, float
    ceilings, and a while loop that sets the truncation flags after it."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    coeffs = [[Fraction(a) for a, _m in level] for level in decomposition]
    for level in coeffs:
        if sum(level) != 1 or any(a <= 0 for a in level):
            raise ValueError("coefficients must be positive rationals summing to 1")
    used = {c for level in cells[:k_max] for c in level}
    connectors = {(a, b): tuple(connector(shift, a, b)[1]) for a in used
                  for b in used}

    def make(km):
        C = [[a / n for a, n in zip(coeffs[k], block_lengths[k])]
             for k in range(km)]
        sched = WeaveSchedule(
            k_max=km, coefficients=coeffs[:km],
            block_lengths=[list(b) for b in block_lengths[:km]],
            cells=[list(c) for c in cells[:km]], C=C,
            N=[], X=[], Y=[], T=[], connectors=connectors, epsilon=epsilon)
        for k in range(1, km + 1):
            sk = len(coeffs[k - 1])
            lcm = math.lcm(*(c.denominator for c in C[k - 1]))
            bound = k * sched._connector_sum(k)
            N_k = lcm * max(1, math.ceil(bound / lcm))
            sched.N.append(N_k)
            X_k = sum(sched.s(k, j, k, j % sk + 1) for j in range(1, sk + 1))
            sched.X.append(X_k)
            sched.Y.append(N_k + X_k)
        T = []
        for k in range(1, km + 1):
            t = 1 if not T else T[-1] + 1
            prior = sum(sched.Y[r] * T[r] + sched._next_level_connector(r + 1)
                        for r in range(k - 1))
            t = max(t, math.ceil(k * prior / sched.Y[k - 1]))
            T.append(t)
            if k < km:
                need = (k + 1) * sched.Y[k] - sum(sched.Y[r] * T[r]
                                                  for r in range(k - 1))
                T[-1] = max(T[-1], math.ceil(need / sched.Y[k - 1]))
        need = min_total_length - sum(
            sched.Y[r] * T[r] + sched._next_level_connector(r + 1)
            for r in range(km - 1)) - sched._next_level_connector(km)
        T[-1] = max(T[-1], math.ceil(need / sched.Y[km - 1]))
        sched.T, sched.offsets_M = T, [0]
        for q in range(km):
            sched.offsets_M.append(sched.offsets_M[-1] + T[q] * sched.Y[q]
                                   + sched._next_level_connector(q + 1))
        return sched

    sched = make(k_max)
    km = k_max
    while sched.total_length > length_cap and km > 1:
        km -= 1
        sched = make(km)
        sched.truncated = True
        sched.truncation_level = km
    if sched.total_length > length_cap:
        raise OverflowError(
            f"even a single level needs {sched.total_length} > cap {length_cap}")
    return sched.certify()


@st.composite
def schedule_inputs(draw):
    """A shift, 1-4 levels of 1-3 components with block lengths 2-20 and
    cells drawn from the alphabet, a min_total_length and a length_cap."""
    shift = draw(st.sampled_from([FULL, full_shift(3), golden_mean_shift()]))
    decomposition, block_lengths, cells = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        size = len(weights)
        decomposition.append([(Fraction(w, sum(weights)), None)
                              for w in weights])
        block_lengths.append(draw(st.lists(
            st.integers(2, 20), min_size=size, max_size=size)))
        cells.append(draw(st.lists(st.integers(0, shift.alphabet_size - 1),
                                   min_size=size, max_size=size)))
    return (shift, decomposition, block_lengths, cells, len(cells), 0.25), {
        "min_total_length": draw(st.integers(0, 40_000)),
        "length_cap": draw(st.integers(200, 10 ** 6))}


@given(schedule_inputs())
@settings(max_examples=150, deadline=None)
def test_build_schedule_matches_the_former_schedule(case):
    args, options = case
    try:
        want = ref_build_schedule(*args, **options)
    except OverflowError as refused:
        with pytest.raises(OverflowError, match=f"^{re.escape(str(refused))}$"):
            build_schedule(*args, **options)
        return
    got = build_schedule(*args, **options)
    for name in ("k_max", "N", "X", "Y", "T", "offsets_M", "truncated",
                 "truncation_level", "total_length", "certified"):
        assert getattr(got, name) == getattr(want, name), name
    a, b = got.layout, want.layout
    assert a.keys == b.keys
    for x, y in zip((*a.fill, a.ends, a.grid, a.segment),
                    (*b.fill, b.ends, b.grid, b.segment), strict=True):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("bounds", [
    [1], [1, 1, 1], [2, 1, 7, 3, 1, 100, 5],
    [2 ** 32, 5, 2 ** 40 + 3, 1, 2 ** 62, 2 ** 32 - 1], []])
def test_batched_draws_repeat_per_slot_draws(bounds):
    # concatenate draws every missing slot with one rng.integers(bounds)
    # call; the woven points need it to repeat the per-slot stream
    batch, single = make_rng(9), make_rng(9)
    got = batch.integers(np.array(bounds, dtype=np.int64))
    assert got.tolist() == [int(single.integers(b)) for b in bounds]
    np.testing.assert_equal(batch.bit_generator.state,
                            single.bit_generator.state)


def _paper_offset(schedule, k, i, j, t):
    """M_{k,i,j,t} = M_i + sum_{p<j} (N n_p C_p + s) + (t - 1) n_j with
    M_i = M_k + (i - 1) Y_k, summed in Fractions as the construction writes
    it."""
    N, n, C = schedule.N[k - 1], schedule.block_lengths[k - 1], \
        schedule.C[k - 1]
    return schedule.offsets_M[k - 1] + (i - 1) * schedule.Y[k - 1] + sum(
        (N * n[p - 1] * C[p - 1] + schedule.s(k, p, k, p + 1)
         for p in range(1, j)), Fraction(0)) + (t - 1) * n[j - 1]


@pytest.mark.parametrize("case", ["full", "golden", "mixture", "truncated"])
def test_layout_tiles_the_point_at_the_paper_offsets(case):
    from orbitweave.measures import MarkovMeasure
    shift = golden_mean_shift() if case == "golden" else FULL
    target = {"full": bernoulli(0.7), "truncated": bernoulli(0.7),
              "golden": MarkovMeasure(GOLDEN_CHAIN, shift=shift),
              "mixture": MixtureMeasure(((Fraction(1, 3), bernoulli(0.25)),
                                         (Fraction(2, 3), bernoulli(0.8))))}
    schedule, _families, _outcome = run_weave(
        shift, target[case], FAMILY, k_max=4 if case == "truncated" else 2,
        gamma=0.3, block_length=10, budget=100, seed=1,
        min_total_length=3000, length_cap=3500)
    assert schedule.truncated == (case == "truncated")
    layout, L = schedule.layout, schedule.total_length
    cover = np.zeros(L, dtype=np.int64)
    for (k, j), (index, starts) in layout.slots.items():
        n, reps = schedule.block_lengths[k - 1][j - 1], \
            schedule.repetitions(k, j)
        assert index.shape == starts.shape == (schedule.T[k - 1], reps)
        for x, start in zip(index.ravel().tolist(), starts.ravel().tolist()):
            (k2, j2, i, t) = layout.keys[x]
            assert (k2, j2) == (k, j)
            assert start == _paper_offset(schedule, k, i, j, t)
        np.add.at(cover, (starts[..., None] + np.arange(n)).ravel(), 1)
    for (a, b), (s, starts) in layout.bridges.items():
        assert s == connector(shift, a, b)[0]
        np.add.at(cover, (starts[:, None] + np.arange(s)).ravel(), 1)
    # every position of [0, L) in exactly one segment
    assert (cover == 1).all()
    # the slots in the construction's order (k, i, j, t), each once
    assert layout.keys == sorted(layout.keys, key=lambda s: (s[0], s[2],
                                                            s[1], s[3]))
    assert sum(index.size for index, _ in layout.slots.values()) \
        == len(set(layout.keys)) == len(layout.keys)


def test_concatenate_length_and_block_windows():
    m = bernoulli(0.5)
    fam = select_blocks(FULL, m, 12, 0.5, 1, 0.25, budget=200, seed=3,
                        family=FAMILY)
    decomposition = [[(Fraction(1), m)]]
    sched = build_schedule(FULL, decomposition, [[fam.n]], [[fam.cell]],
                           k_max=1, epsilon=0.25)
    z, _deviation, choice = concatenate(FULL, sched, {(1, 1): fam}, seed=5)
    # the spliced symbols, then the last state (its target cell, then its
    # cycle, of period 1 on the full shift) to AUDIT_DEPTH + 1 coordinates
    assert len(z) == sched.total_length + AUDIT_DEPTH + 1
    assert set(z[sched.total_length:].tolist()) == {sched.cells[0][0]}
    # every block window holds the picked block's prefix verbatim
    for (k, j, i, t), idx in zip(sched.layout.keys, choice.tolist()):
        off = _slot_start(sched, k, i, j, t)
        n = sched.block_lengths[k - 1][j - 1]
        assert np.array_equal(z[off:off + n], fam.blocks[idx, :n])


def _per_position_states(shift, schedule, families, picks, seed=0):
    """The pseudo-orbit with one word_state per position, in the
    construction's order: the reference the segment splice must match.
    A slot missing from picks draws its block with one rng.integers call,
    in slot order.  Returns (states, picks used)."""
    states = []
    cells = schedule.cells
    rng = make_rng(seed)
    used = {}

    def bridge(a, b):
        _s, path = connector(shift, a, b)
        states.extend(word_state(shift, path[p:] + (b,))
                      for p in range(len(path)))

    for k in range(1, schedule.k_max + 1):
        sk = len(schedule.coefficients[k - 1])
        for i in range(1, schedule.T[k - 1] + 1):
            for j in range(1, sk + 1):
                n = schedule.block_lengths[k - 1][j - 1]
                blocks = families[(k, j)].blocks.tolist()
                for t in range(1, schedule.repetitions(k, j) + 1):
                    slot = (k, j, i, t)
                    used[slot] = (picks[slot] if slot in picks
                                  else int(rng.integers(len(blocks))))
                    w = blocks[used[slot]]
                    states.extend(word_state(shift, w[p:]) for p in range(n))
                bridge(cells[k - 1][j - 1], cells[k - 1][j % sk])
        bridge(cells[k - 1][0], (cells[k] if k < schedule.k_max
                                 else cells[0])[0])
    return states, used


def _assert_splice_matches_oracle(shift, schedule, families, seed, picks):
    z, deviation, choice = concatenate(shift, schedule, families, seed=seed,
                                       picks=picks)
    states, ref_picks = _per_position_states(shift, schedule, families,
                                             picks or {}, seed)
    assert dict(zip(schedule.layout.keys, choice.tolist())) == ref_picks
    assert len(states) == schedule.total_length
    ref = shadow_shift(shift, validate_pseudo(shift, states, 0.5))
    assert np.array_equal(z, ref.point.prefix(len(z)))
    assert deviation == ref.max_deviation
    return ref, ref_picks


def _assert_weave_matches_oracle(shift, target, seed):
    schedule, families, outcome = run_weave(
        shift, target, FAMILY, k_max=2, gamma=0.3, block_length=10,
        budget=100, seed=seed, min_total_length=3000)
    ref, ref_picks = _assert_splice_matches_oracle(shift, schedule, families,
                                                   seed, None)
    assert outcome.point == ref.point
    assert outcome.picks == ref_picks
    assert outcome.per_block_deviation == ref.max_deviation
    # a one-slot repick, every other slot given as in the outcome
    slot = sorted(s for s in outcome.picks
                  if len(families[s[:2]].blocks) > 1)[seed]
    picks = dict(outcome.picks)
    picks[slot] = (picks[slot] + 1) % len(families[slot[:2]].blocks)
    _assert_splice_matches_oracle(shift, schedule, families, seed, picks)
    # every other slot given: the rest are drawn in slot order
    _assert_splice_matches_oracle(shift, schedule, families, seed,
                                  dict(list(outcome.picks.items())[::2]))
    return schedule


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("golden", [False, True])
def test_splice_matches_per_position_oracle(golden, seed):
    from orbitweave.measures import MarkovMeasure
    shift = golden_mean_shift() if golden else FULL
    target = (MarkovMeasure(GOLDEN_CHAIN, shift=shift) if golden
              else bernoulli(0.7))
    _assert_weave_matches_oracle(shift, target, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_splice_matches_per_position_oracle_on_mixture(seed):
    mix = MixtureMeasure(((Fraction(1, 3), bernoulli(0.25)),
                          (Fraction(2, 3), bernoulli(0.8))))
    schedule = _assert_weave_matches_oracle(FULL, mix, seed)
    # two families per level, so two in-cycle connectors per cycle
    assert [len(level) for level in schedule.cells] == [2, 2]


def test_splice_violation_matches_per_position_oracle():
    # n = 4 in cell 0: the first block returns to 0 at step 4, the second
    # lands in 1 and breaks the 1/2-pseudo-orbit at the end of its slot
    good = (0, 1, 0, 1, 0, 1, 1, 0, 0)
    bad = (0, 1, 1, 0, 1, 0, 0, 1, 1)
    fam = BlockFamily(measure=bernoulli(0.5), shift=FULL, n=4, cell=0,
                      blocks=np.array([good, bad], dtype=np.int8),
                      acceptance_rate=1.0)
    sched = build_schedule(FULL, [[(Fraction(1), bernoulli(0.5))]], [[4]],
                           [[0]], k_max=1, epsilon=0.25, min_total_length=40)
    picks = {(1, 1, i, 1): 0 for i in range(1, sched.T[0] + 1)}
    picks[(1, 1, 3, 1)] = picks[(1, 1, 5, 1)] = 1  # the first one is raised
    with pytest.raises(PseudoOrbitViolation) as got:
        concatenate(FULL, sched, {(1, 1): fam}, picks=picks)
    states, _ = _per_position_states(FULL, sched, {(1, 1): fam}, picks)
    with pytest.raises(PseudoOrbitViolation) as ref:
        validate_pseudo(FULL, states, 0.5)
    assert got.value.index == ref.value.index \
        == _slot_start(sched, 1, 3, 1, 1) + 3
    assert got.value.gap == ref.value.gap


def test_splice_of_a_periodic_point_has_no_deviation():
    # golden mean, cell 1: blocks 1010 and connectors 10 splice to (10)^oo,
    # which every state's continuation (the block's tail 101, then the
    # cycle through 1 from its second symbol) matches to AUDIT_DEPTH
    gm = golden_mean_shift()
    fam = BlockFamily(measure=bernoulli(0.5), shift=gm, n=4, cell=1,
                      blocks=np.array([[1, 0, 1, 0, 1, 0, 1]], dtype=np.int8),
                      acceptance_rate=1.0)
    sched = build_schedule(gm, [[(Fraction(1), bernoulli(0.5))]], [[4]],
                           [[1]], k_max=1, epsilon=0.25, min_total_length=40)
    ref, _ = _assert_splice_matches_oracle(gm, sched, {(1, 1): fam}, 0, None)
    assert ref.max_deviation == 0.0
    assert ref.point.prefix(6) == (1, 0, 1, 0, 1, 0)


@pytest.mark.parametrize("column", [0, 1, 5, 62])
def test_splice_deviation_is_the_first_mismatching_column(column):
    # the periodic splice above, with its one block's continuation edited:
    # at `column` and at the last column, the first mismatch of every block
    # end is `column` (the connectors still match to AUDIT_DEPTH)
    gm = golden_mean_shift()
    fam = BlockFamily(measure=bernoulli(0.5), shift=gm, n=4, cell=1,
                      blocks=np.array([[1, 0, 1, 0, 1, 0, 1]], dtype=np.int8),
                      acceptance_rate=1.0)
    sched = build_schedule(gm, [[(Fraction(1), bernoulli(0.5))]], [[4]],
                           [[1]], k_max=1, epsilon=0.25, min_total_length=40)
    assert fam.continuation.shape == (1, AUDIT_DEPTH - 1)
    fam.continuation[0, [column, -1]] ^= 1
    if column == 0:  # a jump of 1 at the first block's end
        with pytest.raises(PseudoOrbitViolation) as got:
            concatenate(gm, sched, {(1, 1): fam})
        assert got.value.index == _slot_start(sched, 1, 1, 1, 1) + 3
        assert got.value.gap == 1.0
    else:
        _z, deviation, _choice = concatenate(gm, sched, {(1, 1): fam})
        assert deviation == 2.0 ** -(1 + column)


def test_outcome_views_match_word_state():
    # cell 1 of the golden mean: the last state's cycle (1, 0) has period 2
    gm = golden_mean_shift()
    fam = BlockFamily(measure=bernoulli(0.5), shift=gm, n=4, cell=1,
                      blocks=np.array([[1, 0, 1, 0, 1, 0, 1],
                                       [1, 0, 0, 0, 1, 0, 0]], dtype=np.int8),
                      acceptance_rate=1.0)
    sched = build_schedule(gm, [[(Fraction(1), bernoulli(0.5))]], [[4]],
                           [[1]], k_max=1, epsilon=0.25, min_total_length=40)
    outcome = weave_point(gm, sched, {(1, 1): fam}, bernoulli(0.5), FAMILY,
                          seed=3)
    L = sched.total_length
    assert outcome.point == word_state(gm, outcome.symbols[:L + 1].tolist())
    assert outcome.point.cycle == (0, 1)
    assert outcome.picks == dict(zip(sched.layout.keys,
                                     outcome.choice.tolist()))
    assert set(outcome.picks.values()) == {0, 1}


def _listcomp_choice(schedule, families, seed, picks):
    """The former read of picks, one dict lookup per slot in layout order,
    then one draw for every slot left open."""
    keys = schedule.layout.keys
    got = np.array([picks.get(key, -1) for key in keys], dtype=np.int64)
    bounds = np.array([len(families[key[:2]].blocks) for key in keys])
    if (draw := got < 0).any():
        got[draw] = make_rng(seed).integers(bounds[draw])
    return got


def _reweave_base():
    schedule, families, outcome = run_weave(
        FULL, bernoulli(0.7), FAMILY, k_max=2, gamma=0.25, block_length=12,
        epsilon=0.25, budget=300, seed=4, min_total_length=3000)
    assert min(len(f.blocks) for f in families.values()) > 1
    return schedule, families, outcome


def test_concatenate_reads_picks_in_any_order():
    schedule, families, outcome = _reweave_base()
    ordered, keys = outcome.picks, schedule.layout.keys
    shuffled = [keys[i]
                for i in np.random.default_rng(0).permutation(len(keys))]
    one_open = dict(ordered)
    one_open[keys[5]] = -1  # negative: drawn
    for picks in (ordered, {key: ordered[key] for key in shuffled},
                  dict(reversed(ordered.items())), one_open,
                  {key: ordered[key] for key in keys[::3]},
                  {key: ordered[key] for key in shuffled[:40]},
                  {**ordered, (9, 9, 9, 9): 0}, {}, None):
        _z, _deviation, choice = concatenate(FULL, schedule, families, seed=7,
                                             picks=picks)
        assert np.array_equal(choice, _listcomp_choice(
            schedule, families, 7, picks or {}))


def test_weave_point_repeats_on_one_schedule_with_a_read_only_layout():
    schedule, families, outcome = _reweave_base()
    picks = dict(outcome.picks)
    slot = next(iter(picks))
    picks[slot] = (picks[slot] + 1) % len(families[slot[:2]].blocks)
    a, b, again = (weave_point(FULL, schedule, families, bernoulli(0.7),
                               FAMILY, seed=4, picks=p)
                   for p in (picks, picks, outcome.picks))
    for x, y in ((a, b), (again, outcome)):
        assert np.array_equal(x.symbols, y.symbols)
        assert np.array_equal(x.choice, y.choice)
        assert x.convergence == y.convergence
        assert x.per_block_deviation == y.per_block_deviation
    layout, L = schedule.layout, schedule.total_length
    arrays = (*layout.fill, layout.ends, layout.grid, layout.segment)
    assert not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError, match="read-only"):
        layout.grid[0] = 0
    # the fill positions tile the point once, and each position's segment
    # is the first grid point past it
    assert np.array_equal(np.sort(np.concatenate(
        [f.ravel() for f in layout.fill])), np.arange(L))
    assert layout.grid[0] >= 1 and np.all(np.diff(layout.grid) > 0)
    assert layout.grid[-1] == L
    assert np.array_equal(layout.segment, np.searchsorted(
        layout.grid, np.arange(L), side="right"))


def test_weave_point_bernoulli_half():
    schedule, families, outcome = run_weave(
        FULL, bernoulli(0.5), FAMILY, k_max=2, gamma=0.25, block_length=12,
        epsilon=0.25, budget=300, seed=21, min_total_length=5000)
    assert outcome.total_length >= 5000
    assert outcome.final_distance <= 0.05
    assert outcome.per_block_deviation <= schedule.splice_guarantee
    ns = [n for n, _ in outcome.convergence]
    assert ns == sorted(ns)
    assert ns[-1] == outcome.total_length


def test_weave_point_mixture_target():
    mix = MixtureMeasure(((Fraction(1, 2), bernoulli(0.3)),
                          (Fraction(1, 2), bernoulli(0.7))))
    schedule, families, outcome = run_weave(
        FULL, mix, FAMILY, k_max=2, gamma=0.25, block_length=12,
        epsilon=0.25, budget=300, seed=13, min_total_length=8000)
    assert len(schedule.coefficients[0]) == 2
    assert outcome.final_distance <= 0.08
    # the empirical one-cylinder frequency approaches the mixture marginal
    freq = sum(1 for i in range(outcome.total_length)
               if outcome.point.symbol(i) == 1) / outcome.total_length
    assert abs(freq - integrate(mix, FAMILY.functions[1])) <= 0.05


def test_separation_audit_pair():
    schedule, families, outcome = run_weave(
        FULL, bernoulli(0.5), FAMILY, k_max=2, gamma=0.25, block_length=12,
        epsilon=0.25, budget=300, seed=21, min_total_length=5000)
    slot = next(iter(outcome.picks))
    fam = families[(slot[0], slot[1])]
    picks2 = dict(outcome.picks)
    picks2[slot] = (picks2[slot] + 1) % len(fam.blocks)
    out2 = weave_point(FULL, schedule, families, bernoulli(0.5), FAMILY,
                       seed=21, picks=picks2)
    assert separation_audit(FULL, schedule, outcome, out2)
    with pytest.raises(ValueError):
        separation_audit(FULL, schedule, outcome, outcome)


def _audit_outcome(sched, symbols, slot, pick):
    """An outcome whose every slot picks block 0 but `slot`, which picks
    `pick`."""
    keys = sched.layout.keys
    choice = np.zeros(len(keys), dtype=np.int64)
    choice[keys.index(slot)] = pick
    return WeaveOutcome(symbols=symbols, total_length=sched.total_length,
                        grid=np.empty(0), D=np.empty(0),
                        per_block_deviation=0.0, choice=choice, keys=keys)


@pytest.mark.parametrize("past, separated", [(2, True), (3, False)])
def test_separation_audit_difference_past_the_block(past, separated):
    # epsilon 0.25: threshold 1/8 and a scan of n + 4 symbols; a first
    # difference at c = n + past is read as 2^-(past + 1) apart
    sched = _single_level_schedule(n=16, min_total=100)
    slot = (1, 1, 2, 1)  # (k, j, i, t)
    off, L = _slot_start(sched, 1, 2, 1, 1), sched.total_length
    za = np.zeros(L + AUDIT_DEPTH, dtype=np.int8)
    zb = za.copy()
    zb[off + 16 + past] = 1
    assert separation_audit(FULL, sched, _audit_outcome(sched, za, slot, 0),
                            _audit_outcome(sched, zb, slot, 1)) is separated


def test_separation_audit_reads_each_slot_start():
    # two levels of 4-blocks: level 2 runs two blocks per cycle, so each
    # slot's audit window starts at its own (i, t), as the paper's
    # offsets place it; a difference 2 past the block separates, 3 does not
    m = bernoulli(0.5)
    sched = build_schedule(FULL, [[(Fraction(1), m)]] * 2, [[4]] * 2,
                           [[0]] * 2, k_max=2, epsilon=0.25)
    assert sched.repetitions(2, 1) == 2
    za = np.zeros(sched.total_length + AUDIT_DEPTH, dtype=np.int8)
    for (k, j, i, t) in sched.layout.keys:
        off = int(_paper_offset(sched, k, i, j, t))
        for past, separated in ((2, True), (3, False)):
            zb = za.copy()
            zb[off + 4 + past] = 1
            assert separation_audit(
                FULL, sched, _audit_outcome(sched, za, (k, j, i, t), 0),
                _audit_outcome(sched, zb, (k, j, i, t), 1)) is separated


def test_separation_audit_needs_exactly_one_differing_slot():
    sched = _single_level_schedule(n=16, min_total=100)
    keys, L = sched.layout.keys, sched.total_length
    z = np.zeros(L + AUDIT_DEPTH, dtype=np.int8)

    def outcome(choice):
        return WeaveOutcome(symbols=z, total_length=L, grid=np.empty(0),
                            D=np.empty(0), per_block_deviation=0.0,
                            choice=np.array(choice), keys=keys)

    base = [0] * len(keys)
    for other in (base, [1, 1] + base[2:]):
        with pytest.raises(ValueError, match="need exactly 1"):
            separation_audit(FULL, sched, outcome(base), outcome(other))


def test_empty_block_family_rejected():
    with pytest.raises(ValueError, match="empty block family"):
        BlockFamily(measure=bernoulli(0.5), shift=FULL, n=4, cell=0,
                    blocks=np.empty((0, 9), dtype=np.int8),
                    acceptance_rate=0.0)


def test_weave_on_golden_mean():
    from orbitweave.measures import MarkovMeasure
    gm = golden_mean_shift()
    target = MarkovMeasure([[0.6, 0.4], [1.0, 0.0]], shift=gm)
    schedule, families, outcome = run_weave(
        gm, target, FAMILY, k_max=2, gamma=0.3, block_length=10,
        epsilon=0.25, budget=300, seed=2, min_total_length=4000)
    assert gm.admissible(outcome.point, depth=200)
    assert outcome.final_distance <= 0.08


@pytest.mark.parametrize("key, value", [
    ("epsilon", math.inf), ("epsilon", math.nan), ("epsilon", 0),
    ("epsilon", -1.0), ("budget", 0), ("block_length", 0),
    ("min_total_length", -1)])
def test_run_weave_refuses_out_of_domain_options_before_sampling(
        monkeypatch, key, value):
    # an infinite epsilon overflowed to exit 3, and a zero budget or block
    # length read as an exhausted block search (exit 4)
    def no_draws(*args):
        raise AssertionError("sampled words")
    monkeypatch.setattr(MarkovMeasure, "sample_words", no_draws)
    with pytest.raises(ValueError, match=re.escape(f"{key}={value!r}")):
        run_weave(FULL, bernoulli(0.7), FAMILY, **{key: value})
