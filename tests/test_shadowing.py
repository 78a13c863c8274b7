import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitweave.measures import MarkovMeasure
from orbitweave.shadowing import (AUDIT_DEPTH, START_LENGTH, PseudoOrbit,
                                  PseudoOrbitViolation, _interval_orbits,
                                  _interval_shadow, _interval_track,
                                  _random_start, _shift_heads,
                                  _splice_deviations, _successor_chain,
                                  _successor_table, _uniforms,
                                  canonical_cycle, continue_words, make_rng,
                                  perturbed_orbit, shadow_interval,
                                  shadow_shift, shadowing_modulus,
                                  steering_word, symbol_continuation,
                                  validate_pseudo, word_state)
from orbitweave.systems import (EndpointFixedMap, ShiftSpace, TentMap, Word,
                                apply_map, dist, full_shift, golden_mean_shift,
                                orbit)


def test_validate_reports_first_violation():
    sh = full_shift(2)
    good = Word.periodic((0,))
    bad = Word.periodic((1,))
    with pytest.raises(PseudoOrbitViolation) as exc:
        validate_pseudo(sh, [good, good, bad, good], 0.25)
    assert exc.value.index == 1
    assert exc.value.gap == 1.0


def test_validate_accepts_true_orbit():
    sh = full_shift(2)
    states = orbit(sh, Word((1, 0, 1, 1), (0, 1)), 6)
    po = validate_pseudo(sh, states, 0.0)
    assert po.delta == 0.0


def test_canonical_cycle():
    gm = golden_mean_shift()
    assert canonical_cycle(gm, 0) == (0,)
    assert canonical_cycle(gm, 1) == (1, 0)
    full = full_shift(2)
    assert canonical_cycle(full, 1) == (1,)


def test_word_state_admissible_after_forbidden_tail():
    gm = golden_mean_shift()
    w = word_state(gm, (0, 0, 1))
    assert gm.admissible(w, depth=10)
    assert w.prefix(6) == (0, 0, 1, 0, 1, 0)


@given(st.integers(0, 500), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_perturbed_orbit_respects_delta(seed, m):
    sh = full_shift(2)
    delta = 2.0 ** -m
    x0 = word_state(sh, (0, 1, 1, 0, 1))
    po = perturbed_orbit(sh, x0, 40, delta, seed=seed)
    for a, b in zip(po.states, po.states[1:]):
        assert dist(sh, apply_map(sh, a), b, depth=64) <= delta


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_splice_deviation_half_delta(seed):
    sh = full_shift(2)
    delta = 2.0 ** -6
    x0 = word_state(sh, (1, 0, 0, 1))
    po = perturbed_orbit(sh, x0, 80, delta, seed=seed)
    res = shadow_shift(sh, po)
    assert res.max_deviation <= delta / 2
    assert res.max_deviation == max(res.per_step)


def test_splice_on_sft_is_admissible():
    gm = golden_mean_shift()
    po = perturbed_orbit(gm, word_state(gm, (0, 1)), 120, 2.0 ** -5, seed=9)
    res = shadow_shift(gm, po)
    assert gm.admissible(res.point, depth=150)


def test_perturbed_orbit_delta_zero_is_orbit():
    f = TentMap(2.0)
    po = perturbed_orbit(f, 0.3, 10, 0.0, seed=1)
    assert list(po.states) == orbit(f, 0.3, 10)


def test_non_dyadic_delta_still_validates():
    sh = full_shift(2)
    po = perturbed_orbit(sh, word_state(sh, (0, 1, 1)), 30, 0.3, seed=4)
    validate_pseudo(sh, po.states, 0.3)


def test_shadow_interval_true_orbit():
    f = TentMap(2.0)
    po = perturbed_orbit(f, 0.37, 40, 0.0, seed=0)
    res = shadow_interval(f, po, 1e-6)
    assert res is not None
    assert res.max_deviation < 1e-6


def test_shadow_interval_reports_failure():
    f = TentMap(2.0)
    # jump by 0.8 cannot be traced within 0.01
    po = PseudoOrbit((0.1, 0.2 * 2, 1.2), delta=1.0)
    assert shadow_interval(f, po, 0.01) is None
    # the only shadow, (0.75, 1.5), lies on the windows' edges: a deviation
    # equal to epsilon fails, a larger epsilon finds it
    po = PseudoOrbit((0.5, 1.75), delta=1.0)
    assert shadow_interval(f, po, 0.25) is None
    assert shadow_interval(f, po, 0.2500001).point == pytest.approx(0.75)


@pytest.mark.parametrize("delta", [math.nan, -0.5])
def test_pseudo_orbit_refuses_nan_and_negative_delta(delta):
    # a NaN delta passed `delta < 0`, so the tent ran its unperturbed orbit
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        PseudoOrbit((0.1, 0.2), delta)
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        perturbed_orbit(TentMap(2.0), 0.37, 10, delta, seed=0)


def test_shadow_interval_long_expanding_orbit():
    # precision check: expansion 2^100 must not empty the tracked set
    f = TentMap(2.0)
    po = perturbed_orbit(f, 0.41, 100, 1e-6, seed=12)
    res = shadow_interval(f, po, 1e-3)
    assert res is not None
    assert res.max_deviation < 1e-3


def test_pseudo_orbit_composition():
    sh = full_shift(2)
    a = perturbed_orbit(sh, word_state(sh, (0, 1)), 20, 2.0 ** -4, seed=3)
    b = perturbed_orbit(sh, a.states[-1], 20, 2.0 ** -4, seed=5)
    joined = a.states + b.states[1:]
    validate_pseudo(sh, joined, 2.0 ** -4)


def test_shadowing_modulus_shift():
    # the splice shadows every trial at delta = epsilon: one certified row
    eps = 2.0 ** -5
    assert shadowing_modulus(full_shift(2), eps, trials=20, length=60,
                             seed=2) == (eps, [(eps, 20, 20)])


def test_shadowing_modulus_tent():
    assert shadowing_modulus(TentMap(2.0), 1e-3, trials=15, length=50,
                             seed=8) == (1e-3, [(1e-3, 15, 15)])


def test_make_rng_deterministic():
    a = make_rng(42).integers(0, 100, size=5)
    b = make_rng(42).integers(0, 100, size=5)
    assert list(a) == list(b)


# --------------------------------------------------------------------------
# Per-trial reference loops, the oracle for the batched kernels: one trial
# at a time, scalar map values, one rng.uniform per step, one Python list of
# intervals per trial, per-position Word comparisons.

SHADOWED, NO_SHADOW, OVER_CAP = "shadowed", "no shadow", "over cap"


class OverCap(Exception):
    """The branchwise oracle tracks more intervals than its cap."""


PLMAP = EndpointFixedMap((0.0, 0.25, 0.5, 1.0), (0.0, 0.9, 0.6, 1.0))
INTERVAL_MAPS = [TentMap(2.0), TentMap(1.2), PLMAP]
FLAT = EndpointFixedMap((0.0, 0.3, 0.6, 1.0), (0.0, 0.8, 0.8, 1.0))


def ref_value(map_, x):
    if isinstance(map_, TentMap):
        return map_.slope * x if x <= 1.0 else map_.slope * (2.0 - x)
    bp, vals = map_.breakpoints, map_.values
    if x <= bp[0]:
        return vals[0]
    for a, b, fa, fb in zip(bp, bp[1:], vals, vals[1:]):
        if x <= b:
            t = (x - a) / (b - a)
            return fa + t * (fb - fa)
    return vals[-1]


def ref_interval_orbit(map_, x0, n, delta, seed):
    """One kick at a time, drawn from make_rng(seed) or from a given
    generator (which it advances)."""
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    lo, hi = map_.domain
    states = [float(x0)]
    for _ in range(n - 1):
        y = ref_value(map_, states[-1])
        if delta > 0:
            y = min(hi, max(lo, y + rng.uniform(-delta / 2, delta / 2)))
        states.append(y)
    return states


def ref_shadow_interval(map_, states, epsilon, piece_cap=4096):
    map_pieces = map_.pieces()
    lo0 = max(map_.domain[0], states[0] - epsilon)
    hi0 = min(map_.domain[1], states[0] + epsilon)
    if lo0 > hi0:
        return None
    pieces = [(lo0, hi0)]
    back = []
    for t in range(1, len(states)):
        nxt, ptr = [], []
        for prev, (vlo, vhi) in enumerate(pieces):
            for bi, (plo, phi_, m, c) in enumerate(map_pieces):
                xlo, xhi = max(vlo, plo), min(vhi, phi_)
                if xlo > xhi:
                    continue
                ylo, yhi = sorted((m * xlo + c, m * xhi + c))
                ylo = max(ylo, states[t] - epsilon)
                yhi = min(yhi, states[t] + epsilon)
                if ylo > yhi:
                    continue
                nxt.append((ylo, yhi))
                ptr.append((prev, bi))
        if len(nxt) > piece_cap:
            raise OverCap(f"{len(nxt)} tracked intervals exceed cap")
        if not nxt:
            return None
        pieces = nxt
        back.append(ptr)
    i = max(range(len(pieces)), key=lambda j: pieces[j][1] - pieces[j][0])
    ys = [0.5 * (pieces[i][0] + pieces[i][1])]
    for ptr in reversed(back):
        i, bi = ptr[i]
        plo, phi_, m, c = map_pieces[bi]
        ys.append(min(max((ys[-1] - c) / m, plo), phi_))
    ys.reverse()
    per_step = [abs(y - s) for y, s in zip(ys, states)]
    return None if max(per_step) >= epsilon else (ys, per_step)


def ref_outcome(map_, states, epsilon, piece_cap=4096):
    try:
        res = ref_shadow_interval(map_, states, epsilon, piece_cap)
    except OverCap:
        return OVER_CAP, None
    return (NO_SHADOW, None) if res is None else (SHADOWED, res)


def ref_union_interval(map_, states, epsilon):
    """ref_shadow_interval's branchwise images with no cap, overlapping
    intervals merged at each step: the unions S_0, S_1, ... as lists of
    (lo, hi), up to and including the first empty one.  The windows have
    the kernel's radius epsilon - 2^-50, inside the strict bound."""
    radius = epsilon - 2.0 ** -50
    lo0 = max(map_.domain[0], states[0] - radius)
    hi0 = min(map_.domain[1], states[0] + radius)
    unions = [[(lo0, hi0)] if lo0 <= hi0 else []]
    for x in states[1:]:
        if not unions[-1]:
            break
        images = []
        for vlo, vhi in unions[-1]:
            for plo, phi_, m, c in map_.pieces():
                xlo, xhi = max(vlo, plo), min(vhi, phi_)
                if xlo > xhi:
                    continue
                ylo, yhi = sorted((m * xlo + c, m * xhi + c))
                ylo, yhi = max(ylo, x - radius), min(yhi, x + radius)
                if ylo <= yhi:
                    images.append((ylo, yhi))
        merged = []
        for ylo, yhi in sorted(images):
            if merged and ylo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], yhi))
            else:
                merged.append((ylo, yhi))
        unions.append(merged)
    return unions


def ref_union_witness(map_, unions, states, epsilon):
    """Shadow rebuilt backward through one-interval unions: the midpoint
    of S_n, then at each step the per-piece preimage of least residual
    |m x - (y - c)|, clipped to piece ∩ S_{t-1}; None when a union empties
    or the witness reaches epsilon."""
    if len(unions) < len(states) or not unions[-1]:
        return None
    (lo, hi), = unions[-1]
    ys = [0.5 * (lo + hi)]
    for (vlo, vhi), in reversed(unions[:-1]):
        y, best = ys[-1], None
        for plo, phi_, m, c in map_.pieces():
            xlo, xhi = max(plo, vlo), min(phi_, vhi)
            if xlo > xhi:
                continue
            x = min(max((y - c) / m if m else 0.0, xlo), xhi)
            r = abs(m * x - (y - c))
            if best is None or r < best[0]:
                best = (r, x)
        ys.append(best[1])
    ys.reverse()
    return ys if max(abs(y - s) for y, s in zip(ys, states)) < epsilon else None


def assert_shadows(map_, ys, states, epsilon):
    """Independent check of a witness: each step maps onto the next to
    1e-14 under the scalar map, and every deviation is below epsilon."""
    assert max(abs(ref_value(map_, a) - b) for a, b in zip(ys, ys[1:])) <= 1e-14
    assert max(abs(y - s) for y, s in zip(ys, states)) < epsilon


def ref_union_outcome(map_, states, epsilon):
    """(unions, witness or None) of the merged-union reference."""
    unions = ref_union_interval(map_, states, epsilon)
    return unions, ref_union_witness(map_, unions, states, epsilon)


def shadow_batch(map_, xs, epsilon):
    """(ok, ys, s) of the kernel, which writes the shadows over its input."""
    ys = xs.copy()
    ok, s = _interval_shadow(map_, ys, epsilon)
    return ok, ys, s


def assert_matches_union(map_, xs, epsilon, ok, ys, s):
    """Kernel (ok, ys, s) on the columns of xs against the merged-union
    reference: one interval per step equal to S_t, the same outcome and the
    same witness, which passes the independent check."""
    for t in range(xs.shape[1]):
        states = xs[:, t].tolist()
        unions, witness = ref_union_outcome(map_, states, epsilon)
        assert all(len(u) == 1 for u in unions[:-1])
        alive = len(unions) == len(states) and len(unions[-1]) == 1
        if alive:
            assert [u[0] for u in unions] == list(zip(s[:, 0, t], -s[:, 1, t]))
        assert ok[t] == (witness is not None)
        if ok[t]:
            assert ys[:, t].tolist() == witness
            assert_shadows(map_, witness, states, epsilon)


def ref_modulus_row(system, epsilon, trials, length, seed, delta):
    """Successes of one modulus row, one trial at a time.  On an interval
    map the starts, then each trial's kicks in turn, come from one
    make_rng(seed) stream, as shadowing_modulus draws them; a shift, where
    the modulus draws nothing, draws each trial from seeds of its own."""
    ok = 0
    if isinstance(system, ShiftSpace):
        for t in range(trials):
            x0 = _random_start(system, make_rng(seed + 7919 * t))
            po = ref_shift_orbit(system, x0, length, delta,
                                 seed + 104729 * t + 1)
            ok += max(ref_shadow_shift(system, po)[1]) < epsilon
        return ok
    rng = make_rng(seed)
    for x0 in [_random_start(system, rng) for _ in range(trials)]:
        states = ref_interval_orbit(system, x0, length, delta, rng)
        ok += ref_union_outcome(system, states, epsilon)[1] is not None
    return ok


def ref_shift_orbit(shift, x0, n, delta, seed):
    """One state at a time: state i + 1 is the shift of state i cut to m
    symbols, then 8 symbols succ[floor(u * len(succ))], u from row i of
    rng.random((n - 1, 8))."""
    u = make_rng(seed).random((n - 1, 8))
    m = int(math.ceil(-math.log2(delta)))
    k = shift.alphabet_size
    succ = [[b for b in range(k) if shift.allowed(a, b)] for a in range(k)]
    states = [x0]
    for i in range(n - 1):
        head = list(apply_map(shift, states[-1]).prefix(m))
        for j in range(8):
            choices = succ[head[-1]]
            head.append(choices[min(int(u[i, j] * len(choices)),
                                    len(choices) - 1)])
        states.append(word_state(shift, head))
    return states


def ref_shadow_shift(shift, states):
    """Per-position splice: (point, per-step deviations)."""
    firsts = [s.symbol(0) for s in states[:-1]]
    last = states[-1]
    z = Word(tuple(firsts) + last.head, last.cycle)
    if not shift.admissible(z, depth=len(z.head) + len(z.cycle)):
        raise ValueError("spliced point inadmissible")
    per_step = []
    for i, s in enumerate(states):
        d = 0.0
        for j in range(64):
            if z.symbol(i + j) != s.symbol(j):
                d = 2.0 ** (-j)
                break
        per_step.append(d)
    return z, per_step


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def modulus_inputs(system, trials, length, seed):
    """(starts, kicks) of shadowing_modulus on an interval map: one
    _random_start after another, then the kicks, from one stream."""
    rng = make_rng(seed)
    x0 = [_random_start(system, rng) for _ in range(trials)]
    return x0, rng.random((trials, length - 1))


def batch_inputs(system, trials, length, seed):
    x0 = [_random_start(system, make_rng(seed + 7919 * t)) for t in range(trials)]
    u = _uniforms(system, length, [seed + 104729 * t + 1 for t in range(trials)])
    return x0, u


def windows(states, width=AUDIT_DEPTH):
    return np.array([s.prefix(width) for s in states], dtype=np.int8)


def splice(shift, start, heads):
    """(windows, z) for _splice_deviations: the first AUDIT_DEPTH symbols of
    states 0..n-1 (the start window, then each head continued by the
    canonical cycle through its last symbol) and the spliced point."""
    wins = np.empty((len(heads), heads.shape[1] + 1, AUDIT_DEPTH), np.int8)
    wins[:, 0] = start[:, :AUDIT_DEPTH]
    wins[:, 1:] = continue_words(shift, heads, AUDIT_DEPTH)
    tail = continue_words(shift, heads[:, -1],  # one period past the windows
                          heads.shape[-1] + AUDIT_DEPTH + shift.alphabet_size)
    return wins, np.concatenate([start[:, :1], heads[:, :-1, 0], tail], 1)


@pytest.mark.parametrize("map_", INTERVAL_MAPS)
def test_interval_orbits_match_reference_bitwise(map_):
    x0, u = batch_inputs(map_, 12, 80, 5)
    for delta in (0.0, 1e-2, 1e-3 / 3, 2.0 ** -20):
        xs = _interval_orbits(map_, np.array(x0), delta, u)
        for t in range(12):
            ref = ref_interval_orbit(map_, x0[t], 80, delta, 5 + 104729 * t + 1)
            assert bits(xs[:, t]) == bits(ref)
        one = perturbed_orbit(map_, x0[3], 80, delta, seed=5 + 104729 * 3 + 1)
        assert bits(one.states) == bits(xs[:, 3])
    grid = np.linspace(*map_.domain, 1001)
    assert bits(map_.value(grid)) == bits([ref_value(map_, x) for x in grid])


@pytest.mark.parametrize("map_,epsilon,length", [
    (TentMap(2.0), 1e-3, 120), (TentMap(1.2), 1e-3, 80), (PLMAP, 1e-2, 80)])
def test_interval_shadow_matches_reference(map_, epsilon, length):
    # the merged-union reference pins S_t, the outcome and the witness; the
    # branchwise oracle's shadows are all found again, and a trial it fails
    # while the kernel shadows it had its witness on the window's edge
    x0, u = batch_inputs(map_, 25, length, 3)
    seen = set()
    for delta in (epsilon, epsilon / 2, epsilon / 8, epsilon / 64):
        xs = _interval_orbits(map_, np.array(x0), delta, u)
        ok, ys, s = shadow_batch(map_, xs, epsilon)
        assert_matches_union(map_, xs, epsilon, ok, ys, s)
        for t in range(25):
            want, res = ref_outcome(map_, xs[:, t].tolist(), epsilon)
            seen.add(want)
            assert want != OVER_CAP
            if want == SHADOWED:
                assert ok[t]
            if ok[t]:
                one = shadow_interval(map_, PseudoOrbit(tuple(xs[:, t]), delta),
                                      epsilon)
                assert one.per_step == np.abs(ys[:, t] - xs[:, t]).tolist()
                assert one.max_deviation == max(one.per_step)
    assert SHADOWED in seen


def test_interval_batch_mixes_outcomes_per_trial():
    # some trials succeed, and an appended jump row empties; every trial
    # keeps its own outcome, alone or in the batch
    f = TentMap(2.0)
    x0, u = batch_inputs(f, 30, 30, 7)
    xs = _interval_orbits(f, np.array(x0), 0.3, u)
    xs = np.hstack([xs, np.array([[0.1, 1.5] + [1.0] * 28]).T])
    ok, ys, s = shadow_batch(f, xs, 0.3)
    assert set(ok.tolist()) == {True, False}
    assert_matches_union(f, xs, 0.3, ok, ys, s)
    alone = [bool(shadow_batch(f, xs[:, t:t + 1], 0.3)[0][0])
             for t in range(xs.shape[1])]
    assert alone == ok.tolist()


def test_union_oracle_where_branch_histories_explode():
    # slope 1.2 at eps 0.05: at delta_hat the branchwise oracle passes its
    # cap of 4,096 intervals on 18 trials; the merged union stays one
    # interval and each of those trials is shadowed
    f, epsilon, length, trials, seed = TentMap(1.2), 0.05, 60, 30, 7
    delta_hat, table = shadowing_modulus(f, epsilon, trials, length, seed)
    assert delta_hat > 0.0
    x0, u = modulus_inputs(f, trials, length, seed)
    for delta, successes, _ in table:
        xs = _interval_orbits(f, np.array(x0), delta, u)
        ok, ys, s = shadow_batch(f, xs, epsilon)
        assert successes == np.count_nonzero(ok)
        assert_matches_union(f, xs, epsilon, ok, ys, s)
        if delta == delta_hat:
            over = [t for t in range(trials) if ref_outcome(
                f, xs[:, t].tolist(), epsilon)[0] == OVER_CAP]
            assert len(over) == 18 and ok[over].all()


def test_contracting_piece_witnesses_hold():
    # PLMAP's slope-0.8 piece expands backward; every witness the kernel
    # accepts is a true shadow, and it finds one in each trial where the
    # true orbit of x0 is one, also at eps = 1e-6, where a window margin
    # proportional to eps would fall below rounding
    for epsilon, length, trials in ((1e-2, 300, 100), (1e-6, 200, 60)):
        for seed in range(3):
            x0, u = batch_inputs(PLMAP, trials, length, seed)
            exact = _interval_orbits(PLMAP, np.array(x0), 0.0, u)
            for delta in (epsilon, epsilon / 2, epsilon / 8):
                xs = _interval_orbits(PLMAP, np.array(x0), delta, u)
                true = np.abs(exact - xs).max(axis=0) < epsilon
                ok, ys, _ = shadow_batch(PLMAP, xs, epsilon)
                for t in np.flatnonzero(ok):
                    assert_shadows(PLMAP, ys[:, t].tolist(),
                                   xs[:, t].tolist(), epsilon)
                assert np.count_nonzero(ok) >= np.count_nonzero(true), (
                    epsilon, seed, delta)


def test_flat_piece_shadows_without_warnings():
    # a constant piece has no preimage formula: its candidate is the clip
    x0, u = batch_inputs(FLAT, 20, 40, 4)
    for delta in (1e-2, 1e-4):
        xs = _interval_orbits(FLAT, np.array(x0), delta, u)
        xs = np.hstack([xs, np.array([[0.1, 0.9] + [0.5] * 38]).T])
        ok, ys, s = shadow_batch(FLAT, xs, 1e-2)
        assert ok[:-1].any() and not ok[-1]
        assert_matches_union(FLAT, xs, 1e-2, ok, ys, s)


@pytest.mark.parametrize("system,epsilon,trials,length,seed", [
    (TentMap(2.0), 1e-3, 20, 150, 4),
    (TentMap(1.2), 1e-3, 20, 120, 1),
    (PLMAP, 1e-2, 15, 100, 6),
    (TentMap(1.2), 0.05, 6, 50, 3),  # branch histories past any small cap
    (full_shift(2), 2.0 ** -6, 10, 60, 2),
    (golden_mean_shift(), 0.3, 10, 60, 3),
])
def test_shadowing_modulus_matches_reference(system, epsilon, trials, length,
                                             seed):
    delta_hat, table = shadowing_modulus(system, epsilon, trials, length, seed)
    assert [t for _, _, t in table] == [trials] * len(table)
    for delta, ok, _ in table:
        assert ok == ref_modulus_row(system, epsilon, trials, length, seed,
                                     delta)
    good = [d for d, ok, tr in table if ok / tr >= 0.95]
    assert delta_hat == (max(good) if good else 0.0)


def ref_shadowing_modulus(system, epsilon, trials, length, seed):
    """The former drawn search, one row at a time: each delta the sweep and
    the bisection visit runs as one batch of its own when visited."""
    x0, u = modulus_inputs(system, trials, length, seed)

    def good(delta):
        xs = _interval_orbits(system, np.array(x0), delta, u)
        s = _interval_track(system, xs, epsilon)
        alive = s[-1, 0] <= -s[-1, 1]
        reach = np.maximum(xs - s[:, 0], -s[:, 1] - xs).max(axis=0)
        table.append((delta, int(np.count_nonzero(alive & (reach < epsilon))),
                      trials))
        return table[-1][1] / trials >= 0.95

    delta, bad, table = epsilon, None, []
    for _ in range(14):
        if good(delta):
            break
        bad, delta = delta, delta / 2
    else:
        return 0.0, table
    lo, hi = delta, bad
    for _ in range(4 if bad is not None else 0):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if good(mid) else (lo, mid)
    return lo, sorted(table, key=lambda r: -r[0])


@settings(max_examples=40, deadline=None)
@given(map_=st.one_of(
           st.floats(1.0, 2.0, exclude_min=True, exclude_max=True).map(TentMap),
           st.sampled_from([PLMAP, FLAT])),
       exponent=st.floats(1.0, 40.0), trials=st.integers(1, 60),
       length=st.integers(2, 120), seed=st.integers(0, 2 ** 16))
@example(map_=TentMap(1.2), exponent=-math.log2(1e-3), trials=60,
         length=120, seed=1)
@example(map_=PLMAP, exponent=1.0, trials=7, length=50, seed=0)
@example(map_=TentMap(1.05), exponent=40.0, trials=1, length=2, seed=3)
def test_shadowing_modulus_matches_former_search(map_, exponent, trials,
                                                 length, seed):
    # drawn in passes, the table holds exactly the rows the row-by-row search
    # visits, in the same order, with the same counts and delta_hat
    epsilon = 2.0 ** -exponent
    assert shadowing_modulus(map_, epsilon, trials, length, seed) == (
        ref_shadowing_modulus(map_, epsilon, trials, length, seed))


@pytest.mark.parametrize("trials,length,seed", [(400, 60, 2), (100, 200, 1)])
def test_modulus_passes_draw_only_what_the_search_can_visit(
        monkeypatch, trials, length, seed):
    # from 400 trials up a pass is one row: every kernel call carries exactly
    # `trials` columns, one per visited row.  At 100 trials a sweep pass
    # draws 4 halvings and a bisection pass the 3 midpoints of two rounds,
    # so each visited midpoint was drawn in the pass before it
    import orbitweave.shadowing as sh_mod
    columns, orbits = [], sh_mod._interval_orbits
    monkeypatch.setattr(sh_mod, "_interval_orbits",
                        lambda *a: columns.append(len(a[1])) or orbits(*a))
    f, epsilon = TentMap(1.2), 1e-3
    delta_hat, table = shadowing_modulus(f, epsilon, trials, length, seed)
    assert (delta_hat, table) == ref_shadowing_modulus(f, epsilon, trials,
                                                       length, seed)
    assert len(table) > 4
    if trials == 400:
        assert columns == [trials] * len(table)
    else:
        assert columns == [400] * -(-(len(table) - 4) // 4) + [300, 300]


@pytest.mark.parametrize("epsilon", [3.0, 2.0, 1.0, 0.3, 1e-2, 1e-3, 1e-5,
                                     1e-7, 1e-9, 1e-12, 1e-14])
@pytest.mark.parametrize("map_", INTERVAL_MAPS)
def test_modulus_certificate_matches_rebuild(monkeypatch, map_, epsilon):
    # the modulus counts from the forward pass alone: every row equals the
    # full kernel's count, and the rebuild never runs
    import orbitweave.shadowing as sh_mod
    rebuilt = []

    def counting(map_, xs, epsilon):
        rebuilt.append(xs.shape[1])
        return _interval_shadow(map_, xs, epsilon)
    monkeypatch.setattr(sh_mod, "_interval_shadow", counting)
    trials, length = 40, 150
    for seed in range(3):
        rebuilt.clear()
        _, table = shadowing_modulus(map_, epsilon, trials, length, seed)
        x0, u = modulus_inputs(map_, trials, length, seed)
        for delta, successes, _ in table:
            xs = _interval_orbits(map_, np.array(x0), delta, u)
            ok = shadow_batch(map_, xs, epsilon)[0]
            assert successes == np.count_nonzero(ok), (seed, delta)
        assert rebuilt == [], seed


@settings(max_examples=40, deadline=None)
@given(map_=st.sampled_from(INTERVAL_MAPS),
       exponent=st.floats(min_value=-1.6, max_value=49.9),
       seed=st.integers(min_value=0, max_value=2 ** 16))
@example(map_=TentMap(2.0), exponent=-math.log2(1e-5), seed=0)
@example(map_=PLMAP, exponent=-math.log2(1e-9), seed=1)
@example(map_=TentMap(1.2), exponent=49.9, seed=2)
def test_certificate_of_live_trials_below_epsilon(map_, exponent, seed):
    # the 2^-50 margin outweighs the rounding of every window end, so every
    # trial whose S_t stay nonempty has max(fl(x_t - lo_t), fl(hi_t - x_t))
    # below eps, for every eps > 2^-50
    epsilon = 2.0 ** -exponent
    x0, u = batch_inputs(map_, 20, 100, seed)
    for delta in (epsilon, epsilon / 8):
        xs = _interval_orbits(map_, np.array(x0), delta, u)
        s = _interval_track(map_, xs, epsilon)
        alive = s[-1, 0] <= -s[-1, 1]
        x, (lo, neg_hi) = xs[:, alive], s[:, :, alive].transpose(1, 0, 2)
        assert (np.maximum(x - lo, -neg_hi - x) < epsilon).all(), delta


@pytest.mark.parametrize("map_", INTERVAL_MAPS)
def test_certificate_bounds_rebuilt_deviation(map_):
    # the rebuild keeps y_t in S_t = [lo_t, hi_t], so fl|y_t - x_t| is at
    # most the step's certificate max(fl(x_t - lo_t), fl(hi_t - x_t)), with
    # no rounding slack
    x0, u = batch_inputs(map_, 40, 150, 2)
    for epsilon in (0.3, 1e-2, 1e-5, 1e-9, 2.0 ** -20):
        checked = 0
        for delta in (epsilon, epsilon / 4, epsilon / 64):
            xs = _interval_orbits(map_, np.array(x0), delta, u)
            s = _interval_track(map_, xs, epsilon)
            alive = s[-1, 0] <= -s[-1, 1]
            ys = shadow_batch(map_, xs, epsilon)[1]
            x, (lo, neg_hi) = xs[:, alive], s[:, :, alive].transpose(1, 0, 2)
            bound = np.maximum(x - lo, -neg_hi - x)
            assert (np.abs(ys[:, alive] - x) <= bound).all(), (epsilon, delta)
            checked += np.count_nonzero(alive)
        assert checked >= 40, epsilon


@pytest.mark.parametrize("epsilon,shadowed", [
    (1e-2, [True, True, False, False]),
    (2.0 ** -20, [True, True, False, False])])
def test_modulus_fails_witness_on_window_edge(monkeypatch, epsilon, shadowed):
    # FLAT's flat piece pins trial 0's witness to the low end of S_0; at
    # eps = 2^-20 that is x_0 - (eps - 2^-50) exactly, inside the strict
    # bound, so the certificate counts it as the rebuild does.  Trials 2 and 3
    # die at t = 1 (the image passes above, then below the window) inside
    # windows that the certificate alone passes at eps = 1e-2; at t = 2
    # their S_t is (inf, -inf), with 0 * inf on the flat piece
    import orbitweave.shadowing as sh_mod
    xs = np.array([[0.45, 0.7, 0.45, 0.1],
                   [0.8, 0.85, 0.78, 0.9],
                   [0.9, 0.925, 0.5, 0.5]])
    monkeypatch.setattr(sh_mod, "_interval_orbits",  # xs for every row
                        lambda f, x0, delta, u: np.tile(xs, len(x0) // 4))
    _, table = shadowing_modulus(FLAT, epsilon, 4, len(xs), 0)
    ok, ys, _ = shadow_batch(FLAT, xs, epsilon)
    assert ok.tolist() == shadowed
    assert {successes for _, successes, _ in table} == {sum(shadowed)}
    if epsilon == 2.0 ** -20:
        assert ys[0, 0] == xs[0, 0] - (epsilon - 2.0 ** -50)


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift()])
def test_shift_kernel_matches_word_splice(shift):
    x0, u = batch_inputs(shift, 15, 70, 11)
    for delta in (0.3, 2.0 ** -5, 2.0 ** -9, 1e-12):
        heads = _shift_heads(shift, windows(x0), delta, u)
        deviation = _splice_deviations(shift, *splice(shift, windows(x0),
                                                      heads))
        for t in range(15):
            states = ref_shift_orbit(shift, x0[t], 70, delta,
                                     11 + 104729 * t + 1)
            assert [s.head for s in states[1:]] == [
                tuple(h) for h in heads[t].tolist()]
            point, per_step = ref_shadow_shift(shift, states)
            assert deviation[t].tolist() == per_step
            one = perturbed_orbit(shift, x0[t], 70, delta,
                                  seed=11 + 104729 * t + 1)
            assert one.states == tuple(states)
            res = shadow_shift(shift, one)
            assert res.point == point and res.per_step == per_step


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift()])
def test_shadow_shift_matches_word_splice_on_any_states(shift):
    # true orbits (states with empty heads) and hand-made pseudo-orbits
    x = word_state(shift, (0, 1, 0, 0, 1, 0))
    cases = [orbit(shift, x, 12), orbit(shift, Word.periodic((0,)), 5),
             [x, word_state(shift, (0, 0, 1)), word_state(shift, (0, 1, 0))]]
    for states in cases:
        point, per_step = ref_shadow_shift(shift, states)
        res = shadow_shift(shift, PseudoOrbit(tuple(states), 1.0))
        assert res.point == point and res.per_step == per_step


def test_inadmissible_splice_raises_on_both_paths():
    gm = golden_mean_shift()
    states = (Word((1,), (0,)), Word((1, 0), (0,)))
    with pytest.raises(ValueError):
        ref_shadow_shift(gm, states)
    with pytest.raises(ValueError, match="inadmissible"):
        shadow_shift(gm, PseudoOrbit(states, 1.0))
    z = np.array(Word((1, 1, 0), (0,)).prefix(70))
    with pytest.raises(ValueError, match="inadmissible"):
        _splice_deviations(gm, windows(states)[None], z[None])
    with pytest.raises(ValueError, match="inadmissible"):
        ref_splice_deviations(gm, lambda j: windows(states)[None, :, j], z[None])


def ref_word_admissible(shift, w):
    """The former tuple loop: every symbol in the alphabet and every
    transition allowed."""
    return all(0 <= a < shift.alphabet_size for a in w) and all(
        shift.allowed(a, b) for a, b in zip(w, w[1:]))


@pytest.mark.parametrize("forbidden", [(11, 11), (2, 7)])
def test_admissible_on_twelve_symbols(forbidden):
    # 11 * 12 + 11 = 143 wraps to -113 in int8, which reads (2, 7): each
    # shift forbids one of the two transitions and allows the other
    t = [[int((a, b) != forbidden) for b in range(12)] for a in range(12)]
    shift = ShiftSpace(12, t)
    assert shift.word_admissible(np.array([3, 11, 11], np.int8)) is \
        (forbidden != (11, 11))
    assert shift.word_admissible(np.array([2, 7, 0], np.int8)) is \
        (forbidden != (2, 7))
    assert not shift.word_admissible(np.array([0, 12], np.int8))
    assert not shift.word_admissible(np.array([-1, 0], np.int8))
    rng = np.random.default_rng(12)
    seqs = rng.integers(0, 12, (400, 6)).astype(np.int8)
    seqs[::7, 2:4] = forbidden
    seqs[5::11, 4] = rng.choice([-1, 12], len(seqs[5::11]))
    for seq in seqs:
        ref = ref_word_admissible(shift, seq.tolist())
        assert shift.word_admissible(seq) == ref
        assert shift.word_admissible(tuple(seq.tolist())) == ref
    assert shift.word_admissible(seqs) == all(
        ref_word_admissible(shift, w) for w in seqs.tolist())
    assert shift.word_admissible(seqs[1:5])
    assert shift.word_admissible(seqs[1:5].reshape(2, 2, 6))
    assert not shift.word_admissible(seqs[:14].reshape(2, 7, 6))
    assert shift.word_admissible(()) and shift.word_admissible((11,))


THREE = ShiftSpace(3, ((0, 0, 1), (1, 1, 0), (1, 1, 1)))  # 1, 2, 3 successors


def ref_splice_deviations(shift, column, z):
    """The former column loop: 2^-j per state, j the first mismatch of
    z[i:] with state i, whose depth-j symbols are column(j)."""
    seq = np.asarray(z)
    allowed = np.array(shift.transition, dtype=bool)
    if (seq.min() < 0 or seq.max() >= shift.alphabet_size
            or not allowed[seq[..., :-1], seq[..., 1:]].all()):
        raise ValueError("spliced point inadmissible")
    first = np.full(column(0).shape, AUDIT_DEPTH, dtype=np.int8)
    n = first.shape[-1]
    for j in range(AUDIT_DEPTH - 1, -1, -1):  # a smaller j overwrites
        first[z[..., j:j + n] != column(j)] = j
    return np.where(first < AUDIT_DEPTH, 2.0 ** -first, 0.0)


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift(), THREE])
def test_splice_deviations_match_column_loop(shift):
    x0, u = batch_inputs(shift, 40, 90, 17)
    start = windows(x0)
    rng = np.random.default_rng(5)
    for delta in (0.5, 2.0 ** -3, 2.0 ** -7, 2.0 ** -20, 2.0 ** -60):
        width = max(AUDIT_DEPTH, math.ceil(-math.log2(delta)) + 1)
        heads = _shift_heads(shift, windows(x0, width), delta, u)
        wins, z = splice(shift, start, heads)
        got = _splice_deviations(shift, wins, z)
        assert got.tolist() == ref_splice_deviations(
            shift, lambda j: wins[..., j], z).tolist()
        # states that disagree with the splice at random depths
        bent = wins.copy()
        rows, cols = rng.integers(40, size=300), rng.integers(90, size=300)
        bent[rows, cols, rng.integers(AUDIT_DEPTH, size=300)] += 1
        assert _splice_deviations(shift, bent, z).tolist() == \
            ref_splice_deviations(shift, lambda j: bent[..., j], z).tolist()
        for chunk in (1, 7):  # a batch of trials is the sum of its parts
            assert np.array_equal(got[:chunk], _splice_deviations(
                shift, *splice(shift, start[:chunk], heads[:chunk])))
    z[3, 10:12] = -1
    for check in (_splice_deviations,
                  lambda sh, w, z: ref_splice_deviations(sh, lambda j: w[..., j], z)):
        with pytest.raises(ValueError, match="inadmissible"):
            check(shift, wins, z)


def drawn_row(system, epsilon, trials, length, seed):
    """Successes of the modulus row at delta = epsilon, drawn with the batch
    kernels: the shift splice or the interval rebuild of every trial."""
    x0, u = batch_inputs(system, trials, length, seed)
    if isinstance(system, ShiftSpace):
        start = windows(x0, max(AUDIT_DEPTH, math.ceil(-math.log2(epsilon)) + 1))
        heads = _shift_heads(system, start, epsilon, u)
        deviation = _splice_deviations(system, *splice(system, start, heads))
        return int(np.count_nonzero(deviation.max(axis=-1) < epsilon))
    xs = _interval_orbits(system, np.array(x0), epsilon, u)
    return int(np.count_nonzero(shadow_batch(system, xs, epsilon)[0]))


# name -> (system, least and largest certified epsilon tested)
CERTIFIED = {name: (system, math.nextafter(2.0 ** -30, 1.0),
                    math.nextafter(1.0, 0.0))
             for name, system in (("full", full_shift(2)),
                                  ("golden", golden_mean_shift()),
                                  ("three", THREE))}
CERTIFIED["tent2"] = (TentMap(2.0), 2.0 ** -48, 3.0)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CERTIFIED)), share=st.floats(0.0, 1.0),
       trials=st.integers(1, 4), length=st.integers(2, 300),
       seed=st.integers(0, 2 ** 16))
@example(name="tent2", share=0.0, trials=3, length=300, seed=0)
@example(name="tent2", share=1.0, trials=3, length=300, seed=1)
@example(name="three", share=1.0, trials=3, length=300, seed=2)
@example(name="golden", share=0.0, trials=3, length=300, seed=3)
def test_certified_rows_match_drawn_trials(name, share, trials, length, seed):
    # the certified table is one full row, and the Monte Carlo it replaces
    # shadows every drawn trial: shifts at eps in (2^-30, 1), the slope-2
    # tent at eps in [2^-48, 3]; share 0 and 1 are the ends
    system, least, largest = CERTIFIED[name]
    epsilon = min(max(least * (largest / least) ** share, least), largest)
    assert shadowing_modulus(system, epsilon, trials, length, seed) == (
        epsilon, [(epsilon, trials, trials)])
    assert drawn_row(system, epsilon, trials, length, seed) == trials


def test_tent_below_certified_floor_draws(monkeypatch):
    # at 2^-48 the slope-2 tent draws nothing; one ulp below it draws its
    # rows again (in passes that may draw rows the search never visits),
    # and they match the per-trial reference
    import orbitweave.shadowing as sh_mod
    drawn, orbits = [], sh_mod._interval_orbits
    monkeypatch.setattr(sh_mod, "_interval_orbits",
                        lambda *a: drawn.extend(a[2].tolist()) or orbits(*a))
    f, trials, length, seed, floor = TentMap(2.0), 6, 150, 5, 2.0 ** -48
    assert shadowing_modulus(f, floor, trials, length, seed) == (
        floor, [(floor, trials, trials)])
    assert drawn == []
    epsilon = math.nextafter(floor, 0.0)
    delta_hat, table = shadowing_modulus(f, epsilon, trials, length, seed)
    assert table and {d for d, _, _ in table} <= set(drawn)
    for delta, ok, _ in table:
        assert ok == ref_modulus_row(f, epsilon, trials, length, seed, delta)
    assert delta_hat == epsilon


def ref_steering_word(shift, a, b):
    """Brute force: the shortest words (a, ...) of length <= k first, each
    length in lexicographic order; the first admissible one whose last
    symbol may step into b, or None."""
    k = shift.alphabet_size
    for rest in itertools.chain.from_iterable(
            itertools.product(range(k), repeat=s) for s in range(k)):
        word = (a,) + rest
        if ref_word_admissible(shift, word) and shift.allowed(word[-1], b):
            return word
    return None


def test_steering_word_matches_brute_force():
    from orbitweave.weaving import connector
    rng = np.random.default_rng(12)
    matrices = [rng.random((k, k)) < rng.uniform(0.2, 0.6)
                for k in rng.integers(2, 6, size=200)]
    cycle = np.roll(np.eye(5, dtype=bool), 1, axis=1)  # i -> i + 1 mod 5
    chord = cycle.copy()
    chord[3, 1] = True
    irreducible, longest = 0, 0
    for allowed in matrices + [cycle, chord]:
        k = len(allowed)
        shift = ShiftSpace(k, tuple(map(tuple, allowed.astype(int).tolist())))
        for a, b in itertools.product(range(k), repeat=2):
            ref = ref_steering_word(shift, a, b)
            if ref is None:
                with pytest.raises(ValueError, match="no admissible word"):
                    steering_word(shift, a, b)
            else:
                assert steering_word(shift, a, b) == ref
                longest = max(longest, len(ref))
            if shift.is_irreducible():
                assert connector(shift, a, b) == (len(ref), ref)
        if shift.is_irreducible():
            irreducible += 1
            for a in range(k):
                assert canonical_cycle(shift, a) == connector(shift, a, a)[1]
    assert irreducible >= 40 and longest == 5


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift(), THREE])
def test_continue_words_matches_word_state(shift):
    words = ref_shift_starts(shift, np.random.default_rng(4).random((30, 6)))
    assert set(words[:, -1].tolist()) == set(range(shift.alphabet_size))
    for width in (1, 5, 6, 7, 70):  # below, at and past the word length
        got = continue_words(shift, words, width)
        assert got.dtype == np.int8 and got.shape == (30, width)
        for row, word in zip(got.tolist(), words.tolist()):
            assert tuple(row) == word_state(shift, word).prefix(width)
        # leading axes are batch axes
        assert np.array_equal(
            continue_words(shift, words.reshape(5, 6, 6), width),
            got.reshape(5, 6, width))


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift(), THREE])
def test_symbol_continuation_is_the_cached_continue_words(shift):
    for a in range(shift.alphabet_size):
        for width in (1, 63, 70):
            got = symbol_continuation(shift, a, width)
            assert got is symbol_continuation(shift, a, width)
            assert not got.flags.writeable
            assert np.array_equal(got, continue_words(
                shift, np.array([[a]], np.int8), width))


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift(), THREE])
def test_successor_table_is_cached_read_only(shift):
    table, count = _successor_table(shift)
    again = _successor_table(shift)
    assert again[0] is table and again[1] is count
    assert not table.flags.writeable and not count.flags.writeable


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift(), THREE])
def test_shift_starts_match_random_start(shift):
    # _random_start's word is the one-symbol-at-a-time draw from its
    # generator's START_LENGTH uniforms, and the former start loop's row
    k = shift.alphabet_size
    succ = [[b for b in range(k) if shift.allowed(a, b)] for a in range(k)]
    seeds = [3 + 7919 * t for t in range(25)]
    u = np.array([make_rng(s).random(START_LENGTH) for s in seeds])
    for row, s, v in zip(ref_shift_starts(shift, u), seeds, u):
        x = _random_start(shift, make_rng(s))
        assert shift.admissible(x, depth=100)
        head = [min(int(v[0] * k), k - 1)]  # one symbol at a time
        for w in v[1:]:
            choices = succ[head[-1]]
            head.append(choices[min(int(w * len(choices)), len(choices) - 1)])
        assert row.tolist() == list(x.head) == head
    top = _random_start(shift, _LargestUniform(1.0)).head
    last = {a: max(b for b in range(shift.alphabet_size) if shift.allowed(a, b))
            for a in range(shift.alphabet_size)}
    assert len(top) == START_LENGTH and top[0] == shift.alphabet_size - 1
    assert all(b == last[a] for a, b in zip(top, top[1:]))


@pytest.mark.parametrize("shift", [golden_mean_shift(), THREE])
def test_successor_draw_admissible_and_uniform(shift):
    trials, n, m = 40, 500, 3
    x0, u = batch_inputs(shift, trials, n, 21)
    heads = _shift_heads(shift, windows(x0), 2.0 ** -m, u)
    allowed = np.array(shift.transition, dtype=bool)
    assert allowed[heads[..., :-1], heads[..., 1:]].all()
    # resampled positions m (the spine) and m + 1 .. m + 7 (the tail)
    for j in range(m, m + 8):
        prev, nxt = heads[..., j - 1].ravel(), heads[..., j].ravel()
        for a in range(shift.alphabet_size):
            succ = np.flatnonzero(allowed[a])
            got = nxt[prev == a]
            if len(succ) < 2 or len(got) < 100:
                continue
            p = 1.0 / len(succ)
            se = math.sqrt(len(got) * p * (1 - p))
            for b in succ:
                assert abs(np.count_nonzero(got == b) - len(got) * p) <= 5 * se


class _LargestUniform:
    def __init__(self, value):
        self.value = value

    def random(self, shape, out=None):
        if out is None:
            return np.full(shape, self.value)
        out[...] = self.value


@pytest.mark.parametrize("value", [np.nextafter(1.0, 0.0), 1.0])
def test_successor_draw_clamps_to_last_successor(monkeypatch, value):
    # u = 1.0 rounds up to the successor count: the padded table still picks
    # the last allowed successor
    import orbitweave.shadowing as sh_mod
    monkeypatch.setattr(sh_mod, "make_rng", lambda seed: _LargestUniform(value))
    x0 = word_state(THREE, (0, 2, 1, 0, 2))
    po = perturbed_orbit(THREE, x0, 30, 2.0 ** -3, seed=0)
    last = {a: max(b for b in range(3) if THREE.allowed(a, b)) for a in range(3)}
    for s in po.states[1:]:
        tail = s.head[2:]
        assert all(b == last[a] for a, b in zip(tail, tail[1:]))
    validate_pseudo(THREE, po.states, 2.0 ** -3)


def ref_shift_heads(shift, start, delta, u):
    """The former spine and tail loops of _shift_heads: the first successor
    of every step precomputed for every current symbol, one spine column
    at a time, then the 7 tail columns."""
    m = int(math.ceil(-math.log2(delta)))
    table, count = _successor_table(shift)
    trials, steps = u.shape[:2]
    spine = np.empty((trials, m + 1 + steps), dtype=np.int8)
    spine[:, :m + 1] = start[:, :m + 1]
    nxt = table[np.arange(len(count)), (u[..., :1] * count).astype(np.intp)]
    rows = np.arange(trials)
    for i in range(steps):
        spine[:, m + 1 + i] = nxt[rows, i, spine[:, m + i]]
    heads = np.empty((trials, steps, m + 8), dtype=np.int8)
    heads[..., :m + 1] = np.lib.stride_tricks.sliding_window_view(
        spine, m + 1, axis=1)[:, 1:]
    for j in range(m + 1, m + 8):
        a = heads[..., j - 1]
        heads[..., j] = table[a, (u[..., j - m] * count[a]).astype(np.intp)]
    return heads


def ref_shift_starts(shift, u):
    """The former start loop: floor(u * k), then one successor a column."""
    table, count = _successor_table(shift)
    out = np.empty(u.shape, dtype=np.int8)
    out[:, 0] = np.minimum(u[:, 0] * len(count), len(count) - 1)
    for j in range(1, u.shape[1]):
        a = out[:, j - 1]
        out[:, j] = table[a, (u[:, j] * count[a]).astype(np.intp)]
    return out


@pytest.mark.parametrize("shift", [full_shift(2), golden_mean_shift(), THREE])
def test_successor_chain_matches_the_former_loops(shift):
    # one chain serves the starts, the spine and the tails, symbol for symbol
    x0, u = batch_inputs(shift, 12, 60, 31)
    top = np.ones_like(u)  # u = 1 reads the last successor
    for uniforms in (u, top, np.nextafter(top, 0.0)):
        for delta in (0.5, 2.0 ** -5, 2.0 ** -40):
            start = windows(x0, max(AUDIT_DEPTH, -int(math.log2(delta)) + 1))
            got = _shift_heads(shift, start, delta, uniforms)
            assert got.dtype == np.int8
            assert np.array_equal(got, ref_shift_heads(shift, start, delta,
                                                       uniforms))
        flat = uniforms.reshape(len(uniforms), -1)
        k = shift.alphabet_size
        assert np.array_equal(_successor_chain(
            shift, np.minimum(flat[:, 0] * k, k - 1), flat[:, 1:]),
            ref_shift_starts(shift, flat))


def ref_successor_chain(shift, first, u):
    """The former column loop of _successor_chain: one fancy-index step per
    symbol, every trial at once."""
    table, count = _successor_table(shift)
    out = np.empty(np.shape(first) + (1 + u.shape[-1],), dtype=np.int8)
    out[..., 0] = first
    for j in range(u.shape[-1]):
        a = out[..., j]
        out[..., j + 1] = table[a, (u[..., j] * count[a]).astype(np.intp)]
    return out


@pytest.mark.parametrize("shift", [full_shift(2), full_shift(3),
                                   golden_mean_shift(), THREE])
def test_successor_scan_matches_column_loop(shift):
    # the doubling scan equals the column loop on any batch shape, zero
    # steps, one step and powers of two (the scan's round edges) included
    rng = np.random.default_rng(50)
    k = shift.alphabet_size
    shapes = [(0,), (1,), (2,), (3,), (4,), (5,), (8,), (9,), (199,),
              (1, 0), (3, 0), (0, 6), (1, 31), (1, 199), (199, 7), (4, 2, 17),
              (2, 3, 1, 64)]
    shapes += [tuple(rng.integers(0, 6, size=rng.integers(1, 4)).tolist())
               + (int(rng.integers(0, 70)),) for _ in range(30)]
    for shape in shapes:
        first = rng.integers(0, k, shape[:-1]).astype(np.int8)
        for u in (rng.random(shape), np.ones(shape), np.full(shape, 0.5)):
            got = _successor_chain(shift, first, u)
            assert got.dtype == np.int8 and got.shape == shape[:-1] + (
                1 + shape[-1],)
            assert np.array_equal(got, ref_successor_chain(shift, first, u))
    # a float first symbol is truncated, as the start draws floor(u * k)
    u = rng.random((5, 9))
    assert np.array_equal(_successor_chain(shift, np.full(5, k - 0.5), u),
                          ref_successor_chain(shift, np.full(5, k - 1), u))


@st.composite
def shift_spaces(draw):
    """The full 2- and 3-shifts, the golden mean, THREE, or a random
    irreducible SFT on 2-4 symbols (a cycle through every symbol plus
    random edges)."""
    named = [full_shift(2), full_shift(3), golden_mean_shift(), THREE]
    pick = draw(st.integers(0, len(named)))
    if pick < len(named):
        return named[pick]
    k = draw(st.integers(2, 4))
    edges = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    return ShiftSpace(k, [[int(edges[a * k + b] or b == (a + 1) % k)
                           for b in range(k)] for a in range(k)])


DELTAS = [0.3, 0.07, 1e-12] + [2.0 ** -e for e in range(1, 14)]


@settings(max_examples=40, deadline=None)
@given(shift=shift_spaces(), n=st.integers(2, 260),
       delta=st.sampled_from(DELTAS), seed=st.integers(0, 2 ** 32))
@example(shift=THREE, n=2, delta=2.0 ** -13, seed=0)
@example(shift=golden_mean_shift(), n=260, delta=1e-12, seed=1)
@example(shift=THREE, n=40, delta=2.0 ** -60, seed=2)  # heads past 64
def test_int8_windows_match_word_oracle(shift, n, delta, seed):
    # the windows perturbed_orbit writes and shadow_shift reads give the
    # per-state Word orbit and the per-position splice, Word for Word; a
    # head longer than AUDIT_DEPTH widens the windows
    x0 = _random_start(shift, make_rng(seed))
    po = perturbed_orbit(shift, x0, n, delta, seed=seed + 1)
    assert po.windows.dtype == np.int8
    assert po.windows.shape == (n, max(AUDIT_DEPTH, po.head))
    res = shadow_shift(shift, po)
    states = ref_shift_orbit(shift, x0, n, delta, seed + 1)
    point, per_step = ref_shadow_shift(shift, states)
    assert res.point == point and res.per_step == per_step
    assert res.max_deviation == max(per_step)
    assert po.states == tuple(states)
    assert po.windows.tolist() == windows(states, po.windows.shape[1]).tolist()


def test_shift_pair_builds_one_word(monkeypatch):
    # perturbed_orbit writes windows, not Words, and shadow_shift builds the
    # last state's Word alone; reading states builds the rest
    import orbitweave.shadowing as sh_mod
    gm = golden_mean_shift()
    x0 = _random_start(gm, make_rng(3))
    calls, build = [], sh_mod.word_state
    monkeypatch.setattr(sh_mod, "word_state",
                        lambda *a: calls.append(a) or build(*a))
    po = perturbed_orbit(gm, x0, 200, 2.0 ** -8, seed=4)
    res = shadow_shift(gm, po)
    assert len(calls) <= 1
    assert res.max_deviation <= 2.0 ** -9 and gm.admissible(res.point, 250)
    assert len(po.states) == 200 and len(calls) == 200


def test_largest_symbols_survive_int8():
    # 128 symbols fit int8: symbol 127 comes back intact from the start,
    # the kicks, the splice and a Markov draw; 129 symbols are refused
    shift = full_shift(128)
    x0 = _random_start(shift, _LargestUniform(1.0))
    assert set(x0.head) == {127}
    po = perturbed_orbit(shift, x0, 40, 2.0 ** -3, seed=5)
    assert po.windows.max() == 127 and po.windows.min() >= 0
    res = shadow_shift(shift, po)
    assert 127 in res.point.head and res.max_deviation <= 2.0 ** -4
    assert po.states[1:] == tuple(ref_shift_orbit(shift, x0, 40, 2.0 ** -3,
                                                  5)[1:])
    validate_pseudo(shift, po.states, 2.0 ** -3)
    uniform = MarkovMeasure(np.full((128, 128), 1 / 128), np.full(128, 1 / 128))
    words = uniform.sample_words(4, 300, _LargestUniform(1.0))
    assert words.dtype == np.int8 and np.all(words == 127)
    wide = full_shift(129)
    with pytest.raises(ValueError, match="at most 128 symbols; got 129"):
        _random_start(wide, make_rng(0))
    with pytest.raises(ValueError, match="at most 128 symbols; got 129"):
        perturbed_orbit(wide, Word((128,), (0,)), 10, 0.25, seed=0)
    with pytest.raises(ValueError, match="at most 128 symbols; got 129"):
        MarkovMeasure(np.full((129, 129), 1 / 129)).sample_words(
            2, 5, make_rng(0))
    # the true orbit stays Words: no symbol becomes int8
    assert perturbed_orbit(wide, Word((128,), (0,)), 3, 0.0, seed=0).states[
        0].head == (128,)


@pytest.mark.parametrize("system", [TentMap(1.2), PLMAP])
def test_broken_kernel_input_raises(monkeypatch, system):
    # a shape error inside a row must surface, not read as 0 successes (the
    # slope-2 tent and the shifts draw no rows at epsilon = 1e-3)
    import orbitweave.shadowing as sh_mod

    class StrayAxis:  # kicks with a stray trailing axis
        def __init__(self, seed):
            self.rng = make_rng(seed)
            self.uniform = self.rng.uniform

        def random(self, shape):
            return self.rng.random(shape)[..., None]
    monkeypatch.setattr(sh_mod, "make_rng", StrayAxis)
    with pytest.raises(ValueError, match="broadcast"):
        shadowing_modulus(system, 1e-3, trials=5, length=20, seed=1)


@pytest.mark.parametrize("kwargs", [
    dict(epsilon=0.0), dict(epsilon=-1e-3), dict(epsilon=math.inf),
    dict(epsilon=math.nan), dict(trials=0), dict(length=1),
    dict(epsilon=2.0 ** -50), dict(epsilon=1e-16)])
def test_shadowing_modulus_rejects_bad_inputs(kwargs):
    args = dict(epsilon=1e-3, trials=5, length=20, seed=1) | kwargs
    with pytest.raises(ValueError):
        shadowing_modulus(TentMap(2.0), **args)


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, 2.0 ** -50, 1e-16, math.nan])
def test_shadow_interval_rejects_epsilon_floor(epsilon):
    # the window radius eps - 2^-50 must be positive
    po = perturbed_orbit(TentMap(2.0), 0.37, 10, 0.0, seed=0)
    with pytest.raises(ValueError, match="epsilon must be > 2"):
        shadow_interval(TentMap(2.0), po, epsilon)
