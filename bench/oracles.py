"""Independent checks of orbitweave's outputs.

Nothing in this module imports orbitweave.  Every expected value comes from
a closed form, exact rational arithmetic, or plain numpy written from the
definitions, and only the artifacts the program wrote (or the plain data it
returned) are read.  A check raises CheckError when an output is wrong and
OpFailed when the program reported that it could not do the operation; it
returns a small dict of work counts on success.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np


class CheckError(AssertionError):
    """An output disagrees with its independent reference."""


class OpFailed(RuntimeError):
    """The program reported that the operation failed."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------- systems

def transition_matrix(system: dict) -> np.ndarray:
    if system["kind"] == "full_shift":
        k = int(system["k"])
        return np.ones((k, k), dtype=int)
    if system["kind"] == "sft":
        return np.array(system["transition"], dtype=int)
    raise ValueError(f"not a shift: {system}")


def cylinders(k: int, count: int) -> list[tuple[int, ...]]:
    """The first `count` cylinder words ordered by (length, lexicographic)."""
    out = []
    for length in itertools.count(1):
        for w in itertools.product(range(k), repeat=length):
            out.append(w)
            if len(out) == count:
                return out


# --------------------------------------------------------------- measures

def _stationary(P: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(P.T)
    v = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    return v / v.sum()


def markov_components(doc: dict) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """A measure document as (weight, pi, P) Markov components."""
    if "mixture" in doc:
        return [(float(w) * cw, pi, P)
                for w, sub in doc["mixture"]
                for cw, pi, P in markov_components(sub)]
    if "bernoulli" in doc:
        p = doc["bernoulli"]
        probs = (np.array([1.0 - p, p]) if np.isscalar(p)
                 else np.array(p, dtype=float))
        return [(1.0, probs, np.tile(probs, (len(probs), 1)))]
    P = np.array(doc["P"], dtype=float)
    pi = np.array(doc["pi"], dtype=float) if "pi" in doc else _stationary(P)
    return [(1.0, pi, P)]


def cylinder_mass(components, word) -> float:
    total = 0.0
    for w, pi, P in components:
        m = pi[word[0]]
        for a, b in zip(word, word[1:]):
            m *= P[a, b]
        total += w * m
    return float(total)


def binary_entropy(x: float) -> float:
    return -sum(t * math.log(t) for t in (x, 1.0 - x) if t > 0)


# ------------------------------------------------------------ file parsing

def read_csv(path: str) -> tuple[str, list[str], list[list[str]]]:
    with open(path) as f:
        lines = f.read().splitlines()
    require(lines and lines[0].startswith("# "), f"{path}: no comment line")
    return lines[0][2:], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def header_field(comment: str, key: str) -> str:
    for part in comment.split():
        if part.startswith(key + "="):
            return part[len(key) + 1:]
    raise CheckError(f"header lacks {key}: {comment!r}")


def decode_rle(text: str) -> np.ndarray:
    runs = [tok.split("x") for tok in text.split()]
    return np.repeat(np.array([int(s) for s, _ in runs], dtype=np.int64),
                     [int(c) for _, c in runs])


def artifacts(outdir: str) -> list[str]:
    return sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []


# ---------------------------------------------------- empirical distances

def distance_rows(symbols: np.ndarray, ns, components, k: int,
                  family_n: int = 16):
    """Weak* distance D(n) between the n-window empirical measure of the
    symbols and the target, sum_i |freq_i - mass_i| / 2^(i+1) over the first
    family_n cylinders (i from 1).  Returns (lo, hi) per n: equal for every n
    whose windows lie inside the symbols, a bracket when the last windows
    overrun the end, since those hits are unknown."""
    L = len(symbols)
    ns = np.asarray(ns, dtype=np.int64)
    lo, hi = np.zeros(len(ns)), np.zeros(len(ns))
    for i, w in enumerate(cylinders(k, family_n), start=1):
        d, m = len(w), cylinder_mass(components, w)
        hit = np.ones(L - d + 1, dtype=bool)
        for off, s in enumerate(w):
            hit &= symbols[off:L - d + 1 + off] == s
        cum = np.concatenate([[0], np.cumsum(hit)])
        # windows starting at t > L - d see only symbols[t:]
        maybe = [t for t in range(max(L - d + 1, 0), L)
                 if tuple(symbols[t:]) == w[:L - t]]
        known = cum[np.minimum(ns, L - d + 1)] / ns
        a = known - m
        b = known + np.searchsorted(maybe, ns) / ns - m
        lo += np.where((a <= 0) & (b >= 0), 0.0,
                       np.minimum(abs(a), abs(b))) / 2.0 ** (i + 1)
        hi += np.maximum(abs(a), abs(b)) / 2.0 ** (i + 1)
    return list(zip(lo.tolist(), hi.tolist()))


def check_convergence(symbols, rows, components, k, tol=1e-12):
    """Every (n, D) row against the recomputed distance: exact where the
    windows fit, inside the overrun bracket at the end."""
    require(rows, "empty convergence table")
    require(rows[-1][0] == len(symbols), "last row is not at the full length")
    require(all(a < b for (a, _), (b, _) in zip(rows, rows[1:])),
            "convergence n grid not increasing")
    got = distance_rows(symbols, [n for n, _ in rows], components, k)
    for (n, D), (lo, hi) in zip(rows, got):
        require(lo - tol <= D <= hi + tol,
                f"D({n}) = {D!r} outside recomputed [{lo!r}, {hi!r}]")
    max_depth = len(cylinders(k, 16)[-1])
    lo, hi = got[-1]
    require(hi - lo <= (max_depth - 1) / len(symbols) + tol,
            "final distance bracket wider than (max_depth - 1)/L")
    return rows[-1][1]


# ------------------------------------------------------------------ weave

def check_schedule(doc: dict):
    N, X, Y, T = doc["N"], doc["X"], doc["Y"], doc["T"]
    require(len(N) == len(X) == len(Y) == len(T) == doc["k_max"],
            "schedule levels disagree")
    require(all(y == n + x for n, x, y in zip(N, X, Y)), "Y != N + X")
    require(all(a < b for a, b in zip(T, T[1:])), "T not strictly increasing")
    require(all(n * k >= (k - 1) * y
                for k, (n, y) in enumerate(zip(N, Y), start=1)),
            "N_k k < (k - 1) Y_k")


def check_weave(config: dict, outdir: str, code: int, stderr: str) -> dict:
    require("Traceback" not in stderr, "traceback on stderr")
    if code not in (0, 1):
        raise OpFailed(f"weave exited {code}: {stderr.strip()}")
    with open(os.path.join(outdir, "schedule.json")) as f:
        sched = json.load(f)
    check_schedule(sched)
    with open(os.path.join(outdir, "woven.txt")) as f:
        symbols = decode_rle(f.read())
    L = len(symbols)
    require(L == sched["total_length"], "woven length != total_length")
    require(L >= int(config.get("min_total_length", 0)),
            "woven shorter than min_total_length")
    A = transition_matrix(config["system"])
    require(bool(np.all((symbols >= 0) & (symbols < len(A)))),
            "symbol outside the alphabet")
    require(bool(np.all(A[symbols[:-1], symbols[1:]] == 1)),
            "woven sequence uses a forbidden transition")
    _, _, raw = read_csv(os.path.join(outdir, "convergence.csv"))
    rows = [(int(n), float(d)) for n, d in raw]
    D = check_convergence(symbols, rows, markov_components(config["target"]),
                          len(A))
    require(not sched["truncated"], "schedule truncated")
    bound = float(config.get("bound", 0.05))
    require(code == (0 if D <= bound else 1),
            f"exit {code} but D = {D} against bound {bound}")
    return {"L": L, "levels": sched["k_max"], "exit": code}


def check_no_artifact(config: dict, outdir: str, code, stderr: str) -> dict:
    """A weave the program cannot do: a documented nonzero exit code, no
    traceback, nothing written."""
    require(code in (1, 2, 3, 4, 5), f"exit code {code} is not a documented failure")
    require("Traceback" not in stderr, "traceback on stderr")
    require(not artifacts(outdir), f"artifacts left behind: {artifacts(outdir)}")
    return {"exit": code}


# ----------------------------------------------------------------- shadow

def check_shadow(config: dict, outdir: str, code: int, stderr: str,
                 exact: bool) -> dict:
    """Modulus tables.  exact: the method guarantees success at delta =
    epsilon (symbolic splice on shifts; backward branch inversion on the
    slope-2 tent), so delta_hat = epsilon and every trial succeeds."""
    if code != 0:
        raise OpFailed(f"shadow exited {code}: {stderr.strip()}")
    comment, cols, raw = read_csv(os.path.join(outdir, "modulus.csv"))
    require(cols == ["delta", "successes", "trials"], f"columns {cols}")
    eps, trials = float(config["epsilon"]), int(config["trials"])
    rows = [(float(d), int(s), int(t)) for d, s, t in raw]
    delta_hat = float(header_field(comment, "delta_hat"))
    require(rows and all(t == trials for _, _, t in rows), "trial counts")
    require(all(0 <= s <= t for _, s, t in rows), "successes out of range")
    require(all(a[0] > b[0] for a, b in zip(rows, rows[1:])),
            "deltas not strictly decreasing")
    if exact:
        require(delta_hat == eps, f"delta_hat {delta_hat} != epsilon {eps}")
        require(all(s == t for _, s, t in rows), "a guaranteed trial failed")
    else:
        require(0 < delta_hat <= eps, f"delta_hat {delta_hat} not in (0, eps]")
        at = [s for d, s, _ in rows if d == delta_hat]
        require(at and at[0] >= 0.95 * trials,
                f"row at delta_hat has {at} successes")
    return {"rows": len(rows), "trials": len(rows) * trials}


# --------------------------------------------------------------- spectrum

def check_spectrum(config: dict, outdir: str, code: int, stderr: str) -> dict:
    """Frequency of symbol 1 on the full 2-shift or the golden-mean shift:
    h_var in closed form, h_count from binomial counts."""
    if code != 0:
        raise OpFailed(f"spectrum exited {code}: {stderr.strip()}")
    _, cols, raw = read_csv(os.path.join(outdir, "spectrum.csv"))
    require(cols == ["alpha", "h_var", "h_count", "n_count", "gap", "flag"],
            f"columns {cols}")
    golden = config["system"]["kind"] == "sft"
    n = int(config["count_n"])
    grid = [float(a) for a in config["alpha_grid"]]
    rows = [r for r in raw if r[5] == ""]
    sup = [r for r in raw if r[5] == "sup"]
    require(len(rows) == len(grid) and len(sup) == 1 and raw[-1] is sup[0],
            "row layout")
    for (a, hv, hc, nc, gap, _), alpha in zip(rows, grid):
        a, hv, hc = float(a), float(hv), float(hc)
        require(a == alpha, f"alpha {a} != {alpha}")
        if golden:
            ref = (1 - a) * binary_entropy(a / (1 - a))
        else:
            ref = binary_entropy(a)
        require(abs(hv - ref) <= 1e-6, f"h_var({a}) = {hv}, expected {ref}")
        j = math.floor(a * n + 0.5)
        count = math.comb(n + 1 - j, j) if golden else math.comb(n, j)
        require(abs(hc - math.log(count) / n) <= 1e-12,
                f"h_count({a}) = {hc}, expected log({count})/{n}")
        require(int(nc) == n, "n_count")
        require(abs(float(gap) - (hc - hv)) <= 1e-9, "gap != h_count - h_var")
    best = max(rows, key=lambda r: float(r[1]))
    require(abs(float(sup[0][1]) - float(best[1])) <= 1e-12
            and float(sup[0][0]) == float(best[0]),
            f"sup row {sup[0][:2]} is not the largest h_var row {best[:2]}")
    return {"alphas": len(rows), "count_n": n}


# ------------------------------------------------------------------ katok

def katok_reference(probs, L: int, delta: Fraction) -> int:
    """Fewest L-cylinders of the Bernoulli measure with mass > 1 - delta:
    greedy over multinomial mass classes, in exact rational arithmetic."""
    k = len(probs)
    classes = []
    for cut in itertools.combinations(range(L + k - 1), k - 1):
        parts = [b - a - 1 for a, b in zip((-1,) + cut, cut + (L + k - 1,))]
        mass = Fraction(1)
        for p, c in zip(probs, parts):
            mass *= p ** c
        if mass > 0:
            mult = math.factorial(L)
            for c in parts:
                mult //= math.factorial(c)
            classes.append((mass, mult))
    classes.sort(reverse=True)
    target, cum, total = 1 - delta, Fraction(0), 0
    for mass, mult in classes:
        if cum > target:
            break
        take = min(mult, math.floor((target - cum) / mass) + 1)
        total += take
        cum += take * mass
    return total


def check_katok(config: dict, outdir: str, code: int, stderr: str) -> dict:
    if code != 0:
        raise OpFailed(f"katok exited {code}: {stderr.strip()}")
    comment, cols, raw = read_csv(os.path.join(outdir, "katok.csv"))
    require(cols == ["n", "count", "rate"], f"columns {cols}")
    p = config["measure"]["bernoulli"]
    probs = ([1 - Fraction(str(p)), Fraction(str(p))] if np.isscalar(p)
             else [Fraction(str(x)) for x in p])
    delta = Fraction(str(config.get("delta", 0.1)))
    grid = [int(n) for n in config["n_grid"]]
    require([int(r[0]) for r in raw] == grid, "n grid")
    for n, count, rate in raw:
        n, count, rate = int(n), int(count), float(rate)
        ref = katok_reference(probs, n + int(config["q"]), delta)
        require(count == ref, f"count({n}) = {count}, expected {ref}")
        require(abs(rate - math.log(count) / n) <= 1e-11, f"rate({n})")
    h = -sum(float(x) * math.log(float(x)) for x in probs if x > 0)
    require(abs(float(header_field(comment, "markov_entropy")) - h) <= 1e-11,
            "markov_entropy header")
    return {"counts": [int(r[1]) for r in raw]}


# ----------------------------------------------------------------- shrink

def _bernoulli_distance(p: float, p_nu: float, words) -> float:
    total = 0.0
    for i, w in enumerate(words, start=1):
        ones = sum(w)
        a = p ** ones * (1 - p) ** (len(w) - ones)
        b = p_nu ** ones * (1 - p_nu) ** (len(w) - ones)
        total += abs(a - b) / 2.0 ** (i + 1)
    return total


def _pressure(c, words, depth: int) -> float:
    """log spectral radius of the transfer matrix of f = sum_i c_i 1_{C_i},
    a potential of the first `depth` symbols on the full 2-shift."""
    states = list(itertools.product((0, 1), repeat=depth - 1))
    index = {s: i for i, s in enumerate(states)}
    M = np.zeros((len(states), len(states)))
    for u in states:
        for b in (0, 1):
            w = u + (b,)
            f = sum(ci for ci, cw in zip(c, words) if w[:len(cw)] == cw)
            M[index[u], index[w[1:]]] = math.exp(f)
    return math.log(max(abs(np.linalg.eigvals(M))))


def _golden_min(f, a: float, b: float, steps: int = 60) -> float:
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


def shrink_bracket(p_nu: float, delta: float, family_n: int = 16):
    """[L, U] around sup{h(mu) : D(mu, B(p_nu)) <= delta} over invariant mu.

    L: the Bernoulli measure nearest 1/2 inside the ball is feasible.
    U: weak duality, h(mu) <= P(f) - int f dmu for f = sum c_i 1_{C_i}, and
    |int f dmu - int f dnu| <= max |c_i| 2^(i+1) D(mu, nu); minimised along
    c = -lam 2^-(i+1) s_i with s_i the sign of B(p_L)(C_i) - nu(C_i).
    """
    words = cylinders(2, family_n)
    lo, hi = p_nu, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _bernoulli_distance(mid, p_nu, words) <= delta:
            lo = mid
        else:
            hi = mid
    L = binary_entropy(lo)
    nu_mass = [cylinder_mass(markov_components({"bernoulli": p_nu}), w)
               for w in words]
    in_mass = [cylinder_mass(markov_components({"bernoulli": lo}), w)
               for w in words]
    signs = [float(np.sign(a - b)) for a, b in zip(in_mass, nu_mass)]
    depth = len(words[-1])

    def dual(lam):
        c = [-lam * 2.0 ** -(i + 1) * s for i, s in enumerate(signs, start=1)]
        return (_pressure(c, words, depth)
                - sum(ci * m for ci, m in zip(c, nu_mass))
                + delta * max(abs(ci) * 2.0 ** (i + 1)
                              for i, ci in enumerate(c, start=1)))
    return L, _golden_min(dual, 0.0, 20.0)


def check_shrink(config: dict, outdir: str, code: int, stderr: str,
                 brackets: dict) -> dict:
    """Nonincreasing, >= h_nu, <= h_nu + 4 ln4 delta, and inside the
    certified bracket [L - 1e-6, U + 1e-9] at every delta."""
    if code != 0:
        raise OpFailed(f"shrink exited {code}: {stderr.strip()}")
    comment, cols, raw = read_csv(os.path.join(outdir, "shrink.csv"))
    require(cols == ["delta", "sup_hat", "budget_used"], f"columns {cols}")
    p_nu = float(config["nu"]["bernoulli"])
    h_nu = binary_entropy(p_nu)
    require(abs(float(header_field(comment, "h_nu")) - h_nu) <= 1e-11,
            "h_nu header")
    grid = [float(d) for d in config["delta_grid"]]
    rows = [(float(d), float(s)) for d, s, _ in raw]
    require([d for d, _ in rows] == grid, "delta grid")
    sups = [s for _, s in rows]
    require(all(a >= b - 1e-12 for a, b in zip(sups, sups[1:])),
            "sup_hat increases as delta shrinks")
    for d, s in rows:
        lo, up = brackets[d]
        require(s >= h_nu - 1e-12, f"sup_hat({d}) < h_nu")
        require(s - h_nu <= 4 * math.log(4) * d, f"sup_hat({d}) beyond 4 ln4 delta")
        require(lo - 1e-6 <= s <= up + 1e-9,
                f"sup_hat({d}) = {s} outside certified [{lo}, {up}]")
    return {"deltas": len(rows)}


# ---------------------------------------------------------------- reweave

def check_reweave(base_symbols, symbols, rows, audit: bool, n_slot: int,
                  components, k: int) -> dict:
    """A one-slot repick: the audit passes, the two sequences differ only
    within one span of the slot's block length, and D is recomputed."""
    require(audit is True, "separation audit failed")
    require(len(symbols) == len(base_symbols), "length changed")
    diff = np.flatnonzero(symbols != base_symbols)
    require(diff.size > 0, "repick left the sequence unchanged")
    require(diff[-1] - diff[0] < n_slot,
            f"differences span {diff[-1] - diff[0] + 1} > n = {n_slot}")
    check_convergence(symbols, rows, components, k)
    return {"L": len(symbols), "changed": int(diff.size)}
