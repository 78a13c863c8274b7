"""The Bowen metric d_n, the oracle that entropy and system tests compare
separated and spanning sets with."""

from orbitweave.systems import (ShiftSpace, State, System,
                                _exact_compare_depth, _require_shift_state,
                                apply_map, dist)


def dist_n(system: System, x: State, y: State, n: int,
           depth: int | None = None) -> float:
    """Bowen metric d_n = max of dist along the first n steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(system, ShiftSpace):
        _require_shift_state(system, x)
        _require_shift_state(system, y)
        # max over shifted pairs = 2^-(m-i) for the first disagreement m < n+scan
        best = 0.0
        bound = (_exact_compare_depth(x, y) if depth is None else depth) + n
        for m in range(bound):
            if x.symbol(m) != y.symbol(m):
                i = min(m, n - 1)
                return 2.0 ** (-(m - i))
        return best
    best = 0.0
    for _ in range(n):
        best = max(best, dist(system, x, y))
        x = apply_map(system, x)
        y = apply_map(system, y)
    return best
