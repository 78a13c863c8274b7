"""Per-layer tracing of orbitweave from outside the package.

Public functions are wrapped at run time; nothing under src/ is edited.
Modules bind names with `from .x import f`, so a wrapper is installed on
every orbitweave module attribute that holds the original function: that is
where the name is looked up when it is called.  Span wrappers record
(name, start, end, parent, tag); count wrappers only count calls, for the
small functions called hundreds of thousands of times.  A span's self time
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, kind); kind "span" records spans, "count" counts calls
TARGETS = [
    ("cli", "main", "span"),
    ("systems", "apply_map", "count"),
    ("systems", "dist", "count"),
    ("measures", "MarkovMeasure.sample_word", "span"),
    ("measures", "weak_star_distance", "span"),
    ("measures", "convex_decompose", "span"),
    ("measures", "markov_entropy", "count"),
    ("entropy", "katok_count", "span"),
    ("entropy", "levelset_count", "span"),
    ("shadowing", "perturbed_orbit", "span"),
    ("shadowing", "shadow_shift", "span"),
    ("shadowing", "validate_pseudo", "span"),
    ("shadowing", "shadow_interval", "span"),
    ("shadowing", "word_state", "count"),
    ("shadowing", "canonical_cycle", "count"),
    ("weaving", "select_blocks", "span"),
    ("weaving", "word_empirical_distance", "span"),
    ("weaving", "build_schedule", "span"),
    ("weaving", "connector", "count"),
    ("weaving", "concatenate", "span"),
    ("weaving", "weave_point", "span"),
    ("weaving", "separation_audit", "span"),
    ("variational", "gibbs_data", "span"),
    ("variational", "constrained_sup", "count"),
    ("variational", "shrink_experiment", "span"),
]

CLI_COMMANDS = ["weave", "shadow", "spectrum", "katok", "shrink"]

PER_ROT = "s/rotation"
CALLS = "calls/rotation"

# every per-layer metric, (name, unit, better); reported on every workload,
# as 0 where the layer does not run
LAYER_METRICS = (
    [("cli.main.self_s", PER_ROT, "lower")]
    + [(f"cli.{c}.p50_s", "s", "lower") for c in CLI_COMMANDS]
    + [("systems.apply_map.calls", CALLS, "lower"),
       ("systems.dist.calls", CALLS, "lower"),
       ("measures.MarkovMeasure.sample_word.self_s", PER_ROT, "lower"),
       ("measures.MarkovMeasure.sample_word.calls", CALLS, "lower"),
       ("measures.weak_star_distance.self_s", PER_ROT, "lower"),
       ("measures.weak_star_distance.calls", CALLS, "lower"),
       ("measures.convex_decompose.self_s", PER_ROT, "lower"),
       ("measures.markov_entropy.calls", CALLS, "lower"),
       ("entropy.katok_count.self_s", PER_ROT, "lower"),
       ("entropy.katok_count.calls", CALLS, "lower"),
       ("entropy.levelset_count.self_s", PER_ROT, "lower"),
       ("entropy.levelset_count.calls", CALLS, "lower"),
       ("shadowing.perturbed_orbit.self_s", PER_ROT, "lower"),
       ("shadowing.perturbed_orbit.calls", CALLS, "lower"),
       ("shadowing.shadow_shift.self_s", PER_ROT, "lower"),
       ("shadowing.shadow_shift.calls", CALLS, "lower"),
       ("shadowing.validate_pseudo.self_s", PER_ROT, "lower"),
       ("shadowing.shadow_interval.self_s", PER_ROT, "lower"),
       ("shadowing.shadow_interval.calls", CALLS, "lower"),
       ("shadowing.word_state.calls", CALLS, "lower"),
       ("shadowing.canonical_cycle.calls", CALLS, "lower"),
       ("weaving.select_blocks.self_s", PER_ROT, "lower"),
       ("weaving.select_blocks.calls", CALLS, "lower"),
       ("weaving.select_blocks.accept_ratio", "ratio", "higher"),
       ("weaving.word_empirical_distance.self_s", PER_ROT, "lower"),
       ("weaving.word_empirical_distance.calls", CALLS, "lower"),
       ("weaving.build_schedule.self_s", PER_ROT, "lower"),
       ("weaving.connector.calls", CALLS, "lower"),
       ("weaving.concatenate.self_s", PER_ROT, "lower"),
       ("weaving.weave_point.self_s", PER_ROT, "lower"),
       ("weaving.separation_audit.self_s", PER_ROT, "lower"),
       ("variational.gibbs_data.self_s", PER_ROT, "lower"),
       ("variational.gibbs_data.calls", CALLS, "lower"),
       ("variational.constrained_sup.calls", CALLS, "lower"),
       ("variational.shrink_experiment.self_s", PER_ROT, "lower"),
       ("trace.overhead_ratio", "ratio", "lower")])


def _cli_command(args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    return argv[argv.index("--command") + 1] if "--command" in argv else None


class Tracer:
    """Spans and call counts of one traced stretch of a run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, tag]
        self.calls: Counter = Counter()
        self.accept: list[float] = []  # acceptance rate per select_blocks call
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrappers
    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        tag_of = _cli_command if name == "cli.main" else None
        on_blocks = name == "weaving.select_blocks"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), None, stack[-1] if stack else None,
                   tag_of(args, kwargs) if tag_of else None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_blocks and hasattr(exc, "attempts"):
                    self.accept.append(exc.accepted / exc.attempts)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if on_blocks:
                self.accept.append(result.acceptance_rate)
            return result
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------- install
    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "orbitweave" or n.startswith("orbitweave.")]
        for modname, attr, kind in TARGETS:
            name = f"{modname}.{attr}"
            module = sys.modules[f"orbitweave.{modname}"]
            make = self._span if kind == "span" else self._count
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, make(name, orig))
                continue
            orig = getattr(module, attr)
            wrapper = make(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # ------------------------------------------------------------- metrics
    def layer_metrics(self, rotations: int) -> dict:
        """Per-rotation self times and call counts, p50 per CLI command."""
        child = defaultdict(float)
        for _name, start, end, parent, _tag in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, ncalls = defaultdict(float), Counter(self.calls)
        per_cmd = defaultdict(list)
        for i, (name, start, end, _parent, tag) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            ncalls[name] += 1
            if name == "cli.main":
                per_cmd[tag].append(end - start)
        out = {}
        for metric, _unit, _better in LAYER_METRICS:
            base, _, what = metric.rpartition(".")
            if what == "self_s":
                out[metric] = self_s[base] / rotations
            elif what == "calls":
                out[metric] = ncalls[base] / rotations
            elif what == "p50_s":
                durs = per_cmd[base.split(".")[1]]
                out[metric] = statistics.median(durs) if durs else 0.0
            elif what == "accept_ratio":
                out[metric] = (statistics.fmean(self.accept)
                               if self.accept else 0.0)
        return out

    def work_counts(self) -> dict:
        """Exact call counts, to confirm traced rotations did the same work."""
        counts = Counter(self.calls)
        counts.update(name for name, *_ in self.spans)
        return dict(sorted(counts.items()))
