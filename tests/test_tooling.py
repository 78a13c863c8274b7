"""The benchmark's tracer wraps orbitweave functions by name; a rename or a
deletion of a traced name must fail here, not in a traced benchmark run.
The CI workflow runs the console script only through test_console.py."""

import importlib
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for modname, attr, kind in tracing.TARGETS:
        assert kind in ("span", "count")
        owner = importlib.import_module(f"orbitweave.{modname}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # methods are patched on the class itself, not inherited
        target = vars(owner).get(name) if path else getattr(owner, name, None)
        assert callable(target), f"{modname}.{attr} does not resolve"


def test_workflow_checks_the_console_script_only_through_its_steps():
    # a console check belongs in a STEPS row of test_console.py, which
    # tier-1 runs in process; the workflow runs that file's rows
    text = WORKFLOW.read_text()
    assert not re.search(r"\borbitweave\s+--", text)
    assert "<<'PY'" not in text and "<<PY" not in text
