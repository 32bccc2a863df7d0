"""perfbench/tracing.py against the library: every name the tracer wraps
still exists, traced runs return what untraced ones do, and every wrapped
name is put back on exit."""

import importlib.util
import pathlib

from orderlab import bounds, distribution, lattice, pipeline, recovery
from orderlab.model import Rng, SimulatedGroup
from orderlab.pipeline import STRATEGIES, RunConfig, factor_completely, run_once

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PATCHED_MODULES = (bounds, distribution, lattice, pipeline, recovery)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_runs() -> list:
    """A few runs of each strategy at m = 8, and one factoring run."""
    group = SimulatedGroup(210)
    outs = []
    for strategy in STRATEGIES:
        cfg = RunConfig(m=8, ell=6, B=2, c=10.0, strategy=strategy)
        outs += [run_once(group, group.generator(), 210, cfg, Rng(seed)) for seed in range(3)]
    outs.append(factor_completely(3233, 0))
    return outs


def test_traced_runs_match_untraced_and_names_are_restored():
    tracing = load_tracing()
    before = [dict(vars(module)) for module in PATCHED_MODULES]
    want = small_runs()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        got = small_runs()
    assert got == want
    assert [dict(vars(module)) for module in PATCHED_MODULES] == before
    names = {span[2] for span in tracer.spans}
    assert {"lattice.reduce", "recovery.filter", "pipeline.split"} <= names
