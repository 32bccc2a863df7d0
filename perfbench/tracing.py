"""Spans around the calls into each orderlab layer, for the traced run only.

`installed(tracer)` swaps each layer's public functions for timed
wrappers at the name its caller looks up, and puts the originals back on
exit.  Spans are timed in process CPU time, as run.py times the ops.  Spans stay in memory; `layer_metrics` turns them into per-op
figures and `write_spans` saves them when the run ends.  A span's self
time is its duration minus that of its direct children; the op's own
self time is `pipeline.self_ms`, so the self times add up to the op time.
"""

from __future__ import annotations

import contextlib
import types
from collections import Counter
from time import process_time_ns

from orderlab import bounds, cf, distribution, lattice, pipeline, recovery

# (span name, calls metric or None); every span reports <name>_ms as self time
SPANS = (
    ("distribution.sample", None),
    ("distribution.prob", "distribution.prob_calls"),
    ("distribution.full", None),
    ("distribution.bruteforce", None),
    ("cf.solve", "cf.solve_calls"),
    ("lattice.reduce", "lattice.reduce_calls"),
    ("lattice.enumerate", None),
    ("recovery.context", "recovery.context_builds"),
    ("recovery.filter", None),
    ("recovery.recover", None),
    ("factorint.factorize", "factorint.factorize_calls"),
    ("factorint.prime_test", "factorint.prime_tests"),
    ("factorint.perfect_power", None),
    ("pipeline.true_order", None),
    ("pipeline.split", None),
    ("bounds.bound", None),
)


UNITS = {
    **{name + "_ms": "ms" for name, _ in SPANS},
    **{calls: "count" for _, calls in SPANS if calls},
    "distribution.bytes_computed": "bytes",
    "lattice.visited": "count",
    "lattice.visited_per_budget": "ratio",
    "recovery.candidates": "count",
    "recovery.survivor_ratio": "ratio",
    "recovery.exponent_bits": "bits",
    "pipeline.self_ms": "ms",
    "pipeline.op_ms": "ms",
    "pipeline.success_ratio": "ratio",
}


class Tracer:
    """In-memory spans [op, parent, name, start_ns, end_ns]; a span's id is its index."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """fn timed as a span called name (no span when name is None);
        count(counts, result, args, kwargs) runs after each call."""
        spans, open_, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                sid = len(spans)
                span = [self.op, open_[-1] if open_ else -1, name, 0, 0]
                spans.append(span)
                open_.append(sid)
                span[3] = process_time_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[4] = process_time_ns()
                    open_.pop()
            if count is not None:
                count(counts, result, args, kwargs)
            return result

        return traced


def _enumerated(counts, result, args, kwargs):
    counts["visited"] += result.visited
    counts["budget"] += result.budget


def _filtered(counts, result, args, kwargs):
    counts["candidates"] += len(args[2])
    counts["survivors"] += len(result[0])


def _metered(counts, result, args, kwargs):
    counts["exponent_bits"] += kwargs["meter"].total_bits


def _computed(counts, result, args, kwargs):
    counts["bytes"] += result.nbytes


def _namespace(module, **overrides):
    """A copy of module's names with some replaced, to stand in for it."""
    return types.SimpleNamespace(**{**vars(module), **overrides})


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    w = tracer.wrap
    try:
        patch(pipeline, "Sampler", type(
            "TracedSampler",
            (distribution.Sampler,),
            {"sample": w("distribution.sample", distribution.Sampler.sample)},
        ))
        patch(distribution, "prob", w("distribution.prob", distribution.prob))
        patch(distribution, "full_distribution",
              w("distribution.full", distribution.full_distribution, _computed))
        patch(distribution, "bruteforce_distribution",
              w("distribution.bruteforce", distribution.bruteforce_distribution, _computed))
        patch(pipeline, "cf", _namespace(cf, solve_cf=w("cf.solve", cf.solve_cf)))
        patch(pipeline, "lattice", _namespace(
            lattice,
            enumerate_candidates=w("lattice.enumerate", lattice.enumerate_candidates, _enumerated),
        ))
        patch(lattice, "lagrange_reduce", w("lattice.reduce", lattice.lagrange_reduce))
        patch(bounds, "enumeration_budget", w("bounds.bound", bounds.enumeration_budget))
        patch(pipeline, "recovery", _namespace(
            recovery,
            SmoothnessContext=types.SimpleNamespace(
                build=w("recovery.context", recovery.SmoothnessContext.build)
            ),
            solve_candidate_set=w(None, recovery.solve_candidate_set, _metered),
        ))
        patch(recovery, "filter_candidates",
              w("recovery.filter", recovery.filter_candidates, _filtered))
        patch(recovery, "_RECOVERY",
              {k: w("recovery.recover", fn) for k, fn in recovery._RECOVERY.items()})
        patch(pipeline, "factorize", w("factorint.factorize", pipeline.factorize))
        patch(pipeline, "is_probable_prime", w("factorint.prime_test", pipeline.is_probable_prime))
        patch(pipeline, "perfect_power", w("factorint.perfect_power", pipeline.perfect_power))
        patch(pipeline, "true_order", w("pipeline.true_order", pipeline.true_order))
        patch(pipeline, "_split_with_order", w("pipeline.split", pipeline._split_with_order))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, n_ops: int, successes: int) -> dict[str, float]:
    """Per-op figures of the traced run, by metric name."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    op_ns = 0
    for sid, (_, _, name, start, end) in enumerate(spans):
        self_ns[name] += end - start - child_ns[sid]
        calls[name] += 1
        if name == "op":
            op_ns += end - start
    c = tracer.counts
    out = {}
    for name, calls_metric in SPANS:
        out[name + "_ms"] = self_ns[name] / 1e6 / n_ops
        if calls_metric:
            out[calls_metric] = calls[name] / n_ops
    out.update({
        "distribution.bytes_computed": c["bytes"] / n_ops,
        "lattice.visited": c["visited"] / n_ops,
        "lattice.visited_per_budget": c["visited"] / c["budget"] if c["budget"] else 0.0,
        "recovery.candidates": c["candidates"] / n_ops,
        "recovery.survivor_ratio": c["survivors"] / c["candidates"] if c["candidates"] else 0.0,
        "recovery.exponent_bits": c["exponent_bits"] / n_ops,
        "pipeline.self_ms": self_ns["op"] / 1e6 / n_ops,
        "pipeline.op_ms": op_ns / 1e6 / n_ops,
        "pipeline.success_ratio": successes / n_ops,
    })
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    """One tab-separated line per span: id, op, parent, name, start_ns, end_ns."""
    with open(path, "w") as fh:
        fh.write("id\top\tparent\tname\tstart_ns\tend_ns\n")
        for sid, (op, parent, name, start, end) in enumerate(tracer.spans):
            fh.write(f"{sid}\t{op}\t{parent}\t{name}\t{start}\t{end}\n")
