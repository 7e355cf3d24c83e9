"""Layer spans around rankedcoal's public functions, installed from outside.

``install`` replaces each function named in LAYERS, in every loaded
``rankedcoal`` module that refers to it, with a wrapper that records a
span (name, start, end, parent) and the layer's counts. Spans stay in
memory until ``Tracer.write``. Nothing in the package itself changes.

This module imports only the standard library, so that the span around
the import of ``rankedcoal.cli`` covers all of that import.
"""

import contextlib
import functools
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        # a generator closed late may not be on top of the stack
        self.stack.remove(span)

    @contextlib.contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, counts, span):
        for key, value in counts.items():
            span["counts"][key] = span["counts"].get(key, 0) + value

    def innermost(self, label):
        """The innermost open span, or an empty span named ``label`` if none is open."""
        if self.stack:
            return self.stack[-1]
        span = self.begin(label)
        self.end(span)
        return span

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _tier_blocks(args, blocks):
    return {"kingman.tier_blocks_calls": 1, "kingman.nnz": sum(b.nnz for b in blocks)}


def _pmf(args, pmf):
    useful = next((m for m in range(len(pmf), 0, -1) if pmf[m - 1] > 0), 0)
    return {"phasetype.pmf_steps": args["upto"], "phasetype.pmf_useful_steps": useful}


# (module, function, span name or None for a count only, counts(bound args, result));
# a generator's span runs from the first item pulled to the last, and its
# counts are taken per item
LAYERS = [
    ("statespace", "enumerate_states", "statespace.enumerate",
     lambda a, r: {"statespace.states": r.num_states}),
    ("kingman", "tier_blocks", "kingman.tier_blocks", _tier_blocks),
    ("kingman", "edge_table", "kingman.edge_table", None),
    ("kingman", "sample_paths", "kingman.sample_paths", None),
    ("fmatrix", "path_to_fmatrix", "fmatrix.path_to_fmatrix", None),
    ("fmatrix", "iter_jsonl", "fmatrix.ingest", lambda a, item: {"fmatrix.trees_read": 1}),
    ("feedforward", "nonfixed_means", "feedforward.nonfixed_means", None),
    ("feedforward", "nonfixed_moments", "feedforward.nonfixed_moments",
     lambda a, r: {"feedforward.nonfixed_moments_calls": 1, "feedforward.work": r.work}),
    ("frechet", "state_costs", "frechet.state_costs", None),
    ("frechet", "vitreebi", "frechet.vitreebi",
     lambda a, r: {"frechet.optimal_paths": len(r[1])}),
    ("bcp", "bcp_E_distribution", "bcp.e_distribution", None),
    ("phasetype", "reward_transform", "phasetype.reward_transform", None),
    ("phasetype", "dph_pmf_range", "phasetype.pmf", _pmf),
    ("betasplit", "sample_beta_stats", "betasplit.sample_stats",
     lambda a, r: {"betasplit.trees": a["count"]}),
    ("betasplit", "sample_beta_fmatrices", "betasplit.sample_fmatrices",
     lambda a, r: {"betasplit.trees": a["count"]}),
    ("neutrality", "kingman_null", "neutrality.kingman_null", None),
    ("neutrality", "e_boxes", "neutrality.e_boxes", None),
    ("neutrality", "run_tests", "neutrality.run_tests", None),
    ("neutrality", "sym_inv_sqrt", None, lambda a, r: {"neutrality.inv_sqrt_calls": 1}),
]


def _bound(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _wrap(tracer, func, name, counts):
    sig = inspect.signature(func)

    if inspect.isgeneratorfunction(func):
        @functools.wraps(func)
        def gen_wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                for item in func(*args, **kwargs):
                    tracer.count(counts(None, item), span)
                    yield item

        return gen_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if name is None:
            result = func(*args, **kwargs)
            tracer.count(counts(_bound(sig, args, kwargs), result), tracer.innermost(func.__name__))
            return result
        with tracer.span(name) as span:
            result = func(*args, **kwargs)
        if counts is not None:
            tracer.count(counts(_bound(sig, args, kwargs), result), span)
        return result

    return wrapper


def install(tracer):
    """Wrap every function in LAYERS wherever a rankedcoal module holds it."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "rankedcoal" or key.startswith("rankedcoal."))]
    for mod_name, func_name, name, counts in LAYERS:
        original = getattr(sys.modules[f"rankedcoal.{mod_name}"], func_name)
        wrapper = _wrap(tracer, original, name, counts)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def self_times(spans):
    """Per span name: total self time (duration minus child spans) and counts."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    times, counts = {}, {}
    for s in spans:
        dur = s["end"] - s["start"] - child.get(s["id"], 0.0)
        times[s["name"]] = times.get(s["name"], 0.0) + dur
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return times, counts
