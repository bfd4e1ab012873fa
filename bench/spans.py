"""Span tracer that times the mvlogic layers from outside.

Each layer is one module of the package. The tracer wraps a chosen set of
its public functions, rebinds every module attribute that referred to the
original (so `interlab.quotient` and `mv_core.quotient` both hit the same
wrapper), and records one span per call: layer, function, start, end,
parent span and job id. Spans stay in compact arrays until the run ends.

Per-node helpers such as `eval_formula`, `free_vars` or `parse_value` are
left out on purpose: they are called so often that the wrapper would cost
more than the work it measures. Recursive functions get a span for the
outermost call only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import metrics

LAYERS = ("cli", "calculus", "semantics", "syntax", "polyadic", "interlab",
          "mv_core", "transform", "pavelka")

# Public entry points per layer. Names not listed here run untraced and
# their time falls to the enclosing span.
ENTRY_POINTS = {
    "cli": ("dispatch",),
    "calculus": ("soundness_audit", "check_proof", "check_axiom_instance",
                 "proof_from_json"),
    "semantics": ("entails", "is_valid", "truth_degree", "enumerate_models",
                  "random_model"),
    "syntax": ("parse", "render", "random_formula", "substitute",
               "substitute_free", "substitute_capture_avoiding"),
    "polyadic": ("build_generated", "algebra_from_json", "audit_axioms",
                 "dimension_set", "minimal_support", "neat_reduct",
                 "term_substitution"),
    "interlab": ("interpolant_search", "henkin_filter_build",
                 "representation_map", "eta_agreement_check"),
    "mv_core": ("check_mv_axioms", "maximal_filters", "quotient",
                "filter_generate", "extend_to_maximal", "principal_filter",
                "filter_generator", "residuum_by_maximization", "eval_basic",
                "tnorm_eval", "Filter.__post_init__"),
    "transform": ("semigroup_closure", "compose", "check_strongly_rich",
                  "parse_transformation", "support"),
    "pavelka": ("pavelka_representation", "functional_pavelka", "degree",
                "degree_dual", "constants_check", "pavelka_lemma_check",
                "degree_forms_check", "pavelka_quantifier_check"),
}

# Called recursively by their own layer; only the outermost call is a span.
OUTERMOST_ONLY = {("syntax", "render"), ("cli", "dispatch"),
                  ("transform", "parse_transformation")}


class Tracer:
    """Collects spans and work counters for one process."""

    def __init__(self):
        self.names = []          # span name table: "layer.function"
        self.name_layer = []     # name index -> layer index
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("H")
        self.job = array("l")
        self.calls = {layer: 0 for layer in LAYERS}
        self.counters = {
            "semantics.models": 0,
            "calculus.instances": 0,
            "polyadic.carrier": 0,
            "polyadic.identity_checks": 0,
            "transform.closure_elems": 0,
            "interlab.henkin_calls": 0,
            "interlab.henkin_found": 0,
            "interlab.filters_examined": 0,
            "interlab.interp_calls": 0,
            "interlab.interp_found": 0,
            "cli.dispatch_calls": 0,
            "cli.error_reports": 0,
        }
        self.current_job = -1
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- span recording ------------------------------------------------

    def _name_id(self, layer, func):
        self.names.append(f"{layer}.{func}")
        self.name_layer.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _open(self, name_id):
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, func_name, fn):
        name_id = self._name_id(layer, func_name)
        on_return = _COUNTERS.get(f"{layer}.{func_name}")
        tracer = self
        calls = self.calls

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[layer] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = tracer._open(name_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(index)
                        if on_return is not None:
                            on_return(tracer, item, args)
                        yield item
                finally:
                    inner.close()
            return generator_wrapper

        if (layer, func_name) in OUTERMOST_ONLY:
            depth = [0]

            @functools.wraps(fn)
            def outermost_wrapper(*args, **kwargs):
                if depth[0]:
                    return fn(*args, **kwargs)
                calls[layer] += 1
                depth[0] += 1
                index = tracer._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    if on_return is not None:
                        on_return(tracer, _RAISED, args)
                    raise
                finally:
                    tracer._close(index)
                    depth[0] -= 1
                if on_return is not None:
                    on_return(tracer, result, args)
                return result
            return outermost_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_return is not None:
                on_return(tracer, result, args)
            return result
        return wrapper

    def install(self):
        """Wrap every entry point and rebind it wherever it was imported."""
        modules = {layer: importlib.import_module(f"mvlogic.{layer}")
                   for layer in LAYERS}
        namespaces = list(modules.values()) + [sys.modules["mvlogic"]]
        for layer, funcs in ENTRY_POINTS.items():
            module = modules[layer]
            for func_name in funcs:
                if "." in func_name:
                    cls_name, method = func_name.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    self._patch(owner, method,
                                self._wrap(layer, func_name, original))
                    continue
                original = getattr(module, func_name)
                wrapped = self._wrap(layer, func_name, original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-layer self time: span time minus time covered by children."""
        name, name_layer = self.name, self.name_layer
        totals = metrics.self_times(self.start, self.end, self.parent,
                                    lambda i: LAYERS[name_layer[name[i]]])
        return {layer: totals.get(layer, 0.0) for layer in LAYERS}

    def span_count(self):
        return len(self.start)

    def write(self, path):
        """Write every span as CSV: job,name,parent,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,job,name,parent,start_s,end_s\n")
            base = self.start[0] if len(self.start) else 0.0
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{self.job[i]},{names[self.name[i]]},"
                         f"{self.parent[i]},{self.start[i] - base:.7f},"
                         f"{self.end[i] - base:.7f}\n")


_RAISED = object()


def _count(key, amount):
    def hook(tracer, result, args):
        if result is not _RAISED:
            tracer.counters[key] += amount(result, args)
    return hook


def _henkin(tracer, result, args):
    from mvlogic.interlab import Exhausted, HenkinFilter
    tracer.counters["interlab.henkin_calls"] += 1
    if isinstance(result, HenkinFilter):
        tracer.counters["interlab.henkin_found"] += 1
    elif isinstance(result, Exhausted):
        tracer.counters["interlab.filters_examined"] += result.examined


def _interp(tracer, result, args):
    tracer.counters["interlab.interp_calls"] += 1
    if getattr(result, "found", False):
        tracer.counters["interlab.interp_found"] += 1


def _dispatch(tracer, result, args):
    tracer.counters["cli.dispatch_calls"] += 1
    if result is not _RAISED and result[0] == 2:
        tracer.counters["cli.error_reports"] += 1


def _proof_steps(result, args):
    # a rejected proof was checked up to and including the failing step
    steps = len(args[0].steps)
    return steps if result.accepted else min(steps, result.step + 1)


_COUNTERS = {
    "semantics.enumerate_models": _count("semantics.models", lambda r, a: 1),
    "calculus.soundness_audit": _count("calculus.instances",
                                       lambda r, a: r.trials),
    "calculus.check_proof": _count("calculus.instances", _proof_steps),
    "polyadic.build_generated": _count("polyadic.carrier",
                                       lambda r, a: len(r.carrier)),
    "polyadic.audit_axioms": _count(
        "polyadic.identity_checks",
        lambda r, a: sum(x.checked for x in r.results)),
    "transform.semigroup_closure": _count("transform.closure_elems",
                                          lambda r, a: len(r.elements)),
    "interlab.henkin_filter_build": _henkin,
    "interlab.interpolant_search": _interp,
    "cli.dispatch": _dispatch,
}
