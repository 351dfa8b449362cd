"""Spans around the public functions of buildingkit's modules, from outside.

`Tracer.install` replaces every public function of the traced modules, in
every `buildingkit` module namespace that binds it (so `cli.cached_growth`,
`suite.cached_growth` and `cache.cached_growth` all go through one wrapper),
and `Tracer.restore` puts the originals back.  Spans are kept in memory as
[name, start, end, parent index, case id, child seconds].
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "buildingkit"
LAYERS = ("coxeter", "period", "cache", "tree", "orbits", "linalg", "suite", "cli")

CHECK_PASSES = ("tree.check_tree_invariants", "tree.verify_harmonic",
                "tree.decay_check")

# span name -> (counter name, amount of work in one call's result)
COUNTERS = {
    "coxeter.growth_coefficients": (
        "coxeter.growth_coefficients.elements", lambda r: sum(r.coefficients)),
    "coxeter.poincare_finite": ("coxeter.poincare_finite.elements", sum),
    "tree.build_tree_pair": ("tree.build_tree_pair.edges", lambda r: r.n_edges),
    "tree.verify_harmonic": (
        "tree.verify_harmonic.vertices", lambda r: r.interior_checked),
}

SELF_TIMES = (
    "coxeter.build_affine_system", "coxeter.growth_coefficients",
    "coxeter.poincare_finite", "coxeter.exponents", "coxeter.omega_group",
    "period.evaluate_period", "period.period_closed_form", "period.tail_bound",
    "cache.cached_growth", "cache.canonical_json_bytes",
    "tree.build_tree_pair", "tree.check_tree_invariants", "tree.verify_harmonic",
    "tree.decay_check", "tree.iwahori_cocycle", "tree.tree_period",
    "tree.invariant_solver", "tree.reconstruct_layer",
    "tree.random_automorphism", "tree.compose", "tree.epsilon_tree",
    "tree.endpoint_swap", "linalg.nullspace",
    "orbits.build_fields", "orbits.affine_square_orbits",
    "orbits.inversion_closure_orbits", "orbits.verify_fraction_identity",
    "orbits.exists_nonsquare_value", "suite.run_suite", "cli.run",
)
# (metric, unit, better): every per-layer metric the traced run reports.
LAYER_METRICS = (
    tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + tuple((f"{fn}.self_s", "s", "lower") for fn in SELF_TIMES)
    + tuple((name, "count", "lower") for name, _ in COUNTERS.values())
    + (("coxeter.poincare_finite.calls_per_period", "ratio", "lower"),
       ("coxeter.budget_errors", "count", "lower"),
       ("cache.cached_growth.calls", "count", "lower"),
       ("tree.random_automorphism.calls", "count", "lower"),
       ("tree.check_ns_per_edge", "ns", "lower"),
       ("trace.overhead", "ratio", "lower"))
)


def public_functions(module):
    """Functions (plain or functools-wrapped) a module defines under public names."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__}


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self.counters = Counter()
        self.names = set()
        self.broken = set()  # counters whose amount could not be read
        self._raised = []
        self._patched = []  # (namespace, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {m.__name__: m for m in package_modules()}
        wrappers = {}
        for layer in LAYERS:
            module = modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
                self.names.add(f"{layer}.{name}")
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)
        is_check = name in CHECK_PASSES
        budget_error = getattr(sys.modules.get(f"{PACKAGE}.errors"),
                               "BudgetError", ())

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.case, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                # count each error once, in the span that raised it
                if not any(exc is seen for seen in self._raised):
                    self._raised.append(exc)
                    if name.startswith("coxeter."):
                        self.counters["coxeter.budget_errors"] += 1
                raise
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[1]
            if counter is not None:
                self._count(counter[0], lambda: counter[1](result))
            if is_check:
                self._count("tree.check_edges",
                            lambda: (args[0] if args else kwargs["tree"]).n_edges)
            return result

        return traced

    def _count(self, counter, amount):
        """Add `amount()` to a counter; if the result no longer has that shape,
        drop the counter instead of raising into the program."""
        if counter in self.broken:
            return
        try:
            self.counters[counter] += amount()
        except (AttributeError, TypeError, KeyError, IndexError):
            self.broken.add(counter)

    # -- results -----------------------------------------------------------

    def metrics(self, overhead):
        """Per-layer metrics; a metric of a function that does not exist is left out."""
        self_s = Counter()
        calls = Counter()
        for name, start, end, _, _, child in self.spans:
            self_s[name] += end - start - child
            calls[name] += 1
        have = self.names
        values = {"trace.overhead": overhead,
                  "coxeter.budget_errors": self.counters["coxeter.budget_errors"]}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                s for n, s in self_s.items() if n.startswith(layer + "."))
        for fn in SELF_TIMES:
            if fn in have:
                values[f"{fn}.self_s"] = self_s[fn]
        for fn, (metric, _) in COUNTERS.items():
            if fn in have and metric not in self.broken:
                values[metric] = self.counters[metric]
        for fn in ("cache.cached_growth", "tree.random_automorphism"):
            if fn in have:
                values[f"{fn}.calls"] = calls[fn]
        if {"coxeter.poincare_finite", "period.period_closed_form"} <= have:
            periods = calls["period.period_closed_form"]
            values["coxeter.poincare_finite.calls_per_period"] = (
                calls["coxeter.poincare_finite"] / periods if periods else 0.0)
        if set(CHECK_PASSES) <= have and "tree.check_edges" not in self.broken:
            edges = self.counters["tree.check_edges"]
            busy = sum(self_s[fn] for fn in CHECK_PASSES)
            values["tree.check_ns_per_edge"] = busy * 1e9 / edges if edges else 0.0
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        return {name: {"value": value, "unit": units[name]}
                for name, value in values.items()}

    def write_spans(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, case, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")
