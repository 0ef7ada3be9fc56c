"""Span tracer that wraps ramseycert's public functions from outside the package.

Each layer is a list of "module:qualname" targets. Installing a Tracer
replaces every target, and every alias of it in a ramseycert module
namespace, with a wrapper; uninstalling puts the originals back. Span
wrappers record (name, start, end, parent id) plus a few counters read
off the call's result; hot one-line functions get count-only wrappers.
Spans stay in memory until `write` dumps them with self times. A layer
none of whose targets exist is reported in `absent`, never as an error.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

SPAN_LAYERS = {
    "graphs.build_g0": ["ramseycert.graphs:build_g0"],
    "graphs.lemma1": ["ramseycert.graphs:max_clique"],
    "graphs.census": [
        "ramseycert.graphs:count_independent_sets",
        "ramseycert.coloring:count_independent_sets",
    ],
    "graphs.clique": [
        "ramseycert.graphs:has_clique_of_order",
        "ramseycert.coloring:has_clique_of_order",
    ],
    "coloring.generate": ["ramseycert.coloring:regenerate"],
    "coloring.classes": ["ramseycert.coloring:color_class_graphs"],
    "coloring.verify": ["ramseycert.coloring:produce_certificate"],
    "coloring.witness_check": ["ramseycert.coloring:MonoWitness.holds_in"],
    "bounds": ["ramseycert.bounds:expected_mono_count", "ramseycert.bounds:certify_max_N"],
}

COUNT_LAYERS = {
    "coloring.color_of": ["ramseycert.coloring:EdgeColoring.color_of"],
    "rng.draws": ["ramseycert.rng:uniform_below"],
}

ROLES = ("blowup", "leftover")


def class_role(spec, color: int) -> str:
    """Whether `color` is a blowup class or a leftover class of `spec`.

    A product spec takes the role from the factor whose palette the
    color falls in.
    """
    factors = getattr(spec, "factors", None)
    if factors:
        first, second = factors
        if color <= first.ell:
            return class_role(first, color)
        return class_role(second, color - first.ell)
    return "blowup" if color <= spec.m else "leftover"


def _resolve(target: str):
    """(owner, attribute name, raw function) for a target, or None if it is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        func = owner.__dict__.get(attr)
    else:
        func = getattr(owner, attr, None)
    if not callable(func):
        return None
    return owner, attr, func


class Tracer:
    """Records spans and counts for the layers in `span_layers`/`count_layers`."""

    def __init__(self, span_layers=None, count_layers=None):
        self.span_layers = SPAN_LAYERS if span_layers is None else span_layers
        self.count_layers = COUNT_LAYERS if count_layers is None else count_layers
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._roles: dict[int, str] = {}
        self._origin = time.perf_counter()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        hooks = {
            "graphs.census": self._on_census,
            "graphs.clique": self._on_clique,
            "coloring.classes": self._on_classes,
            "coloring.verify": self._on_verify,
        }
        for layer, targets in self.span_layers.items():
            self._wrap_layer(layer, targets, lambda f, l=layer: self._spanner(f, l, hooks.get(l)))
        for layer, targets in self.count_layers.items():
            self._wrap_layer(layer, targets, lambda f, l=layer: self._counter(f, l))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_layer(self, layer: str, targets: list[str], make_wrapper) -> None:
        found = False
        for target in targets:
            resolved = _resolve(target)
            if resolved is None:
                continue
            found = True
            owner, attr, func = resolved
            if getattr(func, "__traced__", False):
                continue  # an alias of a target wrapped already
            wrapper = make_wrapper(func)
            wrapper.__traced__ = True
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                for name, module in list(sys.modules.items()):
                    if module is None or module is owner:
                        continue
                    if name != "ramseycert" and not name.startswith("ramseycert."):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is func:
                            self._patch(module, alias, wrapper)
        if not found:
            self.absent.append(layer)

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _spanner(self, func, layer: str, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": layer,
                "parent": stack[-1] if stack else None,
                "start": clock(),
                "end": None,
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if on_result is not None:
                on_result(span, args, result)
            return result

        return wrapper

    def _counter(self, func, layer: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return func(*args, **kwargs)

        return wrapper

    def _on_census(self, span, args, result) -> None:
        span["sets"] = getattr(result, "total_nonempty", 0)

    def _on_classes(self, span, args, result) -> None:
        spec = args[0].spec
        self._roles = {id(g): class_role(spec, c) for c, g in result.items()}
        span["edges"] = sum(g.edge_count() for g in result.values())

    def _on_clique(self, span, args, result) -> None:
        span["role"] = self._roles.get(id(args[0]), "other")
        span["nodes"] = getattr(result, "nodes", 0)
        span["found"] = bool(getattr(result, "found", False))

    def _on_verify(self, span, args, result) -> None:
        cert, failures = result
        span["tries"] = cert.search_stats.get("tries", len(failures) + 1)
        span["verified"] = int(cert.verified)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def _outermost(self, name: str) -> list[dict]:
        """Spans of `name` with no ancestor of the same name."""
        spans = self.spans
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            p = s["parent"]
            while p is not None and spans[p]["name"] != name:
                p = spans[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer values of one traced run (trace.overhead_frac excluded)."""

        def seconds(name: str) -> float:
            return sum(s["end"] - s["start"] for s in self._outermost(name))

        cliques = [s for s in self.spans if s["name"] == "graphs.clique"]
        verifies = [s for s in self.spans if s["name"] == "coloring.verify"]
        own = self.self_times()
        tries = sum(s.get("tries", 0) for s in verifies)
        out = {
            "graphs.build_g0.s": seconds("graphs.build_g0"),
            "graphs.lemma1.s": seconds("graphs.lemma1"),
            "graphs.census.s": seconds("graphs.census"),
            "graphs.census.sets": sum(s.get("sets", 0) for s in self._outermost("graphs.census")),
        }
        for role in ROLES:
            mine = [s for s in cliques if s.get("role") == role]
            out[f"graphs.clique.{role}.s"] = sum(s["end"] - s["start"] for s in mine)
            out[f"graphs.clique.{role}.nodes"] = sum(s.get("nodes", 0) for s in mine)
        out["graphs.clique.found.nodes"] = sum(s["nodes"] for s in cliques if s.get("found"))
        out["graphs.clique.max_class.s"] = max(
            (s["end"] - s["start"] for s in cliques), default=0.0
        )
        out["coloring.generate.s"] = seconds("coloring.generate")
        out["coloring.classes.s"] = seconds("coloring.classes")
        out["coloring.class_edges"] = sum(
            s.get("edges", 0) for s in self.spans if s["name"] == "coloring.classes"
        )
        out["coloring.color_of.calls"] = self.counts["coloring.color_of"]
        out["rng.draws"] = self.counts["rng.draws"]
        out["coloring.witness_check.s"] = seconds("coloring.witness_check")
        out["coloring.tries"] = tries
        verified = sum(s.get("verified", 0) for s in verifies)
        out["coloring.verified_per_try"] = verified / tries if tries else 0.0
        out["coloring.verify.self_s"] = sum(own[s["id"]] for s in verifies)
        out["bounds.s"] = seconds("bounds")
        return out

    def write(self, path, **header) -> None:
        """Dump the spans, with self times, the counts and the absent layers as JSON."""
        own = self.self_times()
        spans = [
            {
                **s,
                "start": s["start"] - self._origin,
                "end": s["end"] - self._origin,
                "self_s": own[s["id"]],
            }
            for s in self.spans
        ]
        payload = {**header, "absent": self.absent, "counts": dict(self.counts), "spans": spans}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
