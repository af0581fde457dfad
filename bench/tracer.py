"""Outside-in tracing of k3evenset's layers.

The program is not changed: each public function listed in LAYERS is
replaced, in every k3evenset module namespace that binds it, by a wrapper
that records a span (name, start, end, parent).  `from .lattice import
inner` makes a separate binding in the importing module, so rebinding
scans all of them.  A layer's self time is its span durations minus the
time covered by its child spans.  Functions a later version of the program
no longer has are skipped and report zero calls.

The tracer assumes one thread: the benchmark never passes --jobs, and calls
from any other thread run unwrapped.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

LAYERS = {
    "exactlin": (
        "smith_normal_form", "smith_diagonal", "row_hnf", "det", "signature",
        "solve_integral", "qmat_inverse", "qmat_solve", "qmat_nullspace", "unimodular_inverse",
    ),
    "lattice": (
        "IntegerLattice.framed", "contains_multiple", "coords_in", "integral_coords_matrix",
        "is_primitive", "inner", "same_lattice", "saturation", "short_vectors",
        "isometry_from_basis_map",
    ),
    "disc": ("discriminant_group",),
    "families": (
        "make", "admissible_glues", "validate_glue", "overlattice", "glue_equivalent",
        "parse_divisor",
    ),
    "positivity": (
        "classify_positivity", "enumerate_obstructing_roots", "isotropic_classes",
        "hyperelliptic_test", "pencil_decomposition",
    ),
    "chow": ("intersection_matrix", "intersection_matrix_untruncated"),
    "models": (
        "verify_table1", "model_descriptor", "families_distinct", "sufficient_condition_lattices",
    ),
    "acceptance": ("oracle_obstructing_roots", "_brute_solve"),
    "cli": ("main",),
}

# The independent oracles of the acceptance suite; their time is oracle_s.
ORACLES = (
    ("acceptance", "oracle_obstructing_roots"),
    ("acceptance", "_brute_solve"),
    ("chow", "intersection_matrix_untruncated"),
)

ENUM = "positivity.enumerate_obstructing_roots"
CONTAINS = "lattice.contains_multiple"
PRIMITIVE = "lattice.is_primitive"
MAX_SPANS = 100_000


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "k3evenset" or n.startswith("k3evenset.")]


def _replace(layer: str, attr: str, make_wrapper) -> bool:
    """Rebind layer.attr everywhere to make_wrapper(original); False if absent."""
    mod = sys.modules.get(f"k3evenset.{layer}")
    if mod is None:
        return False
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        raw = cls.__dict__.get(meth) if cls is not None else None
        if not isinstance(raw, staticmethod):
            return False
        setattr(cls, meth, staticmethod(make_wrapper(raw.__func__)))
        return True
    orig = getattr(mod, attr, None)
    if not callable(orig):
        return False
    wrapper = make_wrapper(orig)
    for m in _package_modules():
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapper)
    return True


class OracleClock:
    """Accumulates wall time spent inside the independent oracles."""

    def __init__(self):
        self.seconds = 0.0
        for layer, attr in ORACLES:
            _replace(layer, attr, self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t

        return wrapper


class Tracer:
    """Spans, call counts and self times at the layer boundaries."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.origin = time.perf_counter()
        self.stack: list[list] = []  # [child time, span id] per open span
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 1
        self.context = None  # label of the operation being traced, e.g. "criterion2"
        self.context_calls: dict[tuple[str, str], int] = {}
        self.roots = 0
        self.contains_under_enum = 0
        self.enum_depth = 0

    def install(self) -> None:
        for layer, attrs in LAYERS.items():
            for attr in attrs:
                name = f"{layer}.{attr}"
                self.stats[name] = [0, 0.0, 0.0]
                _replace(layer, attr, functools.partial(self._wrap, name))

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) inside a span of its own (for operations the harness calls)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        is_enum, is_contains = name == ENUM, name == CONTAINS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self.thread:
                return fn(*args, **kwargs)
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][1] if self.stack else 0
            frame = [0.0, span_id]
            self.stack.append(frame)
            if is_enum:
                self.enum_depth += 1
            elif is_contains and self.enum_depth:
                self.contains_under_enum += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_enum:
                    self.roots += len(result)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                if is_enum:
                    self.enum_depth -= 1
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                if self.stack:
                    self.stack[-1][0] += dur
                if self.context is not None:
                    key = (self.context, name)
                    self.context_calls[key] = self.context_calls.get(key, 0) + 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (span_id, name, start - self.origin, end - self.origin, parent)
                    )
                else:
                    self.dropped += 1

        return wrapper

    def summary(self) -> dict:
        """Aggregates that several traced processes can add up."""
        return {
            "stats": self.stats,
            "roots": self.roots,
            "contains_under_enum": self.contains_under_enum,
            "context_calls": [[c, n, k] for (c, n), k in self.context_calls.items()],
        }


def merge(summaries: list[dict]) -> dict:
    out = {"stats": {}, "roots": 0, "contains_under_enum": 0, "context_calls": {}}
    for s in summaries:
        for name, (calls, self_s, total_s) in s["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        out["roots"] += s["roots"]
        out["contains_under_enum"] += s["contains_under_enum"]
        for c, n, k in s["context_calls"]:
            out["context_calls"][(c, n)] = out["context_calls"].get((c, n), 0) + k
    return out


def layer_metrics(merged: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: calls and self_s per function, self_s per layer,
    the candidates the root search tests with contains and the share of them
    that are roots, and is_primitive calls under criterion 2."""
    out: dict[str, tuple[float, str]] = {}
    for layer, attrs in LAYERS.items():
        layer_self = 0.0
        for attr in attrs:
            calls, self_s, _ = merged["stats"].get(f"{layer}.{attr}", (0, 0.0, 0.0))
            out[f"{layer}.{attr}.calls"] = (calls, "count")
            out[f"{layer}.{attr}.self_s"] = (self_s, "s")
            layer_self += self_s
        out[f"{layer}.self_s"] = (layer_self, "s")
    contains = merged["contains_under_enum"]
    out["positivity.enumerate_obstructing_roots.contains_calls"] = (contains, "count")
    out["positivity.roots_per_contains"] = (merged["roots"] / contains if contains else 0.0, "ratio")
    out["criterion2.lattice.is_primitive.calls"] = (
        merged["context_calls"].get(("criterion2", PRIMITIVE), 0),
        "count",
    )
    return out
