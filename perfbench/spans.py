"""Spans around the calls into each tverlab layer, recorded from outside.

`install(tracer)` replaces the entry points of every layer module with
wrappers that open a span (name, start, end, parent) on a `Tracer`.
Modules that imported a function by name (`from .geometry import
lp_solve_eq`) hold their own reference, so every `tverlab` module's
namespace is searched and each reference to a wrapped function is
replaced too, and `install` returns the function that undoes all of it.
Spans stay in memory; `write` stores them as CSV at the end of the run.

Tiny helpers that run millions of times (`geometry.as_point`) are left
unwrapped: a span costs about a microsecond, more than they do, and
their time counts toward the layer that called them.
"""
from __future__ import annotations

import csv
import sys
from collections import defaultdict
from time import perf_counter

# layer -> entry points: module-level functions, or "Class.method"
LAYERS = {
    "kernels": ("tverlab.kernels", ("phase1",)),
    "geometry": ("tverlab.geometry", ("lp_solve_eq", "common_point_gap", "affine_dim")),
    "model": ("tverlab.model", ("enumerate_colorful_partitions", "partition_is_valid")),
    "linalg": ("tverlab.linalg", ("rank", "solve", "nullspace", "det")),
    "solver": (
        "tverlab.solver",
        (
            "solve_tverberg",
            "solve_transversal",
            "solve_hyperplane_transversal_exact",
            "verify_tverberg",
            "verify_transversal",
            "KPlane.__post_init__",
            "KPlane.contains",
        ),
    ),
    "topology": (
        "tverlab.topology",
        (
            "SimplicialComplex.__init__",
            "SimplicialComplex.faces_by_dim",
            "boundary_matrix",
            "_rank_mod_p",
            "homology_mod_p",
            "is_pseudo_manifold",
            "orient",
            "test_map_degree",
        ),
    ),
    "serialize": (
        "tverlab.serialize",
        ("certificate_to_json", "certificate_from_json", "canonical_bytes"),
    ),
}
GENERATORS = {"model.enumerate_colorful_partitions"}


class Tracer:
    """Span recorder with per-name call counts, inclusive and self time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self._stack: list[list] = []  # [span_index, seconds covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([nid, perf_counter(), 0.0, parent])

    def exit(self) -> None:
        end = perf_counter()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        name = self.names[span[0]]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["span", "name", "start_s", "end_s", "parent"])
            for i, (nid, start, end, parent) in enumerate(self.spans):
                out.writerow([i, self.names[nid], f"{start:.9f}", f"{end:.9f}", parent])


def _observe(tracer: Tracer, name: str, args, result) -> None:
    """Counts read at the layer boundary from arguments and return values."""
    c = tracer.counters
    if name == "kernels.phase1":
        nrows, ncols = args[0], args[1]
        feasible, _, xden, _, gapden, pivots = result
        c["kernels.pivots"] += pivots
        c["kernels.cell_updates"] += pivots * (nrows + 1) * (ncols + nrows + 1)
        c["kernels.den_bits"] += (xden if feasible else gapden).bit_length()
    elif name == "geometry.lp_solve_eq":
        c["geometry.feasible"] += result[0] is not None
    elif name.startswith("solver.solve_"):
        for key in ("partitions", "combos", "directions"):
            c["solver." + key] += result.stats.get(key, 0)
    elif name == "serialize.canonical_bytes":
        c["serialize.cert_bytes"] += len(result)
    elif name == "topology.SimplicialComplex.__init__":
        c["topology.facets"] += len(args[0].facets)
    elif name == "topology.boundary_matrix":
        c["topology.boundary_cells"] += len(result) * (len(result[0]) if result else 0)
    elif name == "topology.test_map_degree":
        c["topology.degree_facets"] += result.facets


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit
    if name in GENERATORS:

        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_()
                tracer.counters[name + ".items"] += 1
                yield item

        return generator

    def wrapper(*args, **kwargs):
        enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        _observe(tracer, name, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Wrap every layer entry point, including by-name imports of it.

    Returns a function that puts the original functions back.
    """
    undo = []
    replaced = {}
    for layer, (module_name, entries) in LAYERS.items():
        module = sys.modules[module_name]
        for entry in entries:
            name = f"{layer}.{entry}"
            if "." in entry:
                cls_name, meth = entry.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(tracer, name, original))
            else:
                original = getattr(module, entry)
                replaced[id(original)] = (original, _wrap(tracer, name, original))
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "tverlab" or mod_name.startswith("tverlab.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])

    def restore():
        for owner, attr, original in undo:
            setattr(owner, attr, original)

    return restore
