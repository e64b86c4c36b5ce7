"""Outside-in tracing: wrap the calls into each `jointspec` layer, and the
scipy/numpy calls below `operators`, and record one span per call.

Nothing under the library changes.  Every wrapped callable is replaced under
each name its callers look it up by: the module attribute that holds the
original object, in every `jointspec` module (so `sweep`'s imported
`clifford_gap` is traced too), and for scipy/numpy the attribute that the
library or scipy itself reads at call time.  Wrappers are installed before
`jointspec` is imported, so later ``from scipy... import splu`` lines are
covered too, and they only record while the tracer is enabled.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

LAYERS = ("models", "composites", "operators", "sweep", "truncation",
          "states", "cli")
#: scipy/numpy calls below `operators`
NUMERIC = "numeric"

# class methods worth a span of their own, per module
_METHODS = {
    "models": {"LatticeModelSpec": ("build",), "ScaledTuple": ("build",)},
    "composites": {"ObservableTuple": ("__init__",)},
    "operators": {"HermitianOperator": ("__init__",)},
    "sweep": {"GapGrid": ("to_csv", "to_pgm", "to_json")},
}
# private functions that a per-layer metric names, wrapped when present
_PRIVATE = {"states": ("_energy_weights",), "cli": ("main",)}


def _grid_meta(grid, args, kwargs):
    skipped = int(grid.skipped_mask.sum())
    return {"cells": int(grid.values.size), "skipped": skipped,
            "workers": kwargs.get("workers", 1),
            "pruned": kwargs.get("pruning") is not None}


_RESULT_META = {
    "sweep.sweep_grid": _grid_meta,
    "truncation.compress_to_ball": lambda res, a, k: {"dim": int(res[1].size)},
}


class Tracer:
    """Keeps spans in memory: [id, name, layer, start, end, parent, thread,
    meta].  Worker threads that start with an empty stack take the main
    thread's innermost open span as parent."""

    def __init__(self, workload):
        self.workload = workload
        self.enabled = False
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []

    # -- recording ----------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, layer, meta=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            rec = [next(tracer._ids), name, layer, time.perf_counter(), None,
                   parent, threading.get_ident(), None]
            tracer.spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
                if meta is not None:
                    rec[7] = meta(result, args, kwargs)
                return result
            except BaseException as exc:
                rec[7] = {"error": type(exc).__name__,
                          "sigma": kwargs.get("sigma")}
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()

        return traced

    # -- installation -------------------------------------------------------

    def install_numeric(self):
        """Wrap splu (and the returned factor's solve), eigsh, svds, eigvalsh
        and eigh.  Call before importing jointspec."""
        import numpy as np
        import scipy.sparse.linalg as spla
        from scipy.sparse.linalg._eigen.arpack import arpack

        tracer = self
        solve = None

        class TracedLU:
            """SuperLU stand-in whose solve() is traced."""

            __slots__ = ("_lu",)

            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                return solve(self._lu, *args, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        solve = self.wrap(lambda lu, *a, **k: lu.solve(*a, **k),
                          "superlu.solve", NUMERIC)
        orig_splu = spla.splu
        traced_splu = self.wrap(orig_splu, "scipy.splu", NUMERIC)

        @functools.wraps(orig_splu)
        def splu(*args, **kwargs):
            lu = traced_splu(*args, **kwargs)
            return TracedLU(lu) if tracer.enabled else lu

        spla.splu = arpack.splu = splu
        eigsh_meta = lambda res, a, k: {"sigma": k.get("sigma")}  # noqa: E731
        spla.eigsh = self.wrap(spla.eigsh, "scipy.eigsh", NUMERIC, eigsh_meta)
        spla.svds = self.wrap(spla.svds, "scipy.svds", NUMERIC)
        np.linalg.eigvalsh = self.wrap(np.linalg.eigvalsh, "numpy.eigvalsh",
                                       NUMERIC)
        np.linalg.eigh = self.wrap(np.linalg.eigh, "numpy.eigh", NUMERIC)

    def install_jointspec(self):
        """Wrap every public function of each layer module, the class
        methods in _METHODS and the private hooks in _PRIVATE."""
        import importlib
        import jointspec
        mods = {layer: importlib.import_module(f"jointspec.{layer}")
                for layer in LAYERS}
        namespaces = [jointspec] + list(mods.values())
        for layer, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(_PRIVATE.get(layer, ()))
            for attr in names:
                obj = getattr(mod, attr, None)
                if not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(obj, name, layer, _RESULT_META.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, traced)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = cls.__dict__.get(meth) if cls is not None else None
                    if callable(fn):
                        setattr(cls, meth, self.wrap(
                            fn, f"{layer}.{cls_name}.{meth}", layer))

    # -- output -------------------------------------------------------------

    def write(self, path, spans):
        """One JSON object per span."""
        keys = ("id", "name", "layer", "start", "end", "parent", "thread",
                "meta")
        with open(path, "w", encoding="ascii") as fh:
            for rec in spans:
                doc = dict(zip(keys, rec))
                doc["workload"] = self.workload
                fh.write(json.dumps(doc, default=str) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _union(intervals):
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans, passes):
    """Per-layer metrics from the spans of `passes` traced passes."""
    by_id = {r[0]: r for r in spans}
    kids = {}
    for r in spans:
        kids.setdefault(r[5], []).append(r)

    def dur(r):
        return r[4] - r[3]

    def self_time(r):
        ivs = [(max(c[3], r[3]), min(c[4], r[4])) for c in kids.get(r[0], ())]
        return dur(r) - _union([iv for iv in ivs if iv[1] > iv[0]])

    def named(*names, parent=None):
        out = [r for r in spans if r[1] in names]
        if parent is not None:
            out = [r for r in out if r[5] in by_id and by_id[r[5]][1] == parent]
        return out

    def mean_ms(recs, f=dur):
        return 1e3 * sum(f(r) for r in recs) / len(recs) if recs else 0.0

    per_pass = lambda n: n / passes  # noqa: E731
    m = {}
    layer_self = {layer: 0.0 for layer in LAYERS + (NUMERIC,)}
    for r in spans:
        layer_self[r[2]] += self_time(r)
    for layer, sec in layer_self.items():
        m[f"{layer}.self_ms_per_pass"] = per_pass(1e3 * sec)

    builds = [r for r in spans if r[2] == "models"
              and not (r[5] in by_id and by_id[r[5]][2] == "models")]
    m["models.build_ms"] = mean_ms(builds)
    m["sweep.fingerprint_ms"] = mean_ms(named("sweep.model_fingerprint"))

    m["composites.assemble_ms"] = mean_ms(
        named("composites.localizer", "composites.quadratic_operator"))
    m["composites.validate_ms"] = mean_ms(
        named("operators.HermitianOperator.__init__"))
    qgaps = named("composites.quadratic_gap")
    fallback = [r for r in qgaps if any(
        c[1] == "operators.smallest_singular_value" for c in kids.get(r[0], ()))]
    m["composites.fallback_calls"] = per_pass(len(fallback))
    m["composites.fallback_ratio"] = len(fallback) / len(qgaps) if qgaps else 0.0

    dense = named("numpy.eigvalsh", "numpy.eigh")
    eigsh = named("scipy.eigsh")
    splu = named("scipy.splu")
    solves = named("superlu.solve")
    err = lambda r: (r[7] or {}).get("error")  # noqa: E731
    sigma = lambda r: (r[7] or {}).get("sigma")  # noqa: E731
    m["operators.dense_solve_ms"] = mean_ms(dense)
    m["operators.path_dense"] = per_pass(len(dense))
    m["operators.path_shift_invert"] = per_pass(sum(
        1 for r in eigsh if sigma(r) == 0 and not err(r)))
    m["operators.path_jitter"] = per_pass(sum(
        1 for r in eigsh if sigma(r) not in (0, None) and not err(r)))
    m["operators.path_singular"] = per_pass(sum(
        1 for r in eigsh if sigma(r) not in (0, None) and err(r) == "RuntimeError"))
    m["operators.jitter_retries"] = per_pass(sum(
        1 for r in eigsh if sigma(r) == 0 and err(r) == "RuntimeError"))
    m["operators.factorizations"] = per_pass(len(splu))
    m["operators.factorize_ms"] = mean_ms(splu)
    m["operators.eigsh_ms"] = mean_ms(eigsh, lambda r: dur(r) - sum(
        dur(c) for c in kids.get(r[0], ()) if c[1] == "scipy.splu"))
    m["operators.solves_per_eigsh"] = len(solves) / len(eigsh) if eigsh else 0.0
    m["operators.norm_ms"] = mean_ms(named("operators.operator_norm"))

    grids = named("sweep.sweep_grid")
    cells = sum(r[7]["cells"] for r in grids if r[7])
    skipped = sum(r[7]["skipped"] for r in grids if r[7])
    m["sweep.self_ms_per_cell"] = (1e3 * sum(self_time(r) for r in grids) / cells
                                   if cells else 0.0)
    m["sweep.serialize_ms"] = mean_ms(named(
        "sweep.GapGrid.to_csv", "sweep.GapGrid.to_pgm", "sweep.GapGrid.to_json"))
    pruned = sum(r[7]["cells"] for r in grids if r[7] and r[7]["pruned"])
    m["sweep.cells_evaluated"] = per_pass(cells - skipped)
    m["sweep.cells_skipped"] = per_pass(skipped)
    m["sweep.skip_ratio"] = skipped / pruned if pruned else 0.0

    m["truncation.constant_ms"] = mean_ms(named("truncation.perturbation_constant"))
    m["truncation.compressed_gap_ms"] = mean_ms(
        named("composites.quadratic_gap", parent="truncation.truncated_gap"))
    balls = named("truncation.compress_to_ball")
    m["truncation.ball_dim"] = (sum(r[7]["dim"] for r in balls) / len(balls)
                                if balls else 0.0)

    m["states.minimizing_state_ms"] = mean_ms(
        named("composites.minimizing_state", parent="states.extract_state"))
    m["states.gap_ms"] = mean_ms(
        named("composites.quadratic_gap", parent="states.extract_state"))
    m["states.energy_weights_ms"] = mean_ms(named("states._energy_weights"))

    mains = [r for r in named("cli.main")
             if not (r[5] in by_id and by_id[r[5]][1] == "cli.main")]
    m["cli.self_ms"] = (1e3 * layer_self["cli"] / len(mains)) if mains else 0.0
    return m


def sweep_rate(spans, workers):
    """Cells per second over the unpruned sweep_grid spans run with
    `workers` (a pruned sweep runs sequentially whatever `workers` says)."""
    recs = [r for r in spans if r[1] == "sweep.sweep_grid" and r[7]
            and r[7]["workers"] == workers and not r[7]["pruned"]]
    secs = sum(r[4] - r[3] for r in recs)
    return sum(r[7]["cells"] for r in recs) / secs if secs else 0.0
