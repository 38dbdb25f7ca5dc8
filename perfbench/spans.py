"""Span recorder for the traced run, installed from outside the package.

``Tracer.install`` replaces the layer-boundary functions of every
``smith_tate`` module, and a few methods, with wrappers that record a span
(name, start, end, parent, op) and the size counters named in the
benchmark's doc.  Every module namespace that imported a wrapped function
by name gets the wrapper too, so calls between modules are seen.
``uninstall`` puts the originals back.  Spans live in flat arrays in
memory and are written out once, at the end.

Left unwrapped: the per-entry polynomial arithmetic of ``ratfun`` and the
primality helpers of ``fp_core``.  They are called per matrix entry, so a
span each would multiply the traced run's time without naming a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from array import array

import numpy as np

LAYERS = (
    "cli",
    "complexes",
    "fp_core",
    "ratfun",
    "tate",
    "module_decomp",
    "spectral",
    "persistence",
    "morse_bzp",
    "random_instances",
)

_UNWRAPPED = {
    "ratfun": {"pnorm", "pconst", "pupow", "padd", "psub", "pmul", "pdivmod", "pdiv_exact", "pgcd", "pmonic", "peval"},
    "fp_core": {"is_prime", "check_prime"},
}

_METHODS = {
    "complexes": {"ChainComplex": ("homology_dims", "homology_basis", "express_in_homology")},
    "tate": {"TateComplexView": ("__init__",)},
    "spectral": {"EquivariantFloerModel": ("__init__", "square_is_zero", "tate_parity_dims")},
}

RANK_LEAVES = ("ratfun.poly_matrix_ranks", "ratfun.bareiss_rank", "ratfun.ratfun_rank_by_evaluation")
RANK_GROUP = RANK_LEAVES + ("ratfun.poly_matrix_rank", "ratfun.ratfun_rank")
HOMOLOGY = tuple(f"complexes.ChainComplex.{m}" for m in _METHODS["complexes"]["ChainComplex"])


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_frac", "_exp")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def minor_degree_bound(mat) -> int:
    """Degree bound D of every maximal minor of a polynomial matrix."""
    if not mat or not mat[0]:
        return 0
    row_deg = sum(max((len(e) - 1 for e in row if e), default=0) for row in mat)
    col_deg = sum(
        max((len(row[j]) - 1 for row in mat if row[j]), default=0) for j in range(len(mat[0]))
    )
    return min(row_deg, col_deg)


def _shape(mat) -> tuple[int, int]:
    return len(mat), (len(mat[0]) if mat else 0)


# counter hooks: (args, kwargs, result, outer) -> {counter: increment}
def _poly_ranks(a, kw, res, outer):
    mats = [m for m in a[0] if _shape(m)[0] and _shape(m)[1]]
    return {
        "ratfun.block_cells": sum(r * c for r, c in map(_shape, a[0])),
        "ratfun.degree_bound": max((minor_degree_bound(m) for m in mats), default=0),
    }


def _bareiss(a, kw, res, outer):
    r, c = _shape(a[0])
    return {"ratfun.block_cells": r * c, "ratfun.degree_bound": minor_degree_bound(a[0])}


def _fp_cells(a, kw, res, outer):
    return {"fp_core.cells": a[0].rows * a[0].cols} if outer else {}


def _quasi_frobenius(a, kw, res, outer):
    words = sum(len(v) for v in res.chain_map.values()) + sum(len(c.defect) for c in res.certificates)
    return {"tate.qf_words": words, "tate.certificates": len(res.certificates)}


def _smith_probes(a, kw, res, outer):
    b1, bp, p = a[0], a[1], a[2]
    events = set(b1.endpoints()) | {e / p for e in bp.endpoints()}
    return {"persistence.probes": len(events) + 1}


_COUNTERS = {
    "ratfun.poly_matrix_ranks": _poly_ranks,
    "ratfun.bareiss_rank": _bareiss,
    "fp_core.rank": _fp_cells,
    "fp_core.rref": _fp_cells,
    "fp_core.solve": _fp_cells,
    "fp_core.kernel_basis": _fp_cells,
    "tate.quasi_frobenius": _quasi_frobenius,
    "spectral.action_ss_pages": lambda a, kw, res, outer: {"spectral.pages": len(res.pages)},
    "persistence.smith_barcode_check": _smith_probes,
    "persistence.barcode_from_filtered": lambda a, kw, res, outer: {"persistence.columns": a[0].dim()},
    "complexes.complex_from_json": lambda a, kw, res, outer: {"complexes.generators": res.dim()},
}

# size of one call for the scaling exponents
_SIZES = {
    "tate.tate_cohomology_dims": lambda a: a[0].dim(),
    "spectral.action_ss_pages": lambda a: a[0].dim(),
    "persistence.smith_barcode_check": lambda a: len(a[0].bars) + len(a[1].bars),
}


class Tracer:
    def __init__(self):
        import smith_tate.errors

        self._error_type = smith_tate.errors.SmithTateError
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.errors = array("b")
        self.sizes: dict[int, int] = {}
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self.current_op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        layer = name.split(".", 1)[0]
        hook = _COUNTERS.get(name)
        sizer = _SIZES.get(name)
        clock = time.perf_counter
        err_type = self._error_type
        tr = self

        def wrapper(*args, **kwargs):
            parent = tr._stack[-1]
            idx = len(tr.start)
            tr.name_ids.append(nid)
            tr.parent.append(parent)
            tr.op.append(tr.current_op)
            tr.errors.append(0)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except err_type:
                tr.errors[idx] = 1
                raise
            finally:
                tr.end[idx] = clock()
                tr._stack.pop()
            if hook is not None:
                outer = parent < 0 or not tr.names[tr.name_ids[parent]].startswith(layer + ".")
                for k, v in hook(args, kwargs, result, outer).items():
                    tr.counters[k] = tr.counters.get(k, 0) + v
            if sizer is not None:
                tr.sizes[idx] = sizer(args)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"smith_tate.{layer}") for layer in LAYERS}
        modules["__init__"] = importlib.import_module("smith_tate")
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in list(vars(mod).items()):
                if (
                    callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__
                    and not attr.startswith("_")
                    and attr not in _UNWRAPPED.get(layer, ())
                ):
                    replace[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for m in methods:
                    fn = vars(cls).get(m) if cls is not None else None
                    if fn is None:
                        continue  # gone from the program: its metrics read 0
                    self._patches.append((cls, m, fn))
                    setattr(cls, m, self._wrap(f"{layer}.{cls_name}.{m}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent, op, error]."""
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"fields": ["name", "start", "end", "parent", "op", "error"], "spans": [\n')
            n = len(self.start)
            for i in range(n):
                row = [self.names[self.name_ids[i]], round(self.start[i], 7), round(self.end[i], 7),
                       self.parent[i], self.op[i], self.errors[i]]
                f.write(json.dumps(row) + (",\n" if i + 1 < n else "\n"))
            f.write("]}\n")


def _mask(names: list[str], name_ids: np.ndarray, wanted) -> np.ndarray:
    ids = [i for i, n in enumerate(names) if wanted(n)]
    return np.isin(name_ids, ids)


def _outermost(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans in mask with no ancestor in mask."""
    n = len(mask)
    ext_mask = np.append(mask, False)  # index -1 -> the appended False
    anc = np.zeros(n + 1, dtype=bool)
    par = np.where(parent < 0, n, parent)
    for _ in range(64):
        new = ext_mask[par] | anc[par]
        if np.array_equal(new, anc[:n]):
            break
        anc[:n] = new
    return mask & ~anc[:n]


def scaling_exponent(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when fewer
    than two distinct sizes were seen."""
    pts = [(math.log(s), math.log(t)) for s, t in zip(sizes, times) if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-pass per-layer numbers from the recorded spans."""
    name_ids = np.array(tr.name_ids, dtype=np.int32)
    parent = np.array(tr.parent, dtype=np.int32)
    dur = np.array(tr.end) - np.array(tr.start)
    names = tr.names
    child = np.zeros(len(dur) + 1)
    np.add.at(child, np.where(parent < 0, len(dur), parent), dur)
    self_t = dur - child[: len(dur)]
    errors = np.array(tr.errors, dtype=bool)

    def count(pred):
        return int(_mask(names, name_ids, pred).sum())

    def inclusive(pred):
        return float(dur[_outermost(_mask(names, name_ids, pred), parent)].sum())

    def self_time(pred):
        return float(self_t[_mask(names, name_ids, pred)].sum())

    def named(*full):
        return lambda n: n in full

    def layer(prefix):
        return lambda n: n.startswith(prefix + ".")

    m: dict[str, float] = {}
    c = tr.counters
    m["ratfun.rank_calls"] = count(named(*RANK_LEAVES))
    m["ratfun.rank_s"] = inclusive(named(*RANK_GROUP))
    m["ratfun.block_cells"] = c.get("ratfun.block_cells", 0)
    m["ratfun.degree_bound"] = c.get("ratfun.degree_bound", 0)
    polymat = lambda n: n.startswith("ratfun.poly_mat_")  # noqa: E731
    m["ratfun.polymat_calls"] = count(polymat)
    m["ratfun.polymat_s"] = inclusive(polymat)
    m["tate.view_s"] = inclusive(named("tate.TateComplexView.__init__"))
    m["tate.dims_self_s"] = self_time(named("tate.tate_cohomology_dims"))
    m["tate.qf_s"] = inclusive(named("tate.quasi_frobenius"))
    m["tate.qf_words"] = c.get("tate.qf_words", 0)
    m["tate.certificates"] = c.get("tate.certificates", 0)
    m["tate.group_s"] = inclusive(named("tate.group_cohomology_dims"))
    m["spectral.model_build_s"] = inclusive(named("spectral.EquivariantFloerModel.__init__"))
    m["spectral.algebraic_self_s"] = self_time(named("spectral.algebraic_ss_pages"))
    m["spectral.action_calls"] = count(named("spectral.action_ss_pages"))
    m["spectral.action_self_s"] = self_time(named("spectral.action_ss_pages"))
    m["spectral.pages"] = c.get("spectral.pages", 0)
    m["fp_core.calls"] = count(layer("fp_core"))
    m["fp_core.self_s"] = self_time(layer("fp_core"))
    m["fp_core.cells"] = c.get("fp_core.cells", 0)
    m["persistence.smith_calls"] = count(named("persistence.smith_barcode_check"))
    m["persistence.smith_self_s"] = self_time(named("persistence.smith_barcode_check"))
    m["persistence.probes"] = c.get("persistence.probes", 0)
    m["persistence.window_dim_calls"] = count(named("persistence.window_dim"))
    m["persistence.window_dim_s"] = inclusive(named("persistence.window_dim"))
    m["persistence.reduce_calls"] = count(named("persistence.barcode_from_filtered"))
    m["persistence.reduce_s"] = inclusive(named("persistence.barcode_from_filtered"))
    m["persistence.columns"] = c.get("persistence.columns", 0)
    m["persistence.torsion_s"] = inclusive(named("persistence.torsion_witness"))
    m["cli.calls"] = count(named("cli.dispatch"))
    m["cli.self_s"] = self_time(layer("cli"))
    total_cli = inclusive(named("cli.dispatch"))
    m["cli.self_frac"] = m["cli.self_s"] / total_cli if total_cli else 0.0
    m["complexes.parse_calls"] = count(named("complexes.complex_from_json"))
    m["complexes.parse_s"] = inclusive(named("complexes.complex_from_json"))
    m["complexes.generators"] = c.get("complexes.generators", 0)
    m["complexes.homology_calls"] = count(named(*HOMOLOGY))
    m["complexes.homology_s"] = inclusive(named(*HOMOLOGY))
    m["module_decomp.calls"] = count(layer("module_decomp"))
    m["module_decomp.s"] = inclusive(layer("module_decomp"))
    m["morse_bzp.s"] = inclusive(layer("morse_bzp"))
    # typed errors that leave a layer: the span raised and its caller is
    # another layer (or the harness)
    span_layer = np.array([names[i].split(".", 1)[0] for i in name_ids], dtype=object)
    parent_layer = np.append(span_layer, "")[np.where(parent < 0, len(span_layer), parent)]
    crossing = errors & (span_layer != parent_layer)
    for lay in LAYERS:
        if lay != "cli":
            m[f"{lay}.errors"] = int((crossing & (span_layer == lay)).sum())
    for key in list(m):
        if not key.endswith(("_frac",)):
            m[key] = m[key] / passes
    for metric, name in (
        ("tate.dims_scaling_exp", "tate.tate_cohomology_dims"),
        ("spectral.action_scaling_exp", "spectral.action_ss_pages"),
        ("persistence.smith_scaling_exp", "persistence.smith_barcode_check"),
    ):
        idx = [i for i in tr.sizes if names[name_ids[i]] == name]
        m[metric] = scaling_exponent([tr.sizes[i] for i in idx], [float(dur[i]) for i in idx])
    return m
