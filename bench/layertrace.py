"""Outside-in tracer for the coversmooth layers.

The package is not edited.  ``Tracer.installed()`` replaces each traced
public function at every module global that binds it (``psh.mollify`` and
``smoothing.mollify`` are two sites of one function), patches the traced
methods on their classes, and wraps the evaluators of the fields that
``mollify``, ``pushforward`` and ``local_smooth`` return.  Every wrapper
opens a span; a span's self time is its duration minus the time of the
spans it encloses, so time spent in untraced code is charged to the
nearest traced caller.  Counts are taken at the same boundaries.

Spans are folded into per-name totals as they close (name, calls, self and
outermost inclusive seconds); only the number of spans is kept, not the
spans themselves.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

from coversmooth.geometry import as_points

LAYERS = ("geometry", "psh", "covers", "cocycle", "smoothing", "scenarios")

_FIBER_KIND = {"PowerCover": "power", "VietaCover": "vieta",
               "IdentityCover": "identity"}


def stencil_offsets(n: int) -> np.ndarray:
    """Integer real-coordinate offsets of the n-variable Levi stencil.

    Center; per complex coordinate the four axis shifts; per coordinate
    pair the four corners of each of the xx, yy, xy, yx cross stencils.
    That is 5 points for n=1 and 25 for n=2.
    """
    offs = [np.zeros(2 * n, dtype=np.int64)]
    for j in range(2 * n):
        for s in (1, -1):
            o = np.zeros(2 * n, dtype=np.int64)
            o[j] = s
            offs.append(o)
    for j in range(n):
        for k in range(j + 1, n):
            for a, b in ((2 * j, 2 * k), (2 * j + 1, 2 * k + 1),
                         (2 * j, 2 * k + 1), (2 * j + 1, 2 * k)):
                for sa in (1, -1):
                    for sb in (1, -1):
                        o = np.zeros(2 * n, dtype=np.int64)
                        o[a], o[b] = sa, sb
                        offs.append(o)
    return np.stack(offs)


def _reals(Z: np.ndarray) -> np.ndarray:
    X = np.empty((Z.shape[0], 2 * Z.shape[1]))
    X[:, 0::2] = Z.real
    X[:, 1::2] = Z.imag
    return X


class Tracer:
    """Span stack plus counters; install with ``with tracer.installed():``."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.reached = set()
        self.wrapped = set()
        self.spans = 0
        self._stack = []        # frames [name, start, child seconds]
        self._lattice = None    # (anchor reals, h, key blocks) inside min_levi
        self._undo = []

    # -- spans ------------------------------------------------------------
    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.spans += 1
        self.counts[name + ".calls"] += 1
        self.counts[name + ".self_s"] += dur - child
        if all(frame[0] != name for frame in self._stack):
            self.counts[name + ".s"] += dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, site: str, span: str, fn, before=None, after=None):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.reached.add(site)
            if before is not None:
                before(tracer, signature.bind(*args, **kwargs).arguments)
            out = None
            tracer.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave()
                if after is not None:
                    after(tracer, out)
            return out

        return traced

    def wrap_field(self, field, span: str, count) -> None:
        """Route a ScalarField's evaluator through a span of its own."""
        if field is None:
            return
        inner = field.evaluator
        tracer = self
        site = "field:" + span

        def traced_eval(Z):
            tracer.reached.add(site)
            count(tracer, Z)
            tracer.enter(span)
            try:
                return inner(Z)
            finally:
                tracer.leave()

        field.evaluator = traced_eval
        self.wrapped.add(site)

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self):
        mods = {name: importlib.import_module("coversmooth." + name)
                for name in LAYERS}
        try:
            for home, attr, span, before, after in _FUNCTIONS:
                original = mods[home].__dict__[attr]
                for mname, mod in mods.items():
                    if mod.__dict__.get(attr) is original:
                        site = f"{mname}.{attr}"
                        self.wrapped.add(site)
                        self._patch(mod, attr, self._wrap(site, span, original,
                                                          before, after))
            for home, cls, attr, span, before in _METHODS:
                klass = getattr(mods[home], cls)
                site = f"{home}.{cls}.{attr}"
                self.wrapped.add(site)
                self._patch(klass, attr, self._wrap(site, span,
                                                    klass.__dict__[attr], before))
            yield self
        finally:
            while self._undo:
                owner, attr, old = self._undo.pop()
                setattr(owner, attr, old)

    # -- derived metrics --------------------------------------------------
    def metrics(self) -> dict:
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        return {
            "psh.levi_form.calls": c["psh.levi_form.calls"],
            "psh.levi_form.stencil_pts": c["psh.levi_form.stencil_pts"],
            "psh.levi_form.distinct_pts": c["psh.levi_form.distinct_pts"],
            "psh.levi_form.useful_ratio": ratio("psh.levi_form.distinct_pts",
                                                "psh.levi_form.stencil_pts"),
            "psh.levi_form.self_s": c["psh.levi_form.self_s"],
            "psh.min_levi.nodes": c["psh.min_levi.nodes"],
            "psh.min_levi.s": c["psh.min_levi.s"],
            "psh.mollify.points": c["psh.mollify.points"],
            "psh.mollify.translates": c["psh.mollify.translates"],
            "psh.mollify.self_s": c["psh.mollify.self_s"],
            "psh.regmax.rows": c["psh.regmax.rows"],
            "psh.regmax.near_share": ratio("psh.regmax.near", "psh.regmax.rows"),
            "psh.regmax.self_s": c["psh.regmax.self_s"],
            "psh.laplacian_sup.s": c["psh.laplacian_sup.s"],
            "geometry.laplacian.stencil_pts": c["geometry.laplacian.stencil_pts"],
            "geometry.laplacian.self_s": c["geometry.laplacian.self_s"],
            "geometry.mass_integral.s": c["geometry.mass_integral.s"],
            "covers.fiber.rows_vieta": c["covers.fiber.rows_vieta"],
            "covers.fiber.rows_power": c["covers.fiber.rows_power"],
            "covers.fiber.rows_identity": c["covers.fiber.rows_identity"],
            "covers.fiber.self_s": c["covers.fiber.self_s"],
            "covers.pushforward.points": c["covers.pushforward.points"],
            "covers.pushforward.self_s": c["covers.pushforward.self_s"],
            "geometry.contains.rows": c["geometry.contains.rows"],
            "geometry.contains.self_s": c["geometry.contains.self_s"],
            "geometry.halton.points": c["geometry.halton.points"],
            "geometry.halton.self_s": c["geometry.halton.self_s"],
            "geometry.grid.nodes": c["geometry.grid.nodes"],
            "geometry.grid.self_s": c["geometry.grid.self_s"],
            "cocycle.overlap_map.rows": c["cocycle.overlap_map.rows"],
            "cocycle.validate.s": c["cocycle.validate.s"],
            "cocycle.curve_mass.s": c["cocycle.curve_mass.s"],
            "smoothing.local_smooth.calls": c["smoothing.local_smooth.calls"],
            "smoothing.local_smooth.s": c["smoothing.local_smooth.s"],
            "smoothing.psi.points": c["smoothing.psi.points"],
            "smoothing.psi.in_V_share": ratio("smoothing.psi.in_V",
                                              "smoothing.psi.points"),
            "smoothing.psi.self_s": c["smoothing.psi.self_s"],
            "trace.spans": float(self.spans),
        }


# -- counting hooks ---------------------------------------------------------

def _levi_before(t: Tracer, a: dict) -> None:
    h = a["h"]
    Z = as_points(a["Z"], getattr(a["f"], "n", None))
    offs = stencil_offsets(Z.shape[1])
    t.add("psh.levi_form.stencil_pts", Z.shape[0] * offs.shape[0])
    X = _reals(Z)
    lat = t._lattice
    if lat is not None and lat[1] == h:
        anchor, _, blocks = lat
        q = (X - anchor) / h
        keys = np.rint(q)
        if np.max(np.abs(q - keys), initial=0.0) < 1e-3:
            blocks.append(keys.astype(np.int64))
            return
    # not on a lattice of step h: distinct by exact coordinates, per call
    P = (X[:, None, :] + h * offs[None, :, :]).reshape(-1, offs.shape[1])
    t.add("psh.levi_form.distinct_pts", np.unique(P, axis=0).shape[0])


def lattice_stencil_points(nodes: np.ndarray) -> int:
    """Distinct stencil points of integer lattice nodes (rows of 2n ints),
    marked in a bitmap over their bounding box."""
    offs = stencil_offsets(nodes.shape[1] // 2)
    lo = nodes.min(axis=0) - 1
    span = nodes.max(axis=0) + 2 - lo
    seen = np.zeros(int(np.prod(span)), dtype=bool)
    for o in offs:
        seen[np.ravel_multi_index(tuple((nodes + o - lo).T), span)] = True
    return int(np.count_nonzero(seen))


def _min_levi_before(t: Tracer, a: dict) -> None:
    g = a["g"]
    t.add("psh.min_levi.nodes", len(g))
    t._lattice = (_reals(g.nodes[:1])[0], a["h"], [])


def _min_levi_after(t: Tracer, out) -> None:
    lat, t._lattice = t._lattice, None
    if lat is not None and lat[2]:
        t.add("psh.levi_form.distinct_pts",
              lattice_stencil_points(np.concatenate(lat[2])))


def _regmax_before(t: Tracer, a: dict) -> None:
    T1 = np.asarray(a["T1"], dtype=float)
    T2 = np.asarray(a["T2"], dtype=float)
    t.add("psh.regmax.rows", T1.size)
    t.add("psh.regmax.near",
          int(np.count_nonzero(np.abs(T1 - T2) < 2.0 * a["eta"])))
    if t.parent() == "smoothing.psi":
        t.add("smoothing.psi.in_V", T1.size)


def _points_counter(name: str, per_point: str = "", factor: int = 0):
    def count(t: Tracer, Z) -> None:
        m = np.asarray(Z).shape[0]
        t.add(name, m)
        if per_point:
            t.add(per_point, m * factor)
    return count


def _mollify_after(t: Tracer, out) -> None:
    if out is not None:
        t.wrap_field(out, "psh.mollify",
                     _points_counter("psh.mollify.points", "psh.mollify.translates",
                                     int(out.meta["kernel_nodes"])))


def _pushforward_after(t: Tracer, out) -> None:
    t.wrap_field(out, "covers.pushforward",
                 _points_counter("covers.pushforward.points"))


def _local_smooth_after(t: Tracer, out) -> None:
    if out is not None:
        t.wrap_field(out.psi, "smoothing.psi",
                     _points_counter("smoothing.psi.points"))
        # its own span, so regmax rows under it are not charged to a psi
        # that reaches it through an overlap lift
        t.wrap_field(out.correction, "smoothing.correction",
                     _points_counter("smoothing.correction.points"))


def _halton_after(t: Tracer, out) -> None:
    if out is not None:
        t.add("geometry.halton.points", out.shape[0])


def _grid_after(t: Tracer, out) -> None:
    if out is not None:
        t.add("geometry.grid.nodes", len(out))


def _laplacian_before(t: Tracer, a: dict) -> None:
    m, n = as_points(a["Z"], a["f"].n).shape
    t.add("geometry.laplacian.stencil_pts", m * (4 * n + 1))


def _contains_before(t: Tracer, a: dict) -> None:
    t.add("geometry.contains.rows", as_points(a["Z"], a["self"].n).shape[0])


def _fiber_before(t: Tracer, a: dict) -> None:
    cover = a["self"]
    kind = _FIBER_KIND[type(cover).__name__]
    t.add(f"covers.fiber.rows_{kind}", as_points(a["B"], cover.n).shape[0])


def _overlap_before(t: Tracer, a: dict) -> None:
    t.add("cocycle.overlap_map.rows", as_points(a["Z"], a["self"].region.n).shape[0])


# (home module, function, span, before hook, after hook); each function is
# wrapped at every layer module global that binds it
_FUNCTIONS = (
    ("geometry", "halton_sample", "geometry.halton", None, _halton_after),
    ("geometry", "sample_grid", "geometry.grid", None, _grid_after),
    ("geometry", "sample_slice_grid", "geometry.grid", None, _grid_after),
    ("geometry", "discrete_laplacian_many", "geometry.laplacian",
     _laplacian_before, None),
    ("geometry", "mass_integral", "geometry.mass_integral", None, None),
    ("psh", "levi_form_many", "psh.levi_form", _levi_before, None),
    ("psh", "min_levi_eigenvalue", "psh.min_levi", _min_levi_before,
     _min_levi_after),
    ("psh", "laplacian_sup", "psh.laplacian_sup", None, None),
    ("psh", "mollify", "psh.mollify.build", None, _mollify_after),
    ("psh", "reg_max_many", "psh.regmax", _regmax_before, None),
    ("covers", "pushforward", "covers.pushforward.build", None, _pushforward_after),
    ("cocycle", "validate_cocycle", "cocycle.validate", None, None),
    ("cocycle", "curve_mass", "cocycle.curve_mass", None, None),
    ("smoothing", "local_smooth", "smoothing.local_smooth", None,
     _local_smooth_after),
    ("smoothing", "global_glue", "smoothing.global_glue", None, None),
    ("smoothing", "smooth_pushforward", "smoothing.smooth_pushforward", None, None),
    ("scenarios", "build_scenario", "scenarios.build", None, None),
    ("scenarios", "run_scenario", "scenarios.run", None, None),
)

# (home module, class, method, span, before hook); patched on the class, so
# every subclass that inherits the method is traced too
_METHODS = (
    ("geometry", "Domain", "contains_many", "geometry.contains", _contains_before),
    ("covers", "PowerCover", "fiber_rows", "covers.fiber", _fiber_before),
    ("covers", "VietaCover", "fiber_rows", "covers.fiber", _fiber_before),
    ("covers", "IdentityCover", "fiber_rows", "covers.fiber", _fiber_before),
    ("cocycle", "ChartOverlap", "map_many", "cocycle.overlap_map", _overlap_before),
)


def stage_metrics(timings: dict) -> dict:
    """Fold run_scenario's per-check timings into the battery stages."""
    def total(pred):
        return float(sum(v for k, v in timings.items() if pred(k)))

    return {
        "scenarios.stage.pipeline_s": total(lambda k: k == "pipeline"),
        "scenarios.stage.levi_s": total(lambda k: k.startswith("levi_min_")),
        "scenarios.stage.c2_s": total(lambda k: k == "c2_ratios"),
        "scenarios.stage.mass_s": total(lambda k: k == "mass_conservation"),
        "scenarios.stage.agreement_s": total(
            lambda k: k.startswith("agreement_outside_N_sup")),
        "scenarios.stage.curve_mass_s": total(lambda k: k == "curve_mass_class"),
    }
