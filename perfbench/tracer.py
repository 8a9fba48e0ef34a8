"""Spans around the calls into laxlab's layers, recorded from outside.

The package imports names across modules (``from .mathcore import ...``,
``from .fredholm import nystrom_det``), so wrapping only the defining
module would miss most calls.  ``Tracer.install`` wraps every public
function of the traced modules at every ``laxlab.*`` module attribute bound
to that same function object, and ``uninstall`` puts the originals back.

Each call records one span: function, parent span, start, end and a work
measure (points, nodes, matrix order or samples, where one applies).  Spans
stay in compact arrays until the traced pass ends.  Self time is a span's
duration minus the durations of its direct children, so recursive calls
such as ``fd.central_diff`` are never counted twice.  ``intervals`` is not
traced: its constructors run inside every layer and count toward their
self time.  Only the main thread is traced; the sampler's worker threads
call no traced function.
"""

import inspect
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

# traced module -> layer
LAYERS = {
    "laxlab.mathcore.special": "special",
    "laxlab.mathcore.quadrature": "quadrature",
    "laxlab.mathcore.linalg": "linalg",
    "laxlab.fredholm": "fredholm",
    "laxlab.gapodes": "gapodes",
    "laxlab.fd": "gapodes",
    "laxlab.tau": "tau",
    "laxlab.toda": "toda",
    "laxlab.pfaff": "pfaff",
    "laxlab.twotoda": "twotoda",
    "laxlab.virasoro": "virasoro",
    "laxlab.ensembles": "ensembles",
    "laxlab.aci": "aci",
    "laxlab.cli": "cli",
}

SPECIAL = "laxlab.mathcore.special."
QUAD = "laxlab.mathcore.quadrature."
LINALG = "laxlab.mathcore.linalg."

AIRY = {SPECIAL + f for f in ("airy_ai", "airy_ai_prime", "airy_ai_vec")}
BESSEL = {SPECIAL + f for f in ("bessel_j", "bessel_j_prime")}
RULES = {QUAD + f for f in ("gauss_legendre_rule", "gauss_jacobi_rule",
                            "half_line_rule", "interval_rule", "union_rule")}
LU = {LINALG + "lu_determinant"}
EIG = {LINALG + "symmetric_eigen", LINALG + "symmetric_eigensystem"}
SKEW = {LINALG + "skew_borel", LINALG + "pfaffian"}
CHECKS = {"laxlab.gapodes." + f for f in ("pii_residual", "pv_residual",
                                          "airy_pde_residual",
                                          "bessel_pde_residual")}


def _nodes(args, kwargs, result):
    return len(result[0])


# function -> work measure of one call
WORK = {
    SPECIAL + "airy_ai": lambda a, k, r: 1,
    SPECIAL + "airy_ai_prime": lambda a, k, r: 1,
    SPECIAL + "airy_ai_vec": lambda a, k, r: np.size(a[0]),
    LINALG + "lu_determinant": lambda a, k, r: np.shape(a[0])[0],
    "laxlab.fredholm.nystrom_matrix": lambda a, k, r: r[0].shape[0],
    "laxlab.ensembles.sample_ensemble":
        lambda a, k, r: a[1] if len(a) > 1 else k["count"],
    **{name: _nodes for name in RULES},
}


def traced_functions():
    """{qualified name: function} of every public function to trace."""
    out = {}
    for modname in LAYERS:
        module = sys.modules[modname]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == modname):
                out[f"{modname}.{name}"] = obj
    return out


class Tracer:
    """Wraps the traced functions and keeps the spans of one traced pass."""

    def __init__(self):
        import laxlab.cli  # noqa: F401  (imports every traced module)

        self.functions = traced_functions()
        self.names = sorted(self.functions)
        self._fid = {id(self.functions[n]): i for i, n in enumerate(self.names)}
        self._wrappers = [self._wrap(i, self.functions[n], WORK.get(n))
                          for i, n in enumerate(self.names)]
        self._installed = []
        self.sites = 0
        self.reset()

    def reset(self):
        self.fid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]

    def _wrap(self, fid, fn, work):
        main = threading.main_thread().ident

        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            i = len(self.fid)
            self.fid.append(fid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self.work.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if work is not None:
                self.work[i] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Bind the wrappers at every laxlab.* attribute holding a traced
        function; ``sites`` counts the bindings."""
        for modname, module in list(sys.modules.items()):
            if modname != "laxlab" and not modname.startswith("laxlab."):
                continue
            for attr, obj in list(vars(module).items()):
                fid = self._fid.get(id(obj))
                if fid is not None and obj is self.functions[self.names[fid]]:
                    setattr(module, attr, self._wrappers[fid])
                    self._installed.append((module, attr, obj))
        self.sites = len(self._installed)

    def uninstall(self):
        for module, attr, obj in self._installed:
            setattr(module, attr, obj)
        self._installed = []

    def spans(self):
        """The recorded spans as numpy arrays."""
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }


def save_spans(path, names, spans):
    np.savez_compressed(path, names=np.array(names), **spans)


def _within(start, end, outer_start, outer_end):
    """Index of the outer span containing each span, or -1.  Outer spans
    must be disjoint and sorted by start."""
    idx = np.searchsorted(outer_start, start, side="right") - 1
    ok = idx >= 0
    ok[ok] = end[ok] <= outer_end[idx[ok]]
    return np.where(ok, idx, -1)


def analyse(names, spans):
    """Layer metrics of one traced pass, from per-function counts, work
    and self time."""
    fid, parent = spans["fid"], spans["parent"]
    start, end, work = spans["start"], spans["end"], spans["work"]
    nf = len(names)
    dur = end - start
    child = parent >= 0
    self_t = dur - np.bincount(parent[child], weights=dur[child],
                               minlength=len(fid))
    pfid = np.where(child, fid[np.where(child, parent, 0)], -1)

    count = np.bincount(fid, minlength=nf)
    self_by_f = np.bincount(fid, weights=self_t, minlength=nf)
    work_by_f = np.bincount(fid, weights=work, minlength=nf)
    index = {n: i for i, n in enumerate(names)}

    def ids(group):
        return [index[n] for n in group if n in index]

    def calls(group):
        return int(count[ids(group)].sum())

    def self_s(group):
        return float(self_by_f[ids(group)].sum())

    def work_of(group):
        return float(work_by_f[ids(group)].sum())

    def layer(name):
        return {n for n in names if LAYERS[n.rsplit(".", 1)[0]] == name}

    rule_ids = np.array(ids(RULES))
    outer_rule = np.isin(fid, rule_ids) & ~np.isin(pfid, rule_ids)
    ode_steps = (np.isin(fid, ids(EIG))
                 & (pfid == index["laxlab.toda.toda_ode_flow"]))

    check_ids = np.array(ids(CHECKS))
    outer_check = np.isin(fid, check_ids) & ~np.isin(pfid, check_ids)
    det_id = index["laxlab.fredholm.nystrom_det"]
    inside = _within(start, end, start[outer_check], end[outer_check])
    checks = int(outer_check.sum())
    dets_in_checks = int(((fid == det_id) & (inside >= 0)).sum())

    sample = "laxlab.ensembles.sample_ensemble"
    lu_n = work[fid == index[LINALG + "lu_determinant"]]

    metrics = {
        "special.airy.points": work_of(AIRY),
        "special.airy.self_s": self_s(AIRY),
        "special.bessel.calls": calls({SPECIAL + "bessel_j"}),
        "special.bessel.self_s": self_s(BESSEL),
        "quadrature.rules": int(outer_rule.sum()),
        "quadrature.nodes": float(work[outer_rule].sum()),
        "quadrature.self_s": self_s(layer("quadrature")),
        "linalg.lu.calls": calls(LU),
        "linalg.lu.flops": float((2.0 * lu_n ** 3 / 3.0).sum()),
        "linalg.lu.self_s": self_s(LU),
        "linalg.eig.calls": calls(EIG),
        "linalg.eig.self_s": self_s(EIG),
        "linalg.skew.calls": calls(SKEW),
        "linalg.skew.self_s": self_s(SKEW),
        "fredholm.dets": calls({"laxlab.fredholm.nystrom_det"}),
        "fredholm.matrices": calls({"laxlab.fredholm.nystrom_matrix"}),
        "fredholm.nodes": work_of({"laxlab.fredholm.nystrom_matrix"}),
        "fredholm.self_s": self_s(layer("fredholm")),
        "gapodes.stencils": calls({"laxlab.fd.central_diff"}),
        "gapodes.dets_per_check": dets_in_checks / checks if checks else 0.0,
        "gapodes.self_s": self_s(layer("gapodes")),
        "tau.moment_builds": calls({"laxlab.tau.hankel_moments",
                                    "laxlab.tau.hankel_from_sequence"}),
        "tau.evolutions": calls({"laxlab.tau.evolve_hankel"}),
        "tau.self_s": self_s(layer("tau")),
        "toda.ode_steps": int(ode_steps.sum()),
        "toda.self_s": self_s(layer("toda")),
        "pfaff.skew_moment_builds": calls({"laxlab.pfaff.skew_inner_products"}),
        "pfaff.self_s": self_s(layer("pfaff")),
        "twotoda.self_s": self_s(layer("twotoda")),
        "virasoro.self_s": self_s(layer("virasoro")),
        "ensembles.samples": work_of({sample}),
        "ensembles.sample_wall_s": float(dur[fid == index[sample]].sum()),
        "ensembles.gap_probabilities": calls(
            {"laxlab.ensembles.gap_probability"}),
        "ensembles.self_s": self_s(layer("ensembles")),
        "aci.flow_calls": calls({"laxlab.aci.aci_flow"}),
        "aci.self_s": self_s(layer("aci")),
        "cli.self_s": self_s(layer("cli")),
        "traced_s": float(dur[~child].sum()),
    }
    return metrics


def per_command(names, spans):
    """fredholm.dets and fredholm.matrices inside each cli.main span, in
    command order."""
    fid, start, end = spans["fid"], spans["start"], spans["end"]
    index = {n: i for i, n in enumerate(names)}
    main = fid == index["laxlab.cli.main"]
    owner = _within(start, end, start[main], end[main])
    dets = fid == index["laxlab.fredholm.nystrom_det"]
    matrices = fid == index["laxlab.fredholm.nystrom_matrix"]
    return [{"fredholm.dets": int((dets & (owner == k)).sum()),
             "fredholm.matrices": int((matrices & (owner == k)).sum())}
            for k in range(int(main.sum()))]
