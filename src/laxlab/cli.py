"""Command-line reports for every checker and table generator.

Every subcommand runs one computation, prints a canonical JSON report
(sorted keys, %.17g floats) to stdout or writes JSON/CSV to --out, and
exits 0 on success, 2 on usage errors, 3 on numerical errors, and 4 when
--check finds a gated value above its bound: the largest residual above
--tol, or an extra gate of the command broken.  Reports with the same argv
and seed are bytewise identical at any thread count.
"""

import argparse
import functools
import itertools
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import aci, ensembles, fredholm, gapodes, pfaff, tau, toda, twotoda, virasoro
from . import fd  # noqa: F401  (perfbench/tracer.py traces laxlab.fd)
from .errors import NumericalError, UsageError
from .intervals import IntervalUnion
from .mathcore import orthonormal_polys
from .mathcore.ode import SEGMENTS, check_steps, segment_check

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_TOLERANCE = 0, 2, 3, 4
# rows per unit of k beyond the compared block that pfaff flow's AKS and ODE
# routes carry: with none, both solve the lattice truncated at that block's
# border, so they agree to 2e-13 there but miss the moment route by 0.093
# at t = 0.1 and by 7.9 at t = 1
PFAFF_ODE_MARGIN = 12
GAP_BUDGET = 1e-8  # fredholm gap's and ensemble gap's tau.refined budget


@dataclass
class RunReport:
    """One command's report: its fields are the JSON report's keys."""
    command: str
    params: dict
    rows: list
    max_abs_residual: float
    self_reported_error: float = 0.0
    seed: int = 0


@dataclass
class _Result:
    """A handler's rows and what dispatch gates: the largest of `residual`,
    a value or values (None: the rows' "residual" column), against --tol,
    whose default is `bound` where the arguments set it, and the largest of
    each (values, bound) of `gates` against its bound.  The largest of
    `err` is the report's error estimate."""
    rows: list
    residual: object = None
    err: object = 0.0
    bound: float = None
    gates: list = ()


# ----- canonical serialization -----

def _float_text(x):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _string_text(s):
    out = ['"']
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def canonical_json(value):
    """Deterministic JSON: sorted object keys, %.17g floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    if isinstance(value, str):
        return _string_text(value)
    if isinstance(value, dict):
        items = sorted((str(k), v) for k, v in value.items())
        body = ",".join(f"{_string_text(k)}:{canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    raise UsageError(f"cannot serialize {type(value).__name__} canonically")


def _cell_text(value):
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def emit_report(report, fmt):
    """Canonical bytes of the report: full JSON or rows-only CSV."""
    if fmt == "json":
        return (canonical_json(vars(report)) + "\n").encode()
    if fmt == "csv":
        if not report.rows:
            return b""
        # every row's keys, in the order they first appear; a row without
        # a column leaves its cell empty
        columns = list(dict.fromkeys(k for row in report.rows for k in row))
        lines = [",".join(columns)]
        for row in report.rows:
            lines.append(",".join(_cell_text(row.get(c, "")) for c in columns))
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown report format {fmt!r}")


# ----- argv helpers -----

class _Parser(argparse.ArgumentParser):
    def __init__(self, *pos, **kw):
        super().__init__(*pos, **kw)
        # values like "-inf:0", "-6:2:0.25" or "-s:s" are arguments: no
        # registered option starts with a digit or "-inf", or has a colon
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|\w*:)")

    def error(self, message):
        raise UsageError(message)


def parse_grid(text):
    """start:stop:step, endpoints inclusive up to rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"cannot parse grid {text!r}; expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"cannot parse grid {text!r}") from exc
    # written so that NaN and infinite values fail the test
    if not (step > 0.0 and 0.0 <= (stop - start) / step < 1e5):
        raise UsageError("grids need step > 0, stop >= start, <= 1e5 points")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return np.array([start + k * step for k in range(count)])


def finite_float(text):
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def seed_int(text):
    """argparse type: a non-negative integer, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed {text!r} is negative")
    return value


def parse_floats(text):
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse float list {text!r}") from exc


def parse_ints(text):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}") from exc


def _weight_from(args):
    return tau.WeightSpec(args.weight, a=args.a, b=args.b)


def _weight_flags(p, n, beta=None):
    """--weight, --a, --b and --n, and --beta where the command has one."""
    p.add_argument("--weight", default="gaussian",
                   choices=("gaussian", "laguerre", "uniform"))
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=n)
    if beta is not None:
        p.add_argument("--beta", type=int, default=beta, choices=(1, 2, 4))


def _kernel_flags(p, N):
    p.add_argument("--kernel", default="airy")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--N", type=int, default=N)
    p.add_argument("--b", type=float, default=1.0)


def _aci_flags(p):
    p.add_argument("--kind", default="neumann", choices=aci.SYSTEM_KINDS)
    p.add_argument("--alpha", default="1,2,4")
    p.add_argument("--x", default="0.6,-0.3,0.8")
    p.add_argument("--y", default="0.2,0.5,-0.4")


# ----- subcommand handlers -----

def _largest(values):
    """The largest of a value or values, 0 for none, NaN if any is NaN."""
    return float(np.max(values, initial=0.0))


def _route_gaps(routes, defect):
    """(supnorm:p-q rows, gaps) of every pair of routes; an ode gap is at
    least the largest segment defect, gated even with ode alone."""
    rows, gaps = [], [defect]
    for p, q in itertools.combinations(sorted(routes), 2):
        gap = float(np.abs(routes[p] - routes[q]).max())
        if "ode" in (p, q):
            gap = max(gap, defect)
        rows.append({"metric": f"supnorm:{p}-{q}", "value": gap})
        gaps.append(gap)
    return rows, gaps


def run_toda_flow(args):
    n, k = args.n, args.k
    if n < 1 or k < 1:
        raise UsageError("--n and --k must be at least 1")
    wanted = args.routes.split(",")
    if "ode" in wanted:
        check_steps(args.t_end, args.step)
    # the spectral measure of L0: n seeded atoms
    rng = np.random.default_rng(args.seed)
    pts = rng.uniform(-1.0, 1.0, size=n)
    wts = rng.uniform(0.5, 1.5, size=n)
    L0 = toda.toda_measure_flow(pts, wts, k, 0.0)
    routes, ends, defect = {}, None, 0.0
    for name in wanted:
        if name == "tau":
            routes[name] = toda.toda_measure_flow(pts, wts, k, args.t_end)
        elif name not in ("ode", "qr"):
            raise UsageError(f"unknown toda route {name!r}")
    if "ode" in wanted or "qr" in wanted:
        # QR at t_j = j t_end / SEGMENTS; each starts one RK4 segment
        checkpoints = toda.toda_factorization_flow(L0, k, args.t_end)
        if "qr" in wanted:
            routes["qr"] = checkpoints[-1]
        if "ode" in wanted:
            ends, defect = segment_check(
                lambda starts, segment: toda.toda_ode_flow(
                    starts, k, segment, args.step),
                checkpoints, args.t_end / SEGMENTS)
            routes["ode"] = ends[-1]
    rows, gaps = _route_gaps(routes, defect)
    base = np.linalg.eigvalsh(L0)
    drifts = []
    for name in sorted(routes):
        states = ends if name == "ode" else routes[name]  # every segment end
        drift = float(np.abs(np.linalg.eigvalsh(states) - base).max())
        rows.append({"metric": f"eig_drift:{name}", "value": drift})
        drifts.append(drift)
    return _Result(rows, gaps, err=gaps, gates=[(drifts, 1e-8)])


def run_toda_poly(args):
    if args.n < 0:
        raise UsageError("--n must be at least 0")
    w = _weight_from(args)
    # the recurrence of the weight's quadrature rule, rho in its weights
    ab = tau.refine_on_rule(w, w.support(), args.order, lambda x, wx: (
        toda.lanczos(x, wx * w.density(x), args.n + 1)))
    grid = parse_grid(args.grid)
    vals = orthonormal_polys(ab, grid)[-1]
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"p_{args.n} overflows on the grid")
    rows = [{"z": z, "p_n": v} for z, v in zip(grid.tolist(), vals.tolist())]
    # on rules of 1.5 order 2^i nodes, none of them a rule behind ab
    norm = tau.refine_on_rule(
        w, w.support(), args.order + args.order // 2,
        lambda x, wx: wx @ (orthonormal_polys(ab, x)[-1] ** 2 * w.density(x)))
    return _Result(rows, abs(norm - 1.0))


def run_pfaff_flow(args):
    size = args.size
    # a 1 x 1 interior reads 0 on every route: it compares nothing
    if size < 2 or args.k < 1:
        raise UsageError("--size must be at least 2 and --k at least 1")
    check_steps(args.t_end, args.step)
    # a wide gaussian keeps the high moments O(1) so the skew-Borel pivots
    # stay well away from zero; each route has one spare block
    moments = lambda times, rows: pfaff.skew_inner_products(
        tau.WeightSpec("gaussian", b=4.0, times=times), alpha=-1,
        N=rows // 2 + 1, order=args.order)
    via_moments = pfaff.pfaff_lax(
        moments([0.0] * (args.k - 1) + [args.t_end], size))
    # AKS at t_j = j t_end / SEGMENTS; each starts one RK4 segment
    checkpoints = pfaff.pfaff_aks_flow(
        pfaff.pfaff_lax(moments((), size + PFAFF_ODE_MARGIN * args.k)),
        args.k, args.t_end)
    ends, defect = segment_check(
        lambda starts, segment: pfaff.pfaff_ode_flow(
            starts, args.k, segment, args.step)[..., :size, :size],
        checkpoints, args.t_end / SEGMENTS)
    rows, gaps = _route_gaps({"aks": checkpoints[-1, :size, :size],
                              "moments": via_moments[:size, :size],
                              "ode": ends[-1]}, defect)
    return _Result(rows, gaps, err=gaps)


def run_pfaff_check_kp(args):
    w, alpha = ((tau.WeightSpec("gaussian", b=args.b), -1) if args.beta == 1
                else (tau.WeightSpec("laguerre", a=args.a, b=args.b), 1))
    rows = []
    for n in parse_ints(args.n_list):
        m = pfaff.skew_inner_products(w, alpha=alpha, N=n + 4, order=args.order)
        rows.append({"n": n, "residual": abs(pfaff.pfaffkp_residual(m, n))})
    return _Result(rows)


def run_twotoda_pde(args):
    a_list, b_list = parse_floats(args.a_list), parse_floats(args.b_list)
    if len(a_list) != len(b_list):
        raise UsageError("--a-list and --b-list need equal lengths")
    rows = []
    for a, b in zip(a_list, b_list):
        res = abs(twotoda.coupled_pde_residual(args.c, a, b, args.n,
                                               order=args.order))
        rows.append({"a": a, "b": b, "residual": res})
    return _Result(rows)


def run_twotoda_identities(args):
    m = twotoda.bimoments(args.c, N=args.n + 8, order=args.order)
    rows = [{"identity": f"kp_{d}", "residual": abs(
        twotoda.kp_in_t_residual(m, args.n, direction=d))} for d in "ts"]
    # at t = s = 0 the coupled Gaussian is symmetric under (x, y) -> (-x, -y)
    # and both sides of the quotient identities vanish; away from it they
    # do not.  The moments must reach the (n + 1)-blocks and the n-blocks
    # shifted by 2.
    moved = twotoda.bimoments(args.c, N=args.n + 2, order=args.order,
                              t=[0.1], s=[-0.07])
    for i, val in enumerate(twotoda.wronskian_identity_residual(moved, args.n)):
        rows.append({"identity": f"quotient_{i}", "residual": abs(val)})
    rows.append({"identity": "bracket", "residual": abs(
        twotoda.wronskian_bracket_residual(moved, args.n))})
    return _Result(rows)


def run_fredholm_gap(args):
    spec = fredholm.KernelSpec(args.kernel, nu=args.nu, N=args.N, b=args.b,
                               lam=args.lam)
    rows, errors = [], []
    for s in parse_grid(args.s_grid).tolist():
        E = IntervalUnion.parse(args.interval.replace("s", "%.17g" % s))
        det, err = tau.refined(
            lambda order: fredholm.nystrom_det(spec, E, order), args.order,
            f"gap determinant at s = {s:g}", GAP_BUDGET)
        rows.append({"s": s, "det": det, "error": err})
        errors.append(err)
    return _Result(rows, errors, err=errors)


def run_fredholm_kernel_table(args):
    spec = fredholm.KernelSpec(args.kernel, nu=args.nu, N=args.N, b=args.b)
    ys = parse_grid(args.y_grid)
    zs = parse_grid(args.z_grid)
    table = fredholm.kernel_eval(spec, ys[:, None], zs[None, :])
    rows = [{"y": float(y), "z": float(z), "K": float(table[i, j])}
            for i, y in enumerate(ys) for j, z in enumerate(zs)]
    sym = fredholm.kernel_eval(spec, zs[:, None], ys[None, :])
    return _Result(rows, np.abs(table - sym.T))


def run_fredholm_scaling(args):
    grid = parse_grid(args.grid)
    Ns = parse_ints(args.N_list)
    errs = [fredholm.scaling_limit_error(N, args.regime, grid, b=args.b)
            for N in Ns]
    rows = [{"N": N, "sup_error": err} for N, err in zip(Ns, errs)]
    # the number of steps in N at which the error does not fall
    rises = sum(not x > y for x, y in zip(errs, errs[1:]))
    return _Result(rows, errs[-1], gates=[(rises, 0)])


def run_painleve(args):
    """gapode pii and pv: the Painleve residual at each grid point."""
    grid = parse_grid(args.grid)
    res = (gapodes.pii_residual(grid) if args.action == "pii"
           else gapodes.pv_residual(args.nu, grid))
    return _Result([{"A": a, "residual": abs(r)}
                    for a, r in zip(grid.tolist(), res)])


def run_gap_pde(args):
    """gapode airy-pde and bessel-pde: the PDE residual on the union."""
    E = IntervalUnion.parse(args.intervals)
    res = (gapodes.airy_pde_residual(E) if args.action == "airy-pde"
           else gapodes.bessel_pde_residual(args.nu, E))
    return _Result([{"intervals": args.intervals, "residual": abs(res)}])


def run_inductive(args):
    """gapode beta-ode and ensemble inductive: the same checker."""
    grid = parse_grid(args.grid)
    res = ensembles.inductive_relation_residual(
        args.weight, args.beta, args.n, grid, a=args.a, b=args.b,
        order=args.order)
    rows = [{"x": x, "residual": abs(r)} for x, r in zip(grid.tolist(), res)]
    gue = args.beta == 2 and args.weight == "gaussian"
    return _Result(rows, bound=1e-5 if gue else 1e-4)


def run_virasoro_check(args):
    if args.n < 1:  # tau_0 = 1 meets every constraint
        raise UsageError("--n must be at least 1")
    w = _weight_from(args)
    E = None if args.full_range else IntervalUnion.half_line_below(args.x)
    rows = []
    for k in parse_ints(args.k_list):
        res = abs(virasoro.virasoro_residual(w, args.beta, E, args.n, k,
                                             order=args.order))
        rows.append({"k": k, "residual": res})
    return _Result(rows, bound=1e-6 if args.beta == 2 else 1e-4)


def run_virasoro_commutators(args):
    pairs = ((1, -1), (0, 1), (2, -1), (2, -2), (3, -3), (-1, 3))
    residuals = virasoro.virasoro_commutator_residuals(args.beta, pairs,
                                                       n=args.n)
    rows = [{"k": k, "l": l, "residual": res}
            for (k, l), res in zip(pairs, residuals)]
    charge = float(virasoro.central_charge(args.beta))
    rows.append({"k": 0, "l": 0, "residual": 0.0, "central_charge": charge})
    expect = {1: -2.0, 2: 1.0, 4: -2.0}[args.beta]
    return _Result(rows, gates=[(abs(charge - expect), 0.0)])


def run_ensemble_gap(args):
    e = ensembles.EnsembleSpec(args.beta, _weight_from(args), args.n)
    E = IntervalUnion.parse(args.interval)
    p, err = tau.refined(
        lambda order: ensembles.gap_probability(e, E, order=order),
        args.order, "gap probability", GAP_BUDGET)
    return _Result([{"interval": args.interval, "probability": p}], err,
                   err=err)


def run_ensemble_sample(args):
    e = ensembles.EnsembleSpec(args.beta, _weight_from(args), args.n)
    E = IntervalUnion.parse(args.interval)
    # the quadrature before any draw: it rejects an ensemble it cannot
    # integrate at once
    ensembles.check_sample(e, args.count)
    exact = ensembles.gap_probability(e, E, order=args.order)
    frac, err = ensembles.sample_ensemble(e, args.count, args.seed, E)
    sigma = max(err, math.sqrt(max(exact * (1.0 - exact), 1e-12) / args.count))
    rows = [{
        "interval": args.interval, "empirical": frac, "stderr": err,
        "quadrature": exact, "abs_diff": abs(frac - exact),
    }]
    return _Result(rows, abs(frac - exact), err=err, bound=3.0 * sigma)


def _aci_system(args):
    alpha = parse_floats(args.alpha)
    x = parse_floats(args.x) if args.x else None
    y = parse_floats(args.y) if args.y else None
    return aci.build_system(args.kind, alpha, x=x, y=y)


def run_aci_run(args):
    report = aci.route_report(_aci_system(args), args.f_kind or args.kind,
                              args.t_end, args.step)
    rows = [{"metric": key, "value": value} for key, value in report.items()]
    gap = report["aks_rk4_gap"]
    return _Result(rows, gap, err=[report["aks_tail"], gap],
                   gates=[(report["curve_drift"], 1e-9)])


def run_aci_curve(args):
    a0 = _aci_system(args)
    q = aci.spectral_curve_coeffs(a0)
    rows = [{"h_power": k, "z_power": ell, "q": val}
            for (k, ell), val in sorted(q.items())]
    residual = aci.spectral_curve_residual(a0, q)
    return _Result(rows, residual, err=residual)


def run_tau_kp_check(args):
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    rng = np.random.default_rng(args.seed)
    small_t = (0.02 * rng.standard_normal(3)).tolist()
    rows = []
    for family in ("gaussian", "uniform"):
        # the moments must hold the n_max-block and its KP partials, which
        # shift the index by up to 4
        ms = {label: tau.hankel_moments(tau.WeightSpec(family, times=t),
                                        M=2 * args.n_max + 2, order=args.order)
              for label, t in (("0", ()), ("small", small_t))}
        for n in range(1, args.n_max + 1):
            for label, m in ms.items():
                rows.append({"family": family, "n": n, "t": label,
                             "residual": abs(tau.kp_residual(m, n))})
    return _Result(rows)


# ----- parser construction -----

def _common(p, handler, tol, **read):
    """Flags every command takes, and --seed/--order where it reads them.
    tol is the --check bound, or the rule by which the handler sets it
    from the arguments."""
    p.add_argument("--out", default=None)
    p.add_argument("--check", action="store_true")
    p.add_argument("--tol", type=float,
                   default=None if isinstance(tol, str) else tol,
                   help=f"the --check bound (default {tol})")
    for name, default in read.items():
        p.add_argument(f"--{name}", default=default,
                       type=seed_int if name == "seed" else int)
    p.set_defaults(handler=handler)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and a fresh parser per command left its reference cycles
    to the cyclic garbage collector, growing the heap of a long run."""
    top = _Parser(prog="laxlab", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)
    gue = "1e-5 for beta 2 gaussian, else 1e-4"

    g = groups.add_parser("toda").add_subparsers(dest="action", required=True)
    p = g.add_parser("flow")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t-end", type=finite_float, default=1.0)
    p.add_argument("--step", type=finite_float, default=1e-3)
    p.add_argument("--routes", default="tau,ode,qr")
    _common(p, run_toda_flow, 1e-6, seed=42)
    p = g.add_parser("poly")
    _weight_flags(p, 3)
    p.add_argument("--grid", default="-2:2:0.5")
    _common(p, run_toda_poly, 1e-8, order=64)

    g = groups.add_parser("pfaff").add_subparsers(dest="action", required=True)
    p = g.add_parser("flow")
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t-end", type=finite_float, default=0.1)
    p.add_argument("--step", type=finite_float, default=1e-3)
    _common(p, run_pfaff_flow, 1e-6, order=96)
    p = g.add_parser("check-kp")
    p.add_argument("--beta", type=int, default=1, choices=(1, 4))
    p.add_argument("--n-list", default="2,4")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    _common(p, run_pfaff_check_kp, 1e-6, order=64)

    g = groups.add_parser("twotoda").add_subparsers(dest="action", required=True)
    p = g.add_parser("pde")
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--a-list", default="0.3,0.3")
    p.add_argument("--b-list", default="0.3,0.2")
    p.add_argument("--n", type=int, default=1)
    _common(p, run_twotoda_pde, 1e-3, order=48)
    p = g.add_parser("identities")
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--n", type=int, default=2)
    _common(p, run_twotoda_identities, 1e-8, order=64)

    g = groups.add_parser("fredholm").add_subparsers(dest="action", required=True)
    p = g.add_parser("gap")
    _kernel_flags(p, 1)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--interval", default="s:inf")
    p.add_argument("--s-grid", default="-6:2:0.25")
    _common(p, run_fredholm_gap, 1e-10, order=64)
    p = g.add_parser("kernel-table")
    _kernel_flags(p, 10)
    p.add_argument("--y-grid", default="-2:2:1")
    p.add_argument("--z-grid", default="-2:2:1")
    _common(p, run_fredholm_kernel_table, 1e-10)
    p = g.add_parser("scaling")
    p.add_argument("--regime", default="edge", choices=("bulk", "edge"))
    p.add_argument("--N-list", default="20,50,80")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--grid", default="-2:2:0.25")
    _common(p, run_fredholm_scaling, 5e-2)

    g = groups.add_parser("gapode").add_subparsers(dest="action", required=True)
    p = g.add_parser("pii")
    p.add_argument("--grid", default="-6:2:0.25")
    _common(p, run_painleve, 1e-8)
    p = g.add_parser("pv")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--grid", default="0.5:5:0.5")
    _common(p, run_painleve, 1e-8)
    p = g.add_parser("airy-pde")
    p.add_argument("--intervals", default="-4:-1,1:inf")
    _common(p, run_gap_pde, 1e-10)
    p = g.add_parser("bessel-pde")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--intervals", default="0.5:1.5,2:3")
    _common(p, run_gap_pde, 1e-10)
    p = g.add_parser("beta-ode")
    _weight_flags(p, 2, beta=2)
    p.add_argument("--grid", default="-2:2:1")
    _common(p, run_inductive, gue, order=64)

    g = groups.add_parser("virasoro").add_subparsers(dest="action", required=True)
    p = g.add_parser("check")
    _weight_flags(p, 3, beta=2)
    p.add_argument("--k-list", default="-1,0,1,2")
    p.add_argument("--x", type=float, default=0.7)
    p.add_argument("--full-range", action="store_true")
    _common(p, run_virasoro_check, "1e-6 at beta 2, else 1e-4", order=64)
    p = g.add_parser("commutators")
    p.add_argument("--beta", type=int, default=2, choices=(1, 2, 4))
    p.add_argument("--n", type=int, default=3)
    _common(p, run_virasoro_commutators, 1e-10)

    g = groups.add_parser("ensemble").add_subparsers(dest="action", required=True)
    p = g.add_parser("gap")
    _weight_flags(p, 2, beta=2)
    p.add_argument("--interval", default="-inf:0")
    _common(p, run_ensemble_gap, 1e-8, order=64)
    p = g.add_parser("sample")
    _weight_flags(p, 2, beta=2)
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--interval", default="-inf:0")
    _common(p, run_ensemble_sample, "3 standard errors of the estimate",
            seed=7, order=64)
    p = g.add_parser("inductive")
    _weight_flags(p, 2, beta=1)
    p.add_argument("--grid", default="-1:1.5:0.5")
    _common(p, run_inductive, gue, order=64)

    g = groups.add_parser("aci").add_subparsers(dest="action", required=True)
    p = g.add_parser("run")
    _aci_flags(p)
    p.add_argument("--f-kind", default=None, choices=aci.SYSTEM_KINDS)
    p.add_argument("--t-end", type=finite_float, default=10.0)
    p.add_argument("--step", type=finite_float, default=1e-3)
    _common(p, run_aci_run, 1e-10)
    p = g.add_parser("curve")
    _aci_flags(p)
    _common(p, run_aci_curve, 1e-12)

    g = groups.add_parser("tau").add_subparsers(dest="action", required=True)
    p = g.add_parser("kp-check")
    p.add_argument("--n-max", type=int, default=5)
    _common(p, run_tau_kp_check, 1e-6, seed=1, order=64)

    return top


def dispatch(argv):
    """Run one subcommand; returns (RunReport, exit_code, out_path).

    The one gate rule: under --check a command passes when the largest of
    each of its gated values is at most its bound, a NaN failing.  The
    first is the handler's residual (by default the rows' "residual"
    column) against --tol, whose default is the command's bound; a handler
    may add extra (values, bound) gates, which --tol does not change.
    """
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    result = args.handler(args)
    elapsed = time.perf_counter() - start
    print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    residual = _largest([row["residual"] for row in result.rows]
                        if result.residual is None else result.residual)
    skip = {"handler", "group", "action", "out", "check", "tol"}
    report = RunReport(
        command=" ".join(argv),
        params={k: v for k, v in vars(args).items() if k not in skip},
        rows=result.rows,
        max_abs_residual=residual,
        self_reported_error=_largest(result.err),
        seed=getattr(args, "seed", 0),
    )
    tol = result.bound if args.tol is None else args.tol
    failed = not all(_largest(values) <= bound
                     for values, bound in [(residual, tol), *result.gates])
    return report, EXIT_TOLERANCE if args.check and failed else EXIT_OK, args.out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        report, code, out = dispatch(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    fmt = "csv" if out and out.endswith(".csv") else "json"
    payload = emit_report(report, fmt)
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
