"""Command-line reports for every checker and table generator.

Every subcommand runs one computation, prints a canonical JSON report
(sorted keys, %.17g floats) to stdout or writes JSON/CSV to --out, and
exits 0 on success, 2 on usage errors, 3 on numerical errors, and 4 when
--check finds the residual above its acceptance tolerance.  Reports with
the same argv and seed are bytewise identical at any thread count.
"""

import argparse
import functools
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import aci, ensembles, fredholm, gapodes, pfaff, tau, toda, twotoda, virasoro
from . import fd  # noqa: F401  (perfbench/tracer.py traces laxlab.fd)
from .errors import NumericalError, UnderflowError, UsageError
from .intervals import IntervalUnion
from .mathcore.ode import SEGMENTS, check_steps, segment_check

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_TOLERANCE = 0, 2, 3, 4
# rows per unit of k beyond the compared block that pfaff flow's Lax ODE
# carries: with none, its interior is off by 0.093 at t = 0.1
PFAFF_ODE_MARGIN = 12


@dataclass
class RunReport:
    command: str
    params: dict
    rows: list
    max_abs_residual: float
    self_reported_error: float = 0.0
    seed: int = 0


@dataclass
class _Result:
    rows: list
    residual: float
    tol: float
    err: float = 0.0
    ok: bool = True


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
        payload = {
            "command": report.command,
            "params": report.params,
            "rows": report.rows,
            "max_abs_residual": report.max_abs_residual,
            "self_reported_error": report.self_reported_error,
            "seed": report.seed,
        }
        return (canonical_json(payload) + "\n").encode()
    if fmt == "csv":
        if not report.rows:
            return b""
        columns = list(report.rows[0].keys())
        lines = [",".join(columns)]
        for row in report.rows:
            lines.append(",".join(_cell_text(row[c]) for c in columns))
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


def _interval_with_endpoint(template, s):
    return IntervalUnion.parse(template.replace("s", "%.17g" % s))


def _weight_from(args):
    return tau.WeightSpec(args.weight, a=args.a, b=args.b)


def _weight_flags(p):
    p.add_argument("--weight", default="gaussian",
                   choices=("gaussian", "laguerre", "uniform"))
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)


# ----- subcommand handlers -----

def _largest(residuals):
    """The largest residual, 0 for none, NaN if any is NaN: the gate fails."""
    return float(np.max(residuals, initial=0.0))


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
            routes[name] = toda.toda_measure_flow(pts, wts, k, args.t_end).matrix()
        elif name not in ("ode", "qr"):
            raise UsageError(f"unknown toda route {name!r}")
    if "ode" in wanted or "qr" in wanted:
        # QR at t_j = j t_end / SEGMENTS; each starts one RK4 segment
        checkpoints = toda.toda_factorization_flow(L0, k, args.t_end).matrix()
        if "qr" in wanted:
            routes["qr"] = checkpoints[-1]
        if "ode" in wanted:
            ends, defect = segment_check(
                lambda starts, segment: toda.toda_ode_flow(
                    toda.lax_from_dense(starts), k, segment, args.step
                ).matrix(),
                checkpoints, args.t_end / SEGMENTS)
            routes["ode"] = ends[-1]
    rows = []
    gaps = [defect]  # gated even when ode is the only route
    names = sorted(routes)
    for i, p in enumerate(names):
        for q in names[i + 1:]:
            gap = float(np.abs(routes[p] - routes[q]).max())
            if p == "ode":  # the largest segment defect counts too
                gap = max(gap, defect)
            rows.append({"metric": f"supnorm:{p}-{q}", "value": gap})
            gaps.append(gap)
    base = np.linalg.eigvalsh(L0.matrix())
    drift_ok = True
    for name in names:
        states = ends if name == "ode" else routes[name]  # every segment end
        drift = float(np.abs(np.linalg.eigvalsh(states) - base).max())
        rows.append({"metric": f"eig_drift:{name}", "value": drift})
        drift_ok = drift_ok and drift < 1e-8
    worst = _largest(gaps)
    return _Result(rows, worst, tol=1e-6, err=worst, ok=drift_ok)


def run_toda_poly(args):
    if args.n < 0:
        raise UsageError("--n must be at least 0")
    w = _weight_from(args)
    # the recurrence of the weight's quadrature rule, rho in its weights
    ab = tau.refine_on_rule(w, w.support(), args.order, lambda x, wx: (
        toda.lanczos(x, wx * w.density(x), args.n + 1)))
    grid = parse_grid(args.grid)
    vals = toda.orthopoly_eval(ab, grid)
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"p_{args.n} overflows on the grid")
    rows = [{"z": z, "p_n": v} for z, v in zip(grid.tolist(), vals.tolist())]
    # on rules of 1.5 order 2^i nodes, none of them a rule behind ab
    norm = tau.refine_on_rule(
        w, w.support(), args.order + args.order // 2,
        lambda x, wx: wx @ (toda.orthopoly_eval(ab, x) ** 2 * w.density(x)))
    return _Result(rows, abs(norm - 1.0), tol=1e-8)


def run_pfaff_flow(args):
    size = args.size
    if size < 1 or args.k < 1:
        raise UsageError("--size and --k must be at least 1")
    # a wide gaussian keeps the high moments O(1) so the skew-Borel pivots
    # stay well away from zero; each route has one spare block, the ODE's
    # matrix a margin too, as its truncation pollutes L from the bottom up
    moments = lambda times, rows: pfaff.skew_inner_products(
        tau.WeightSpec("gaussian", b=4.0, times=times), alpha=-1,
        N=rows // 2 + 1, order=args.order)
    via_moments = pfaff.pfaff_lax(
        moments([0.0] * (args.k - 1) + [args.t_end], size))
    L = pfaff.pfaff_ode_flow(
        pfaff.pfaff_lax(moments((), size + PFAFF_ODE_MARGIN * args.k)),
        args.k, args.t_end, args.step)
    gap = float(np.abs(L[:size, :size] - via_moments[:size, :size]).max())
    rows = [{"metric": "interior_supnorm", "value": gap}]
    return _Result(rows, gap, tol=1e-6)


def run_pfaff_check_kp(args):
    rows = []
    for n in parse_ints(args.n_list):
        if args.beta == 1:
            m = pfaff.skew_inner_products(
                tau.WeightSpec("gaussian", b=args.b), alpha=-1, N=n + 4,
                order=args.order,
            )
        else:
            m = pfaff.skew_inner_products(
                tau.WeightSpec("laguerre", a=args.a, b=args.b),
                alpha=1, N=n + 4, order=args.order,
            )
        res = abs(pfaff.pfaffkp_residual(m, n))
        rows.append({"n": n, "residual": res})
    return _Result(rows, _largest([r["residual"] for r in rows]), tol=1e-6)


def run_twotoda_pde(args):
    rows = []
    for a, b in zip(parse_floats(args.a_list), parse_floats(args.b_list)):
        res = abs(twotoda.coupled_pde_residual(args.c, a, b, args.n,
                                               order=args.order))
        rows.append({"a": a, "b": b, "residual": res})
    return _Result(rows, _largest([r["residual"] for r in rows]), tol=1e-3)


def run_twotoda_identities(args):
    m = twotoda.bimoments(args.c, N=args.n + 8, order=args.order)
    rows = []
    for name, val in (
        ("kp_t", twotoda.kp_in_t_residual(m, args.n, direction="t")),
        ("kp_s", twotoda.kp_in_t_residual(m, args.n, direction="s")),
    ):
        rows.append({"identity": name, "residual": abs(val)})
    # at t = s = 0 the coupled Gaussian is symmetric under (x, y) -> (-x, -y)
    # and both sides of the quotient identities vanish; away from it they
    # do not.  The moments must reach the (n + 1)-blocks and the n-blocks
    # shifted by 2.
    moved = twotoda.bimoments(args.c, N=args.n + 2, order=args.order,
                              t=[0.1], s=[-0.07])
    for i, val in enumerate(twotoda.wronskian_identity_residual(moved, args.n)):
        rows.append({"identity": f"quotient_{i}", "residual": abs(val)})
    rows.append({
        "identity": "bracket",
        "residual": abs(twotoda.wronskian_bracket_residual(moved, args.n)),
    })
    return _Result(rows, _largest([r["residual"] for r in rows]), tol=1e-8)


def run_fredholm_gap(args):
    spec = fredholm.KernelSpec(args.kernel, nu=args.nu, N=args.N, b=args.b,
                               lam=args.lam)
    smoke = fredholm.nystrom_det(
        fredholm.KernelSpec(args.kernel, nu=args.nu, N=args.N, b=args.b, lam=0.0),
        _interval_with_endpoint(args.interval, parse_grid(args.s_grid)[0]),
        order=args.order,
    )
    rows = [{"s": math.nan, "det": smoke, "error": abs(smoke - 1.0)}]
    for s in parse_grid(args.s_grid).tolist():
        det, err = fredholm.nystrom_det(
            spec, _interval_with_endpoint(args.interval, s),
            order=args.order, estimate_error=True,
        )
        if not det > err:
            raise UnderflowError(
                f"gap determinant {det:.2e} at s = {s:g} is not larger than "
                f"its error estimate {err:.2e}"
            )
        rows.append({"s": s, "det": det, "error": err})
    worst_err = _largest([r["error"] for r in rows])
    return _Result(rows, worst_err, tol=1e-10, err=worst_err)


def run_fredholm_kernel_table(args):
    spec = fredholm.KernelSpec(args.kernel, nu=args.nu, N=args.N, b=args.b)
    ys = parse_grid(args.y_grid)
    zs = parse_grid(args.z_grid)
    table = fredholm.kernel_eval(spec, ys[:, None], zs[None, :])
    rows = [
        {"y": float(y), "z": float(z), "K": float(table[i, j])}
        for i, y in enumerate(ys)
        for j, z in enumerate(zs)
    ]
    sym = fredholm.kernel_eval(spec, zs[:, None], ys[None, :])
    return _Result(rows, float(np.abs(table - sym.T).max()), tol=1e-10)


def run_fredholm_scaling(args):
    grid = parse_grid(args.grid)
    rows = []
    errs = []
    for N in parse_ints(args.N_list):
        err = fredholm.scaling_limit_error(N, args.regime, grid, b=args.b)
        rows.append({"N": N, "sup_error": err})
        errs.append(err)
    decreasing = all(x > y for x, y in zip(errs, errs[1:])) or len(errs) == 1
    return _Result(rows, errs[-1], tol=5e-2, ok=decreasing)


def run_gapode_pii(args):
    grid = parse_grid(args.grid)
    res = gapodes.pii_residual(grid)
    rows = [{"A": a, "residual": abs(r)} for a, r in zip(grid.tolist(), res)]
    return _Result(rows, float(np.abs(res).max()), tol=1e-4)


def run_gapode_pv(args):
    grid = parse_grid(args.grid)
    res = gapodes.pv_residual(args.nu, grid)
    rows = [{"A": a, "residual": abs(r)} for a, r in zip(grid.tolist(), res)]
    return _Result(rows, float(np.abs(res).max()), tol=1e-4)


def run_gapode_airy_pde(args):
    E = IntervalUnion.parse(args.intervals)
    res = abs(gapodes.airy_pde_residual(E))
    return _Result([{"intervals": args.intervals, "residual": res}], res, tol=1e-3)


def run_gapode_bessel_pde(args):
    E = IntervalUnion.parse(args.intervals)
    res = abs(gapodes.bessel_pde_residual(args.nu, E))
    return _Result([{"intervals": args.intervals, "residual": res}], res, tol=1e-3)


def run_inductive(args):
    """gapode beta-ode and ensemble inductive: the same checker."""
    grid = parse_grid(args.grid)
    res = ensembles.inductive_relation_residual(
        args.weight, args.beta, args.n, grid, a=args.a, b=args.b,
        order=args.order,
    )
    rows = [{"x": x, "residual": abs(r)} for x, r in zip(grid.tolist(), res)]
    tol = 1e-5 if (args.beta == 2 and args.weight == "gaussian") else 1e-4
    return _Result(rows, float(np.abs(res).max()), tol=tol)


def run_virasoro_check(args):
    w = _weight_from(args)
    E = None if args.full_range else IntervalUnion.half_line_below(args.x)
    if args.weight == "laguerre" and E is not None:
        E = IntervalUnion([(0.0, args.x)])
    rows = []
    for k in parse_ints(args.k_list):
        res = abs(virasoro.virasoro_residual(w, args.beta, E, args.n, k,
                                             order=args.order))
        rows.append({"k": k, "residual": res})
    return _Result(rows, _largest([r["residual"] for r in rows]),
                   tol=1e-6 if args.beta == 2 else 1e-4)


def run_virasoro_commutators(args):
    pairs = ((1, -1), (0, 1), (2, -1), (2, -2), (3, -3), (-1, 3))
    residuals = virasoro.virasoro_commutator_residuals(args.beta, pairs,
                                                       n=args.n)
    rows = [{"k": k, "l": l, "residual": res}
            for (k, l), res in zip(pairs, residuals)]
    worst = _largest(residuals)
    charge = virasoro.central_charge(args.beta)
    rows.append({"k": 0, "l": 0, "residual": 0.0,
                 "central_charge": float(charge)})
    expect = {1: -2.0, 2: 1.0, 4: -2.0}[args.beta]
    return _Result(rows, worst, tol=1e-10, ok=float(charge) == expect)


def _ensemble_from(args):
    return ensembles.EnsembleSpec(args.beta, _weight_from(args), args.n)


def run_ensemble_gap(args):
    e = _ensemble_from(args)
    E = IntervalUnion.parse(args.interval)
    p = ensembles.gap_probability(e, E, order=args.order)
    refined = ensembles.gap_probability(e, E, order=args.order + args.order // 2)
    rows = [{"interval": args.interval, "probability": p}]
    return _Result(rows, abs(p - refined), tol=1e-8, err=abs(p - refined))


def run_ensemble_sample(args):
    e = _ensemble_from(args)
    E = IntervalUnion.parse(args.interval)
    frac, err = ensembles.sample_ensemble(e, args.count, args.seed, E)
    exact = ensembles.gap_probability(e, E, order=args.order)
    sigma = max(err, math.sqrt(max(exact * (1.0 - exact), 1e-12) / args.count))
    rows = [{
        "interval": args.interval, "empirical": frac, "stderr": err,
        "quadrature": exact, "abs_diff": abs(frac - exact),
    }]
    return _Result(rows, abs(frac - exact), tol=3.0 * sigma, err=err)


def _aci_system(args):
    alpha = parse_floats(args.alpha)
    x = parse_floats(args.x) if args.x else None
    y = parse_floats(args.y) if args.y else None
    return aci.build_system(args.kind, alpha, x=x, y=y)


def run_aci_run(args):
    a0 = _aci_system(args)
    report = aci.route_report(a0, args.f_kind or args.kind,
                              args.t_end, args.step)
    rows = [{"metric": key, "value": value} for key, value in report.items()]
    gap, tail = report["aks_rk4_gap"], report["aks_tail"]
    return _Result(rows, gap, tol=1e-10, err=max(tail, gap),
                   ok=report["curve_drift"] <= 1e-9)


def run_aci_curve(args):
    a0 = _aci_system(args)
    q = aci.spectral_curve_coeffs(a0)
    rows = [
        {"h_power": k, "z_power": ell, "q": val}
        for (k, ell), val in sorted(q.items())
    ]
    residual = aci.spectral_curve_residual(a0, q)
    return _Result(rows, residual, tol=1e-12, err=residual)


def run_tau_kp_check(args):
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
    return _Result(rows, _largest([r["residual"] for r in rows]), tol=1e-6)


# ----- parser construction -----

def _common(p, handler, **read):
    """Flags every command takes, and --seed/--order where it reads them."""
    p.add_argument("--out", default=None)
    p.add_argument("--check", action="store_true")
    p.add_argument("--tol", type=float, default=None)
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

    g = groups.add_parser("toda").add_subparsers(dest="action", required=True)
    p = g.add_parser("flow")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t-end", type=finite_float, default=1.0)
    p.add_argument("--step", type=finite_float, default=1e-3)
    p.add_argument("--routes", default="tau,ode,qr")
    _common(p, run_toda_flow, seed=42)
    p = g.add_parser("poly")
    _weight_flags(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--grid", default="-2:2:0.5")
    _common(p, run_toda_poly, order=64)

    g = groups.add_parser("pfaff").add_subparsers(dest="action", required=True)
    p = g.add_parser("flow")
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t-end", type=finite_float, default=0.1)
    p.add_argument("--step", type=finite_float, default=1e-3)
    _common(p, run_pfaff_flow, order=96)
    p = g.add_parser("check-kp")
    p.add_argument("--beta", type=int, default=1, choices=(1, 4))
    p.add_argument("--n-list", default="2,4")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    _common(p, run_pfaff_check_kp, order=64)

    g = groups.add_parser("twotoda").add_subparsers(dest="action", required=True)
    p = g.add_parser("pde")
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--a-list", default="0.3")
    p.add_argument("--b-list", default="0.3")
    p.add_argument("--n", type=int, default=1)
    _common(p, run_twotoda_pde, order=48)
    p = g.add_parser("identities")
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--n", type=int, default=2)
    _common(p, run_twotoda_identities, order=64)

    g = groups.add_parser("fredholm").add_subparsers(dest="action", required=True)
    p = g.add_parser("gap")
    p.add_argument("--kernel", default="airy")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--interval", default="s:inf")
    p.add_argument("--s-grid", default="-6:2:0.25")
    _common(p, run_fredholm_gap, order=64)
    p = g.add_parser("kernel-table")
    p.add_argument("--kernel", default="airy")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--y-grid", default="-2:2:1")
    p.add_argument("--z-grid", default="-2:2:1")
    _common(p, run_fredholm_kernel_table)
    p = g.add_parser("scaling")
    p.add_argument("--regime", default="edge", choices=("bulk", "edge"))
    p.add_argument("--N-list", default="20,50,80")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--grid", default="-2:2:0.25")
    _common(p, run_fredholm_scaling)

    g = groups.add_parser("gapode").add_subparsers(dest="action", required=True)
    p = g.add_parser("pii")
    p.add_argument("--grid", default="-6:2:0.25")
    _common(p, run_gapode_pii)
    p = g.add_parser("pv")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--grid", default="0.5:5:0.5")
    _common(p, run_gapode_pv)
    p = g.add_parser("airy-pde")
    p.add_argument("--intervals", default="-4:-1,1:inf")
    _common(p, run_gapode_airy_pde)
    p = g.add_parser("bessel-pde")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--intervals", default="0.5:1.5,2:3")
    _common(p, run_gapode_bessel_pde)
    p = g.add_parser("beta-ode")
    _weight_flags(p)
    p.add_argument("--beta", type=int, default=2, choices=(1, 2, 4))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--grid", default="-2:2:1")
    _common(p, run_inductive, order=64)

    g = groups.add_parser("virasoro").add_subparsers(dest="action", required=True)
    p = g.add_parser("check")
    _weight_flags(p)
    p.add_argument("--beta", type=int, default=2, choices=(1, 2, 4))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k-list", default="-1,0,1,2")
    p.add_argument("--x", type=float, default=0.7)
    p.add_argument("--full-range", action="store_true")
    _common(p, run_virasoro_check, order=64)
    p = g.add_parser("commutators")
    p.add_argument("--beta", type=int, default=2, choices=(1, 2, 4))
    p.add_argument("--n", type=int, default=3)
    _common(p, run_virasoro_commutators)

    g = groups.add_parser("ensemble").add_subparsers(dest="action", required=True)
    p = g.add_parser("gap")
    _weight_flags(p)
    p.add_argument("--beta", type=int, default=2, choices=(1, 2, 4))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--interval", default="-inf:0")
    _common(p, run_ensemble_gap, order=64)
    p = g.add_parser("sample")
    _weight_flags(p)
    p.add_argument("--beta", type=int, default=2, choices=(1, 2, 4))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--interval", default="-inf:0")
    _common(p, run_ensemble_sample, seed=7, order=64)
    p = g.add_parser("inductive")
    _weight_flags(p)
    p.add_argument("--beta", type=int, default=1, choices=(1, 2, 4))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--grid", default="-1:1.5:0.5")
    _common(p, run_inductive, order=64)

    g = groups.add_parser("aci").add_subparsers(dest="action", required=True)
    p = g.add_parser("run")
    p.add_argument("--kind", default="neumann",
                   choices=aci.SYSTEM_KINDS)
    p.add_argument("--f-kind", default=None, choices=aci.SYSTEM_KINDS)
    p.add_argument("--alpha", default="1,2,4")
    p.add_argument("--x", default="0.6,-0.3,0.8")
    p.add_argument("--y", default="0.2,0.5,-0.4")
    p.add_argument("--t-end", type=finite_float, default=10.0)
    p.add_argument("--step", type=finite_float, default=1e-3)
    _common(p, run_aci_run)
    p = g.add_parser("curve")
    p.add_argument("--kind", default="neumann", choices=aci.SYSTEM_KINDS)
    p.add_argument("--alpha", default="1,2,4")
    p.add_argument("--x", default="0.6,-0.3,0.8")
    p.add_argument("--y", default="0.2,0.5,-0.4")
    _common(p, run_aci_curve)

    g = groups.add_parser("tau").add_subparsers(dest="action", required=True)
    p = g.add_parser("kp-check")
    p.add_argument("--n-max", type=int, default=5)
    _common(p, run_tau_kp_check, seed=1, order=64)

    return top


def _echo_params(args):
    skip = {"handler", "group", "action", "out", "check", "tol"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        out[key] = value
    return out


def dispatch(argv):
    """Run one subcommand; returns (RunReport, exit_code, out_path)."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    result = args.handler(args)
    elapsed = time.perf_counter() - start
    print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    report = RunReport(
        command=" ".join(argv),
        params=_echo_params(args),
        rows=result.rows,
        max_abs_residual=float(result.residual),
        self_reported_error=float(result.err),
        seed=getattr(args, "seed", 0),
    )
    code = EXIT_OK
    if args.check:
        tol = args.tol if args.tol is not None else result.tol
        if not (result.residual <= tol) or not result.ok:
            code = EXIT_TOLERANCE
    return report, code, args.out


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
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
