"""Every --check gate can fail, and the README states each one.

The route-mutation table names, for each benchmark workload line, the
entry function of each route the command compares.  Each function in turn
is patched so that its value moves by ten times the command's gate, and
--check must then exit 4.  A mutant that survives is listed with its
reason; a table entry the command no longer calls survives its mutant
too, so a stale entry fails here instead of passing silently.
"""

import contextlib
import importlib
import importlib.util
import io
import math
import pathlib
import re
from fractions import Fraction

import pytest

from laxlab import aci, fredholm, toda, virasoro
from laxlab.cli import EXIT_TOLERANCE, build_parser, dispatch, main

ROOT = pathlib.Path(__file__).resolve().parents[1]

FREDHOLM_JETS = ["gapodes.logdet_partials"]
INDUCTIVE = ["ensembles.gap_log_jets", "ensembles.gap_probability"]
SAMPLE = ["ensembles.gap_probability", "ensembles.sample_ensemble"]
TODA = ["toda.toda_factorization_flow", "toda.toda_ode_flow"]
POLY = ["toda.lanczos", "tau.refine_on_rule"]
PFAFF = ["pfaff.pfaff_lax", "pfaff.pfaff_aks_flow", "pfaff.pfaff_ode_flow"]
PFAFF_KP = ["tau.dlog_block", "pfaff.pfaffian"]
VIRASORO = ["ensembles.EnsembleTau.dlog", "ensembles.EnsembleTau.endpoint_jets"]
COMMUTATORS = ["virasoro.dressed_terms", "virasoro.central_charge"]
ACI = ["aci.aks_flow", "aci.aci_flow"]

# workload line (at seed 0) -> the entry function of each of its routes
ROUTES = {
    "fredholm gap": ["fredholm.nystrom_det"],
    "fredholm gap --kernel bessel --interval 0:s --s-grid 0.5:6:0.5":
        ["fredholm.nystrom_det"],
    "fredholm gap --kernel sine --interval=-s:s --s-grid 0.1:2:0.1":
        ["fredholm.nystrom_det"],
    "fredholm scaling": ["fredholm._hermite_kernel", "fredholm.kernel_eval"],
    "fredholm kernel-table": ["fredholm.kernel_eval"],
    "gapode pii": FREDHOLM_JETS,
    "gapode pv": FREDHOLM_JETS,
    "gapode pv --nu 1": FREDHOLM_JETS,
    # at beta = 2 the gap ODE has no inductive coupling to P_{n +- j}
    "gapode beta-ode": ["ensembles.gap_log_jets"],
    "ensemble gap --beta 1": ["ensembles.gap_probability"],
    "ensemble gap --beta 2": ["ensembles.gap_probability"],
    "ensemble gap --beta 4": ["ensembles.gap_probability"],
    "ensemble gap --weight laguerre --a 1 --interval 0:2":
        ["ensembles.gap_probability"],
    "ensemble inductive": INDUCTIVE,
    "ensemble inductive --beta 4 --n 1": INDUCTIVE,
    "ensemble sample --count 1000000 --beta 1": SAMPLE,
    "ensemble sample --count 1000000 --beta 2": SAMPLE,
    "ensemble sample --count 1000000 --beta 4": SAMPLE,
    "ensemble sample --count 1000000 --weight laguerre --a 1 --interval 0:2":
        SAMPLE,
    "gapode airy-pde --intervals=-4:-1": FREDHOLM_JETS,
    "gapode bessel-pde --intervals 0:1.5,2:3": FREDHOLM_JETS,
    "toda flow": ["toda.toda_measure_flow", *TODA],
    "toda flow --t-end 10 --routes ode,qr --seed 0": TODA,
    "toda poly": POLY,
    "toda poly --weight laguerre --a 1": POLY,
    "pfaff flow": PFAFF,
    "pfaff flow --t-end 1": PFAFF,
    "pfaff check-kp": PFAFF_KP,
    "pfaff check-kp --beta 4": PFAFF_KP,
    "twotoda pde": ["twotoda.gap_log_tau_ratio_taylor"],
    "twotoda identities": ["twotoda.dlog_block"],
    "tau kp-check --seed 0": ["tau.dlog_block"],
    "virasoro check": VIRASORO,
    # the whole line has no finite endpoint, so no endpoint jet
    "virasoro check --full-range": VIRASORO[:1],
    "virasoro check --beta 1 --n 2": VIRASORO,
    "virasoro check --beta 4 --n 2": VIRASORO,
    "virasoro commutators": COMMUTATORS,
    "virasoro commutators --beta 1": COMMUTATORS,
    "aci run": ACI,
    "aci run --kind central_force": ACI,
    "aci curve": ["aci.spectral_curve_coeffs"],
}

SELF_REFINEMENT = ("the refinement compares the route at --order with "
                   "itself at 1.5 --order: a shift moves both alike")
# (workload line, entry) -> why its mutant survives the check
SURVIVORS = {
    ("fredholm kernel-table", "fredholm.kernel_eval"):
        "one route: K(y, z) against K(z, y) is a symmetry check",
    ("pfaff check-kp --beta 4", "tau.dlog_block"):
        "a shift c of every log-tau partial cancels from the linear part of "
        "the KP equation (1 + 3 - 4 = 0) and moves 6 (d1^2 log tau)^2 by "
        "12 c d1^2 log tau = 4e-7 of its largest term, 1,152 at n = 2",
    **{(line, entry): SELF_REFINEMENT
       for line, entries in ROUTES.items() for entry in entries
       if line.startswith(("fredholm gap", "ensemble gap"))},
}


def _workload_lines():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [" ".join(argv[:-1]) for name in module.WORKLOADS
            for argv in module.command_lines(name, 0)]


def test_the_route_table_covers_every_workload_line():
    assert sorted(ROUTES) == sorted(_workload_lines())


def moved(value, by):
    """value + by: a tuple's first element, each entry of a list or dict."""
    if isinstance(value, tuple):
        return (moved(value[0], by), *value[1:])
    if isinstance(value, list):
        return [moved(v, by) for v in value]
    if isinstance(value, dict):
        return {k: moved(v, by) for k, v in value.items()}
    return value + by


def patch_moved(monkeypatch, entry, by):
    """Patch the function at laxlab.<entry> to return its value moved."""
    module, *owners, name = entry.split(".")
    owner = importlib.import_module(f"laxlab.{module}")
    for attr in owners:
        owner = getattr(owner, attr)
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kw: moved(real(*args, **kw), by))


def gate(argv):
    """The command's --check bound: --tol's default, or the bound its
    handler sets from the arguments."""
    args = build_parser().parse_args(argv)
    return args.tol if args.tol is not None else args.handler(args).bound


def quiet_main(argv):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("line", sorted(ROUTES))
def test_moving_any_route_fails_the_check(line, monkeypatch):
    argv = line.split() + ["--check"]
    shift = 10.0 * gate(argv)
    outcome = {}
    for entry in ROUTES[line]:
        with monkeypatch.context() as m:
            patch_moved(m, entry, shift)
            outcome[entry] = quiet_main(argv)
    survived = {e for e, code in outcome.items() if code != EXIT_TOLERANCE}
    listed = {e for (cmd, e) in SURVIVORS if cmd == line}
    assert survived == listed, outcome
    assert all(outcome[e] == 0 for e in listed), outcome


# ----- each extra gate fails on its own -----

LOOSE = ["--tol", "1"]  # far above every primary residual below


def loose_check(argv):
    """(report, exit code) with --tol 1: the primary gate passes."""
    report, code, _ = dispatch(argv.split() + ["--check"] + LOOSE)
    assert report.max_abs_residual <= 1.0
    return report, code


def test_toda_eigenvalue_drift_gate(monkeypatch):
    real = toda.toda_measure_flow
    monkeypatch.setattr(toda, "toda_measure_flow", lambda x, w, k, t: (
        real(x, w, k, t) + (1e-7 if t else 0.0)))
    assert loose_check("toda flow")[1] == EXIT_TOLERANCE


def test_aci_curve_drift_gate(monkeypatch):
    real = aci.aks_flow

    def nudged(*args):
        a, tail = real(*args)
        a = a.copy()
        a[..., 0, 0, 0] += 1e-8
        return a, tail

    monkeypatch.setattr(aci, "aks_flow", nudged)
    report, code = loose_check("aci run")
    rows = {row["metric"]: row["value"] for row in report.rows}
    assert rows["curve_drift"] > 1e-9 and code == EXIT_TOLERANCE


def test_fredholm_scaling_errors_must_fall_with_n(monkeypatch):
    monkeypatch.setattr(fredholm, "scaling_limit_error",
                        lambda N, regime, grid, b: 1e-3 * N)
    assert loose_check("fredholm scaling")[1] == EXIT_TOLERANCE


def test_virasoro_central_charge_gate(monkeypatch):
    # the charge enters the [V_k, V_-k] residual too, by (k^3 - k) / 12
    real = virasoro.central_charge
    monkeypatch.setattr(virasoro, "central_charge",
                        lambda beta: real(beta) + Fraction(1, 1000))
    assert loose_check("virasoro commutators")[1] == EXIT_TOLERANCE


def test_a_nan_extra_gate_fails(monkeypatch):
    real = aci.route_report
    monkeypatch.setattr(aci, "route_report", lambda *args: {
        **real(*args), "curve_drift": math.nan})
    assert loose_check("aci run")[1] == EXIT_TOLERANCE


# ----- the README gate table -----

def readme_gates():
    """command -> bound cell of each row of the README's gate table."""
    section = (ROOT / "README.md").read_text().split("### Gates")[1]
    rows = {}
    for line in section.split("###")[0].splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[0].strip("`")] = cells[2]
    return rows


def test_readme_gate_table_matches_the_parser():
    rows = readme_gates()
    parser = build_parser()
    groups = parser._subparsers._group_actions[0].choices
    commands = {f"{group} {action}" for group, sub in groups.items()
                for action in sub._subparsers._group_actions[0].choices}
    assert set(rows) == commands
    for command, bound in rows.items():
        default = parser.parse_args(command.split()).tol
        number = re.fullmatch(r"`([-+.\de]+)`", bound)
        if number:
            assert default == float(number.group(1)), command
        else:  # the bound depends on the arguments
            assert default is None, command
