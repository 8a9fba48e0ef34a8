import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxlab import aci, pfaff, toda
from laxlab.cli import (
    EXIT_NUMERICAL,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    build_parser,
    canonical_json,
    dispatch,
    emit_report,
    main,
    parse_floats,
    parse_grid,
    parse_ints,
)
from laxlab.errors import UsageError
from laxlab.intervals import IntervalUnion

PII_SMALL = ["gapode", "pii", "--grid", "0:2:1"]


def run_bytes(argv, fmt="json"):
    report, code, _ = dispatch(argv)
    return emit_report(report, fmt), code


# ----- parsing -----

def test_parse_grid_inclusive():
    grid = parse_grid("-1:1:0.5")
    assert np.allclose(grid, [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(UsageError):
        parse_grid("1:2")
    with pytest.raises(UsageError):
        parse_grid("2:1:0.5")


def test_parse_grid_rejects_nonfinite_and_huge_grids():
    for text in ("0:0:nan", "0:inf:1", "nan:1:0.5", "0:1e10:1e-5"):
        with pytest.raises(UsageError):
            parse_grid(text)


# numbers, sentinels and separators, so that examples often reach the
# checks behind the split and the float parse
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "s", "-s", "1e308", "-0", ""]),
    st.integers(-9, 9).map(str),
)
PARSER_TEXT = st.one_of(
    st.text(max_size=16),
    st.lists(NUMBER_TEXT, max_size=4).map(":".join),
    st.lists(NUMBER_TEXT, max_size=5).map(",".join),
    st.lists(st.lists(NUMBER_TEXT, max_size=2).map(":".join), max_size=3)
    .map(",".join),
)


@settings(max_examples=60, deadline=None)
@given(PARSER_TEXT)
def test_parsers_return_or_raise_usage_error(text):
    for parse in (IntervalUnion.parse, parse_grid, parse_floats, parse_ints):
        try:
            parse(text)
        except UsageError:
            pass


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.text(max_size=12),
                 st.lists(NUMBER_TEXT, max_size=4).map(",".join)))
def test_aci_curve_alpha_exits_cleanly(text):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["aci", "curve", "--alpha", text, "--check"])
    assert code in (0, 2, 3, 4)


def test_aci_curve_gates_on_the_fit():
    # the residual compares the fit with det(z I - a(h)) at held-out h
    report, code, _ = dispatch(["aci", "curve", "--check"])
    assert code == 0 and 0.0 < report.max_abs_residual < 1e-13
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["aci", "curve", "--alpha", "1e308,-1e308,1", "--check"])
    assert code == 3


def test_interval_value_may_start_with_minus():
    grid = ["--s-grid", "0.1:2:0.1"]
    spaced, code, _ = dispatch(
        ["fredholm", "gap", "--kernel", "sine", "--interval", "-s:s"] + grid)
    joined, _, _ = dispatch(
        ["fredholm", "gap", "--kernel", "sine", "--interval=-s:s"] + grid)
    assert code == 0
    # the command field echoes argv verbatim; every other byte must agree
    spaced.command = joined.command = ""
    assert emit_report(spaced, "json") == emit_report(joined, "json")
    report, _, _ = dispatch(
        ["gapode", "airy-pde", "--intervals", "-4:-1,1:inf"])
    assert report.params["intervals"] == "-4:-1,1:inf"


def test_unknown_command_is_usage_error():
    with pytest.raises(UsageError):
        dispatch(["gapode", "pii", "--bogus", "1"])
    assert main(["gapode", "pii", "--bogus", "1"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


# ----- canonical serialization -----

def test_canonical_json_formatting():
    text = canonical_json({"b": 0.1, "a": [1, True, None], "c": math.inf})
    assert text == '{"a":[1,true,null],"b":0.10000000000000001,"c":"inf"}'


def test_json_report_round_trips():
    payload, code = run_bytes(PII_SMALL)
    assert code == 0
    doc = json.loads(payload)
    assert "wall_time" not in doc
    assert doc["max_abs_residual"] < 1e-4
    assert [row["A"] for row in doc["rows"]] == [0.0, 1.0, 2.0]


def test_reports_are_bytewise_deterministic():
    first, _ = run_bytes(PII_SMALL)
    second, _ = run_bytes(PII_SMALL)
    assert first == second


def test_csv_rows_match_grid():
    payload, _ = run_bytes(PII_SMALL, fmt="csv")
    lines = payload.decode().strip().split("\n")
    assert lines[0] == "A,residual"
    assert len(lines) == 1 + 3


def test_sampling_report_thread_invariant():
    argv = [
        "ensemble", "sample", "--beta", "2", "--n", "2",
        "--count", "4000", "--seed", "9",
    ]
    prev = os.environ.get("LAXLAB_THREADS")
    try:
        os.environ["LAXLAB_THREADS"] = "1"
        serial, _ = run_bytes(argv)
        os.environ["LAXLAB_THREADS"] = "3"
        threaded, _ = run_bytes(argv)
    finally:
        if prev is None:
            os.environ.pop("LAXLAB_THREADS", None)
        else:
            os.environ["LAXLAB_THREADS"] = prev
    assert serial == threaded


# ----- exit codes -----

# argv of the moment-route checkers, far tails included: there the moment
# block is singular or the gap probability underflows
COORD = st.sampled_from(["-40", "-3", "-1", "0", "1e-9", "0.7", "2", "40",
                         "1e3", "nan", "x"])
GRID = st.one_of(
    COORD.map(lambda x: f"{x}:{x}:1"),
    st.sampled_from(["-2:2:1", "-1:1.5:0.5", "0.5:3:1.25", "2:1:1", "x"]),
)
K_LIST = st.one_of(
    st.lists(st.integers(-3, 5), min_size=1, max_size=3).map(
        lambda ks: ",".join(map(str, ks))),
    st.sampled_from(["x", "", "1,,2"]),
)


@st.composite
def moment_route_argv(draw):
    cmd = draw(st.sampled_from([["gapode", "beta-ode"],
                                ["ensemble", "inductive"],
                                ["virasoro", "check"]]))
    argv = cmd + [
        "--weight", draw(st.sampled_from(["gaussian", "laguerre", "uniform"])),
        "--a", draw(st.sampled_from(["0", "1", "2.5", "-0.5"])),
        "--beta", draw(st.sampled_from(["1", "2", "4"])),
        "--n", str(draw(st.integers(0, 4))),
    ]
    if cmd[0] == "virasoro":
        argv += ["--x", draw(COORD), "--k-list", draw(K_LIST)]
        if draw(st.booleans()):
            argv.append("--full-range")
    else:
        argv += ["--grid", draw(GRID)]
    return argv + ["--check"]


@settings(max_examples=40, deadline=None)
@given(moment_route_argv())
def test_moment_route_commands_exit_cleanly(argv):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)


# argv of the commands built on skew moments (batched cut rules) and on the
# exact operator algebra; unions include unbounded and degenerate pieces
SIGNED = st.sampled_from(["-1", "0", "0.5", "1", "2.5", "1e3", "nan", "inf",
                          "x"])
UNIONS = st.sampled_from([
    "-inf:0", "-inf:inf", "0:2", "0:inf", "-inf:-1,0:1", "-1:0.5,1:inf",
    "-inf:-2,-1:1,2:inf", "-3:-1,0:0.5,1:inf", "1e16:1e16,1:2", "2:1",
    "0:1,1:2", "nan:1", "x",
])


@st.composite
def skew_and_algebra_argv(draw):
    cmd = draw(st.sampled_from(["commutators", "check-kp", "gap"]))
    if cmd == "commutators":
        argv = ["virasoro", "commutators",
                "--beta", draw(st.sampled_from(["1", "2", "4", "3"])),
                "--n", str(draw(st.integers(-2, 6)))]
    elif cmd == "check-kp":
        argv = ["pfaff", "check-kp",
                "--beta", draw(st.sampled_from(["1", "4", "2"])),
                "--n-list", draw(st.one_of(
                    st.lists(st.integers(-2, 8), min_size=1, max_size=3).map(
                        lambda ns: ",".join(map(str, ns))),
                    st.sampled_from(["x", "", "2,,4"]))),
                "--a", draw(SIGNED), "--b", draw(SIGNED)]
    else:
        argv = ["ensemble", "gap",
                "--beta", draw(st.sampled_from(["1", "4"])),
                "--weight", draw(st.sampled_from(["gaussian", "laguerre",
                                                  "uniform"])),
                "--a", draw(SIGNED), "--b", draw(SIGNED),
                "--n", str(draw(st.integers(0, 4))),
                "--interval", draw(UNIONS)]
    return argv + ["--check"]


@settings(max_examples=60, deadline=None)
@given(skew_and_algebra_argv())
def test_skew_and_algebra_commands_exit_cleanly(argv):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)


# argv of the RK4 flow commands; |t_end| / step <= 2,000 bounds the steps
FLOW_STEPS = st.sampled_from(["0", "-0.01", "nan", "inf", "0.01", "0.1", "1.5"])
FLOW_ENDS = st.sampled_from(["-0.5", "0", "0.3", "2", "20", "nan", "inf",
                             "-inf"])


ACI_ENTRIES = st.sampled_from(["-1", "0", "0.3", "1", "2", "4", "-2.5", "nan",
                               "1e308"])


@st.composite
def flow_argv(draw):
    step, t_end = draw(FLOW_STEPS), draw(FLOW_ENDS)
    cmd = draw(st.sampled_from(["toda", "pfaff", "aci"]))
    k = str(draw(st.integers(-1, 3)))
    if cmd == "toda":
        argv = ["toda", "flow", "--n", str(draw(st.integers(-1, 7))),
                "--k", k]
    elif cmd == "pfaff":
        argv = ["pfaff", "flow", "--size", str(draw(st.integers(-2, 14))),
                "--k", k]
    else:
        kinds = st.sampled_from(["euler", "geodesic", "neumann",
                                 "central_force", "bogus"])
        argv = ["aci", "run", "--kind", draw(kinds), "--f-kind", draw(kinds)]
        # mostly equal lengths, so that examples reach both flow routes
        size = draw(st.integers(1, 4))
        for flag in ("--alpha", "--x", "--y"):
            length = draw(st.sampled_from([size, size, size, size + 1]))
            argv += [flag, ",".join(draw(st.lists(
                ACI_ENTRIES, min_size=length, max_size=length)))]
    return argv + ["--step", step, "--t-end", t_end, "--check"]


@settings(max_examples=40, deadline=None)
@given(flow_argv())
def test_flow_commands_exit_cleanly(argv):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)


# argv of every other command: the Fredholm tables, the Painleve and PDE
# residual checkers, the sampler, the orthogonal polynomials, the
# two-Toda checks and the KP check.  Each value is well formed seven times
# in eight, so that most draws reach the numerics; grids, counts and
# orders stay small, and at most two finite interval endpoints keep the
# PDE checkers cheap
GRIDS = (["-2:0:1", "0.5:1:0.5", "0:0:1", "-40:-40:1", "1e3:1e3:1"],
         ["2:1:1", "nan:1:1", "x"])
ORDERS = (["4", "16", "48"], ["0", "-3"])
REALS = (["-1", "0", "0.5", "1", "2.5", "1e3"], ["nan", "inf", "x"])
LISTS = (["0.3", "0.3,-0.2", "0"], ["nan", "x", ""])
WEIGHTS = (["gaussian", "laguerre", "uniform"], ["bogus"])


@st.composite
def other_command_argv(draw):
    def pick(valid, invalid=()):
        bad = invalid and draw(st.integers(0, 7)) == 0
        return draw(st.sampled_from(invalid if bad else valid))

    def count(lo, hi):
        return pick([str(n) for n in range(lo, hi + 1)], [str(lo - 1)])

    cmd = draw(st.sampled_from([
        "fredholm gap", "fredholm scaling", "fredholm kernel-table",
        "gapode pii", "gapode pv", "gapode airy-pde", "gapode bessel-pde",
        "ensemble sample", "toda poly", "twotoda pde", "twotoda identities",
        "tau kp-check"]))
    argv = cmd.split()
    if cmd == "fredholm gap":
        argv += ["--kernel", pick(["airy", "bessel", "sine"], ["bogus"]),
                 "--nu", pick(*REALS), "--N", count(1, 3),
                 "--lam", pick(*REALS),
                 "--interval", pick(["s:inf", "0:s", "-s:s", "s:s"], ["x"]),
                 "--s-grid", pick(*GRIDS), "--order", pick(*ORDERS)]
    elif cmd == "fredholm scaling":
        argv += ["--regime", pick(["bulk", "edge"]),
                 "--N-list", pick(["20", "3,5"], ["0", "-1", "x"]),
                 "--b", pick(*REALS), "--grid", pick(*GRIDS)]
    elif cmd == "fredholm kernel-table":
        argv += ["--kernel", pick(["airy", "bessel", "sine", "hermite"],
                                  ["bogus"]),
                 "--nu", pick(*REALS), "--N", count(1, 12),
                 "--b", pick(*REALS), "--y-grid", pick(*GRIDS),
                 "--z-grid", pick(*GRIDS)]
    elif cmd == "gapode pii":
        argv += ["--grid", pick(*GRIDS)]
    elif cmd == "gapode pv":
        argv += ["--nu", pick(*REALS), "--grid", pick(*GRIDS)]
    elif cmd == "gapode airy-pde":
        argv += ["--intervals", pick(["-4:-1", "-2:-1", "1:inf", "-3:-3"],
                                     ["-1:-4", "nan:1", "x"])]
    elif cmd == "gapode bessel-pde":
        argv += ["--nu", pick(*REALS), "--intervals", pick(
            ["0:1.5", "0.5:1.5", "0:1,2:3"], ["-1:1", "2:1", "1:inf", "x"])]
    elif cmd == "ensemble sample":
        argv += ["--beta", pick(["1", "2", "4"]),
                 "--weight", pick(*WEIGHTS),
                 "--a", pick(*REALS), "--b", pick(*REALS),
                 "--n", count(0, 3), "--count", pick(["200", "1"], ["0"]),
                 "--interval", draw(UNIONS), "--seed", count(0, 3),
                 "--order", pick(*ORDERS)]
    elif cmd == "toda poly":
        argv += ["--weight", pick(*WEIGHTS),
                 "--a", pick(*REALS), "--b", pick(*REALS),
                 "--n", count(0, 4), "--grid", pick(*GRIDS),
                 "--order", pick(*ORDERS)]
    elif cmd == "twotoda pde":
        argv += ["--c", pick(*REALS), "--a-list", pick(*LISTS),
                 "--b-list", pick(*LISTS), "--n", count(1, 2),
                 "--order", pick(*ORDERS)]
    elif cmd == "twotoda identities":
        argv += ["--c", pick(*REALS), "--n", count(0, 3),
                 "--order", pick(*ORDERS)]
    else:
        argv += ["--n-max", count(0, 4), "--seed", count(0, 3),
                 "--order", pick(*ORDERS)]
    return argv + ["--check"]


@settings(max_examples=100, deadline=None)
@given(other_command_argv())
def test_other_commands_exit_cleanly(argv):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("argv, code", [
    ("fredholm kernel-table --kernel hermite --N 3", 0),
    ("fredholm gap --kernel bessel --interval=-s:s --s-grid 0.5:1:0.5",
     EXIT_USAGE),
    ("gapode pv --nu nan --grid 0.5:1:0.5", EXIT_USAGE),
    ("gapode pv --nu 1e3 --grid 1e3:1e3:1", EXIT_NUMERICAL),
    ("ensemble sample --weight laguerre --a inf", EXIT_USAGE),
    ("ensemble gap --weight laguerre --a 1e3 --b 1e3 --n 3 --interval 0:0.5 "
     "--order 16", EXIT_NUMERICAL),
    ("toda poly --n -1", EXIT_USAGE),
    ("twotoda pde --n 0", EXIT_USAGE),
    # at c = 0 every bi-moment block beyond 1 x 1 has rank one
    ("twotoda identities --c 0", EXIT_NUMERICAL),
    # the bi-moments overflow to inf
    ("twotoda identities --n 80", EXIT_NUMERICAL),
    ("tau kp-check --seed -1", EXIT_USAGE),
])
def test_inputs_that_raised_tracebacks_exit_cleanly(argv, code):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main((argv + " --check").split()) == code


@pytest.mark.parametrize("kind", ["neumann", "central_force"])
def test_aci_run_reports_both_routes(kind):
    report, code, _ = dispatch(["aci", "run", "--kind", kind, "--check"])
    rows = {row["metric"]: row["value"] for row in report.rows}
    assert code == 0
    assert list(rows) == ["curve_drift", "aks_rk4_gap", "aks_tail"]
    assert rows["curve_drift"] <= 1e-9 and rows["aks_rk4_gap"] <= 1e-10
    assert report.max_abs_residual == rows["aks_rk4_gap"]
    assert report.self_reported_error >= rows["aks_rk4_gap"] > 0.0
    assert report.self_reported_error >= rows["aks_tail"] > 0.0


def test_aci_run_gates_on_the_route_gap():
    # RK4's error at step 4e-3 is about 2.5e-10 over one segment
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["aci", "run", "--step", "4e-3", "--check"]) \
            == EXIT_TOLERANCE
        assert main(["aci", "run", "--step", "2e-3", "--check"]) == 0


def test_aci_run_report_independent_of_blas_threads():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "laxlab.cli", "aci", "run", "--kind",
             "central_force", "--check"],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1


def report_at_blas_threads(argv, threads):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-m", "laxlab.cli", *argv],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_toda_flow_report_independent_of_blas_threads():
    # every segment of the ODE route runs in one batched RK4 pass
    argv = ["toda", "flow", "--t-end", "10", "--routes", "ode,qr", "--check"]
    assert report_at_blas_threads(argv, "1") == report_at_blas_threads(argv, "2")


def rk4_with_part_negated(real, part):
    """rk4 whose right-hand side has ``part`` negated: with 0, the first
    segment of a batched flow runs backwards; with ..., the whole Pfaff
    flow does (row 0 of its L' is identically 0).  The flows' invariants
    hold along it, so no drift guard sees it; only the comparison with an
    exact route can."""
    def rk4(rhs, y, *args, **kwargs):
        def wrong(state):
            out = rhs(state)
            out[part] = -out[part]
            return out
        return real(wrong, y, *args, **kwargs)
    return rk4


@pytest.mark.parametrize("argv", [
    "toda flow --routes ode,qr --check",
    "aci run --check",
    "pfaff flow --check",
])
def test_a_wrong_right_hand_side_fails_the_route_check(argv, monkeypatch):
    for module, part in ((toda, 0), (aci, 0), (pfaff, ...)):
        monkeypatch.setattr(module, "rk4",
                            rk4_with_part_negated(module.rk4, part))
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv.split()) == EXIT_TOLERANCE


@pytest.mark.parametrize("argv", [
    "toda flow --t-end 30 --step 2e-5 --routes ode --check",
    "aci run --t-end 30 --step 2e-5 --check",
])
def test_step_cap_bounds_the_whole_segmented_run(argv, monkeypatch, capsys):
    # 1.5e6 steps in all, but only 6e4 in each segment
    def no_work(*args, **kwargs):
        raise AssertionError("the exact route ran before the step check")

    monkeypatch.setattr(toda, "toda_factorization_flow", no_work)
    monkeypatch.setattr(aci, "aks_plan", no_work)
    assert main(argv.split()) == EXIT_USAGE
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "toda flow --t-end nan",
    "toda flow --step nan",
    "aci run --step nan",
    "aci run --t-end nan --check",
    "toda flow --t-end inf --routes ode",
])
def test_nonfinite_flow_times_and_steps_exit_usage(argv, capsys):
    assert main(argv.split()) == EXIT_USAGE
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "aci run --step 1e-300 --check",
    "toda flow --t-end 1e300 --routes ode --check",
    "pfaff flow --step 1e-300 --check",
])
def test_flow_step_counts_are_bounded(argv, capsys):
    assert main(argv.split()) == EXIT_USAGE
    assert "steps" in capsys.readouterr().err


COMMANDS = (
    "toda flow", "toda poly", "pfaff flow", "pfaff check-kp", "twotoda pde",
    "twotoda identities", "fredholm gap", "fredholm kernel-table",
    "fredholm scaling", "gapode pii", "gapode pv", "gapode airy-pde",
    "gapode bessel-pde", "gapode beta-ode", "virasoro check",
    "virasoro commutators", "ensemble gap", "ensemble sample",
    "ensemble inductive", "aci run", "aci curve", "tau kp-check",
)
READS_SEED = {"toda flow", "ensemble sample", "tau kp-check"}
READS_ORDER = {
    "toda poly", "pfaff flow", "pfaff check-kp", "twotoda pde",
    "twotoda identities", "fredholm gap", "gapode beta-ode", "virasoro check",
    "ensemble gap", "ensemble sample", "ensemble inductive", "tau kp-check",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_seed_and_order_only_where_read(command):
    for flag, readers in (("--seed", READS_SEED), ("--order", READS_ORDER)):
        argv = command.split() + [flag, "5"]
        if command in readers:
            assert getattr(build_parser().parse_args(argv), flag[2:]) == 5
        else:
            with pytest.raises(UsageError):
                build_parser().parse_args(argv)


def test_ignored_flag_exits_usage():
    assert main(["gapode", "pii", "--seed", "5"]) == EXIT_USAGE
    assert main(["aci", "run", "--order", "10"]) == EXIT_USAGE


def test_integer_list_flags_reject_non_integers(capsys):
    for argv in (["virasoro", "check", "--k-list", "1,x"],
                 ["pfaff", "check-kp", "--n-list", "2.5"],
                 ["fredholm", "scaling", "--N-list", ""]):
        assert main(argv) == EXIT_USAGE
    assert "integer list" in capsys.readouterr().err


def test_far_tail_airy_arguments_exit_cleanly(capsys):
    # Ai underflows to 0 without forming x^{3/2}; far below the bound of
    # the oscillatory march the argument is rejected at once
    assert main(["fredholm", "kernel-table", "--y-grid", "1e300:1e300:1",
                 "--check"]) == 0
    assert main(["fredholm", "gap", "--s-grid=-1e7:-1e7:1",
                 "--check"]) == EXIT_USAGE
    assert "-200" in capsys.readouterr().err


def test_laguerre_beta4_full_range_skew_moments_stay_finite():
    # rho nodes^j accumulates one factor at a time: far half-line nodes,
    # where rho underflows, no longer overflow the powers past j ~ 110
    report, code, _ = dispatch(["virasoro", "check", "--weight", "laguerre",
                                "--beta", "4", "--n", "1", "--full-range",
                                "--check"])
    assert code == 0 and report.max_abs_residual < 1e-10


def test_check_gate_exit_codes():
    _, code, _ = dispatch(PII_SMALL + ["--check"])
    assert code == 0
    _, code, _ = dispatch(PII_SMALL + ["--check", "--tol", "-1"])
    assert code == EXIT_TOLERANCE


def test_numerical_error_exit_code(capsys):
    # a gap probability this deep underflows the usable range
    code = main([
        "gapode", "beta-ode", "--beta", "2", "--n", "2", "--grid", "-8:-8:1",
    ])
    assert code == EXIT_NUMERICAL
    capsys.readouterr()


def test_out_file_and_format(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(PII_SMALL + ["--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    out_json = tmp_path / "report.json"
    assert main(PII_SMALL + ["--out", str(out_json)]) == 0
    json.loads(out_json.read_text())
    capsys.readouterr()


def test_far_tail_gap_probabilities_exit_numerical(capsys):
    # below the Nystrom resolution the determinant comes out negative
    assert main(["gapode", "pii", "--grid", "-14:-12:1", "--check"]) == (
        EXIT_NUMERICAL
    )
    assert "-14" in capsys.readouterr().err
    assert main([
        "fredholm", "gap", "--s-grid", "-14:-12:1", "--check",
    ]) == EXIT_NUMERICAL
    assert "error estimate" in capsys.readouterr().err


# ----- spot checks of a few subcommands -----

def test_fredholm_gap_smoke_row():
    report, code, _ = dispatch([
        "fredholm", "gap", "--kernel", "airy", "--interval", "s:inf",
        "--s-grid", "0:1:0.5", "--order", "48", "--check",
    ])
    assert code == 0
    smoke = report.rows[0]
    assert math.isnan(smoke["s"])
    assert smoke["det"] == 1.0
    assert report.self_reported_error < 1e-10


def test_toda_flow_routes_agree():
    report, code, _ = dispatch([
        "toda", "flow", "--n", "4", "--k", "1", "--t-end", "0.3",
        "--step", "1e-3", "--routes", "tau,ode,qr", "--seed", "42", "--check",
    ])
    assert code == 0
    assert report.max_abs_residual < 1e-6


@pytest.mark.parametrize("argv", [
    "toda flow --n 14",  # a Hankel block that is not positive definite
    # positive definite, but rounding loses a Jacobi offdiagonal
    "toda flow --n 13 --seed 14 --routes tau",
])
def test_toda_tau_route_failures_exit_numerical(argv):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main((argv + " --check").split()) == EXIT_NUMERICAL


@pytest.mark.parametrize("base, changed", [
    ("--beta 4 --a 1", "--beta 4 --a 0"),
    ("--beta 4 --b 1", "--beta 4 --b 2"),
    ("--beta 1 --b 1", "--beta 1 --b 2"),
])
def test_pfaff_check_kp_honours_its_weight_flags(base, changed):
    rows = [dispatch(["pfaff", "check-kp", *argv.split()])[0].rows
            for argv in (base, changed)]
    assert rows[0] != rows[1]


def test_virasoro_commutators_report():
    report, code, _ = dispatch([
        "virasoro", "commutators", "--beta", "1", "--check",
    ])
    assert code == 0
    assert report.max_abs_residual == 0.0
    assert report.rows[-1]["central_charge"] == -2.0


def test_ensemble_gap_report():
    report, code, _ = dispatch([
        "ensemble", "gap", "--beta", "2", "--n", "1",
        "--interval", "-inf:0", "--check",
    ])
    assert code == 0
    assert report.rows[0]["probability"] == pytest.approx(0.5, abs=1e-12)


def test_aci_curve_monic():
    report, code, _ = dispatch(["aci", "curve", "--check"])
    assert code == 0
    rows = {(r["h_power"], r["z_power"]): r["q"] for r in report.rows}
    assert rows[(0, 3)] == 1.0
