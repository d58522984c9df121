"""Command-line interface: exit codes, formats, determinism, seeds."""

import itertools
import json
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from todadual import cli, toda, verify
from todadual.cli import main
from todadual.errors import StepFailureError
from todadual.rootsys import AlgebraType, build_root_datum
from todadual.sampling import sample_flow_toda, spawn_rng
from todadual.toda import TodaPoint, _trace_hamiltonians, build_lax, integrate_flow, quadratic_index


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lax_json_golden(capsys):
    code, out, _ = run_cli(
        capsys, "lax", "--type", "A", "--rank", "2", "--q", "0.3,-0.2", "--p", "0.7,0.1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["family"] == "A"
    assert doc["header"]["rank"] == 2
    assert doc["point"]["q"] == [0.3, -0.2]
    X = doc["X"]
    assert X["rows"] == 2 and X["cols"] == 2
    w = float(np.exp(0.5))
    assert X["re"] == pytest.approx([0.7, w, w, 0.1], abs=1e-15)
    assert X["im"] == [0.0, 0.0, 0.0, 0.0]
    g = doc["g"]
    assert g["re"] == pytest.approx([np.exp(0.3), 0.0, 0.0, np.exp(-0.2)], abs=1e-15)


def test_lax_sp4_structure(capsys):
    code, out, _ = run_cli(
        capsys, "lax", "--type", "C", "--rank", "2", "--q", "0.4,-0.3", "--p", "0.6,-0.1"
    )
    assert code == 0
    X = json.loads(out)["X"]
    M = np.array(X["re"]).reshape(4, 4)
    a = np.exp(0.7)
    b = np.exp(-0.6)
    ref = np.array(
        [
            [0.6, a, 0.0, 0.0],
            [a, -0.1, b, 0.0],
            [0.0, b, 0.1, -a],
            [0.0, 0.0, -a, -0.6],
        ]
    )
    assert np.max(np.abs(M - ref)) < 1e-14


def test_lax_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "lax", "--type", "A", "--rank", "2", "--seed", "5", "--format", "tsv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "matrix\trow\tcol\tre\tim"
    assert len(lines) == 1 + 2 * 4  # header + two 2x2 matrices
    first = lines[1].split("\t")
    assert first[0] == "g" and first[1] == "0" and first[2] == "0"


def test_dual_map_golden(capsys):
    code, out, _ = run_cli(
        capsys, "dual-map", "--type", "A", "--rank", "2", "--q", "0,0", "--p", "1,-1"
    )
    assert code == 0
    doc = json.loads(out)
    r2 = float(np.sqrt(2.0))
    assert doc["goldfish_point"]["qhat"] == pytest.approx([r2, -r2], abs=1e-12)
    assert doc["identities"]["max_relative_mismatch"] < 1e-9
    assert doc["roundtrip"]["max_abs_error"] < 1e-9
    assert doc["roundtrip"]["q"] == pytest.approx([0.0, 0.0], abs=1e-9)


def test_verify_passes_and_reports(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "B", "--rank", "2", "--seed", "7",
        "--points", "3", "--flow-steps", "50",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["tool"] == "todadual"
    assert doc["header"]["command"] == "verify"
    assert doc["all_passed"] is True
    names = [rec["property"] for rec in doc["properties"]]
    assert "round-trip" in names and "symplectomorphism" in names


def test_verify_d_family_logs_discrepancy(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "D", "--rank", "2", "--seed", "7",
        "--points", "2", "--flow-steps", "50",
    )
    assert code == 0
    doc = json.loads(out)
    kinds = {e["kind"] for e in doc["discrepancy_log"]}
    assert "printed-form-vs-oracle" in kinds


def test_integrate_columns_and_conservation(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", "--type", "C", "--rank", "2", "--seed", "3",
        "--dt", "1e-3", "--steps", "100",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,q1,q2,p1,p2,H1,H2,lam1,lam2,lam3,lam4"
    assert len(lines) == 102
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # time column, conserved H columns, descending eigenvalue columns
    assert rows[1, 0] == pytest.approx(1e-3)
    drift = np.max(np.abs(rows[:, 5:7] - rows[0, 5:7]))
    assert drift < 1e-8
    assert np.all(np.diff(rows[0, 7:]) < 0.0)


def test_integrate_zero_dt_rows_constant(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", "--type", "A", "--rank", "2", "--seed", "1",
        "--dt", "0", "--steps", "4", "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    body = {ln.split("\t", 1)[1] for ln in lines[1:]}  # drop the t column
    assert len(body) == 1


@pytest.mark.parametrize(
    "fam,n,extra",
    [("A", 1, ("--hamiltonian", "1")), ("B", 1, ()), ("C", 2, ()), ("D", 4, ()), ("A", 5, ()), ("D", 8, ())],
)
@pytest.mark.parametrize("steps", [0, 7])
@pytest.mark.parametrize("fmt", ["csv", "tsv"])
def test_integrate_table_matches_per_row_reference(capsys, fam, n, extra, steps, fmt):
    seed, dt = 4, 1e-2
    code, out, _ = run_cli(
        capsys, "integrate", "--type", fam, "--rank", str(n), "--seed", str(seed),
        "--dt", repr(dt), "--steps", str(steps), "--format", fmt, *extra,
    )
    assert code == 0
    datum = build_root_datum(AlgebraType(fam, n))
    k = int(extra[1]) if extra else quadratic_index(datum)
    point = sample_flow_toda(datum, spawn_rng(seed, 0))
    assert_rows_match_reference(out, datum, point, k, dt, steps, fmt)


def assert_rows_match_reference(out, datum, point, k, dt, steps, fmt):
    # Reference: one row at a time from the public Lax build, each cell cli._fmt's.
    n = datum.algebra.rank
    traj = integrate_flow(datum, point, k, dt, steps)
    sep = "," if fmt == "csv" else "\t"
    lines = out.split("\n")
    assert len(lines) == steps + 3 and lines[-1] == ""
    for step, row in enumerate(traj):
        X = build_lax(datum, TodaPoint(q=row[:n], p=row[n:]))
        cells = [step * dt, *row, *_trace_hamiltonians(datum, X), *np.linalg.eigvalsh(X)[::-1]]
        assert lines[step + 1] == sep.join(cli._fmt(v) for v in cells)


@pytest.mark.parametrize("fmt", ["csv", "tsv"])
@pytest.mark.parametrize(
    "p,cell",
    [
        ("1e-310,-1e-310", "9.9999999999999694e-311"),  # a subnormal, in scientific notation
        ("-0.0,0", "-0"),
    ],
)
def test_integrate_writes_scientific_cells_and_signed_zeros(capsys, p, cell, fmt):
    code, out, _ = run_cli(
        capsys, "integrate", "--type", "A", "--rank", "2", "--q", "0,0", f"--p={p}", "--steps", "3", "--format", fmt
    )
    assert code == 0
    sep = "," if fmt == "csv" else "\t"
    assert cell in out.split("\n")[1].split(sep)
    datum = build_root_datum(AlgebraType("A", 2))
    point = TodaPoint(q=np.zeros(2), p=np.array([float(v) for v in p.split(",")]))
    assert_rows_match_reference(out, datum, point, quadratic_index(datum), 1e-3, 3, fmt)


def g17_sweep():
    """About a million doubles where "%.17g" is hardest to match: random bit
    patterns of both signs, 18-digit decimals ending in 5 (ties at 17 digits),
    every power of 2 and of 10, and the extremes."""
    rng = np.random.default_rng(17)
    patterns = rng.integers(0, 2**64, size=700_000, dtype=np.uint64).view(np.float64)
    ties = [
        float(f"{digits}5e{k}")
        for k in range(-320, 301)
        for digits in rng.integers(10**16, 10**17, size=240).tolist()
    ]
    edges = [5e-324, 0.0, -0.0, np.nan, np.inf, -np.inf]
    powers = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    x = np.concatenate([patterns, ties, np.negative(ties), edges, powers])
    return np.concatenate([x, np.zeros(-x.size % 10)]).reshape(-1, 10)


def assert_g17_text(x):
    cells = np.zeros(x.shape + (cli._CELL_WORDS,), "<u8")
    cli._write_g17(x, cells)
    for sep in ",\t":
        got = cli._cells_text(cells, sep).split("\n")
        want = [sep.join("%.17g" % v for v in row) for row in x.tolist()] + [""]
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert bad is None and len(got) == len(want), (got[bad], want[bad]) if bad is not None else len(got)


def test_table_writer_matches_percent_format_byte_for_byte():
    assert_g17_text(g17_sweep())


def test_table_writer_fallback_alone_matches_percent_format(monkeypatch):
    # a margin past 0.5 sends every cell to Python's own "%.17g", as on a
    # platform whose long double is a double; a quarter of the rows keeps
    # the per-cell formatting of that route short
    monkeypatch.setattr(cli, "_G17_MARGIN", (1.0, 1.0))
    assert_g17_text(g17_sweep()[::4])


@pytest.mark.skipif(min(cli._G17_MARGIN) >= 0.5, reason="long double is a double: every cell falls back")
def test_table_writer_powers_of_ten_are_correctly_rounded():
    # the writer's error bound takes each 10**s within half an ulp
    powers, exact = cli._g17_tables()[:2]
    u = Fraction(1, 2 ** (np.finfo(np.longdouble).nmant + 1))
    for s, (power, is_exact) in enumerate(zip(powers, exact), cli._S_MIN):
        error = abs(Fraction(*power.as_integer_ratio()) - Fraction(10) ** s)
        assert error <= u * Fraction(10) ** s, s
        assert (error == 0) == bool(is_exact), s


def test_integrate_past_memory_is_a_runtime_error(capsys):
    # 10**16 rows of q and p take 3.2e17 bytes, past even a 57-bit address
    # space, so the allocator refuses them outright even where it overcommits
    code, out, err = run_cli(capsys, "integrate", "--type", "A", "--rank", "2", "--steps", str(10**16))
    rows = 10**16 + 1
    assert code == 1 and out == ""
    assert f"a table of {rows} rows and 9 columns needs at least {rows * 9 * 48} bytes" in err


def test_integrate_worker_never_outlives_the_call(capsys, monkeypatch):
    # the eigensolve's worker thread is joined on success, when the main
    # thread raises while it runs, and when the worker itself raises
    threads = threading.active_count()
    code, out, _ = run_cli(capsys, "integrate", "--type", "D", "--rank", "5", "--steps", "50")
    assert code == 0 and len(out.split("\n")) == 53
    assert threading.active_count() == threads
    code, out, err = run_cli(
        capsys, "integrate", "--steps", "0", "--type", "B", "--rank", "2", "--q", "0,0", "--p", "1e80,0"
    )
    assert code == 2 and out == ""
    assert "usage error: Toda Hamiltonian H_2, a trace of X^4, overflows float64" in err
    assert threading.active_count() == threads
    failure = np.linalg.LinAlgError("eigenvalues did not converge")

    def fail(X):
        raise failure

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(np.linalg.LinAlgError) as caught:
        main(["integrate", "--type", "D", "--rank", "5", "--steps", "50"])
    assert caught.value is failure
    assert threading.active_count() == threads


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ("--type", "A", "--rank", "3", "--seed", "1", "--dt", "50", "--steps", "20"),
        ("--type", "C", "--rank", "2", "--dt", "5", "--steps", "50"),
    ],
)
def test_diverging_flow_is_a_step_failure(capsys, argv):
    code, out, err = run_cli(capsys, "integrate", *argv)
    assert code == 1
    assert out == ""
    assert "step" in err
    assert "usage error" not in err


def test_stalled_midpoint_iteration_is_a_step_failure(capsys, monkeypatch):
    # one sweep after the Euler guess cannot settle a step to MIDPOINT_TOL
    monkeypatch.setattr(toda, "MIDPOINT_MAX_ITER", 1)
    datum = build_root_datum(AlgebraType("C", 2))
    point = sample_flow_toda(datum, spawn_rng(0, 0))
    with pytest.raises(StepFailureError, match=r"^midpoint iteration stalled at step 1 \(delta "):
        integrate_flow(datum, point, quadratic_index(datum), 1e-3, 5)
    code, out, err = run_cli(capsys, "integrate", "--type", "C", "--rank", "2", "--seed", "0", "--steps", "5")
    assert code == 1 and out == ""
    assert err.startswith("todadual: midpoint iteration stalled at step 1 (delta ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["lax", "integrate", "dual-map"])
def test_overflowing_root_weight_is_a_usage_error(capsys, command):
    # exp((alpha_1, q)) = exp(800) overflows float64: every command names it.
    code, out, err = run_cli(capsys, command, "--type", "B", "--rank", "2", "--q", "800,0", "--p", "0,0")
    assert code == 2
    assert out == ""
    assert "usage error: Lax root weight exp((alpha_1, q)) overflows float64" in err


@pytest.mark.parametrize(
    "command, fam, q, p, code, message",
    [
        # the transported bottom row underflows: lost precision, not bad input
        ("dual-map", "C", "300,0", "0,0", 1, "todadual: transported bottom-row entry g[3, 2] underflows to zero"),
        ("dual-map", "B", "0,0", "1e100,0", 1, "todadual: transported bottom-row entry g[4, 0] underflows to zero"),
        # exp(700) is finite, but the H_1 field at the start point is not
        ("integrate", "B", "700,0", "0,0", 2, "usage error: vector field of H_1 overflows float64 at the start point"),
        ("dual-map", "A", "0,0", "1e200,0", 2, "usage error: Lax matrix norm sqrt(Tr(X^2)) overflows float64"),
        # the map succeeds in log space; H_2 = Tr(X^4) / 8 does not fit
        ("dual-map", "B", "0,0", "1e78,0", 2, "usage error: Toda Hamiltonian H_2, a trace of X^4, overflows float64"),
        ("dual-map", "A", "0,0", "1e100,0", 0, ""),
        # the root weight is e^0.5; the dual side overflows with the centre of mass
        ("dual-map", "A", "705,704.5", "0,0", 2, "usage error: dual Hamiltonian H-hat_1, a sum of squared minors, overflows float64"),
        ("dual-map", "A", "709.5,709", "0,0", 2, "usage error: Moser weight ahat_1 = exp(709.847) overflows float64"),
        ("dual-map", "A", "710,709.5", "0,0", 2, "usage error: Moser weight ahat_1 = exp(710.347) overflows float64"),
        ("dual-map", "A", "709.5,710", "0,0", 2, "usage error: Toda-gauge entry g[1, 1] = exp(710) overflows float64"),
        # the start row's H_2 = Tr(X^4) / 8 does not fit in the H columns
        ("integrate --steps 0", "B", "0,0", "1e80,0", 2, "usage error: Toda Hamiltonian H_2, a trace of X^4, overflows float64"),
        # X^2 behind H_1 overflows while X fits: named, with no numpy warning first
        ("integrate --steps 0", "B", "0,0", "1e200,1e200", 2, "usage error: Toda Hamiltonian H_1, a trace of X^2, overflows float64"),
        ("integrate --steps 0", "C", "0,0", "1e200,1e200", 2, "usage error: Toda Hamiltonian H_1, a trace of X^2, overflows float64"),
        ("integrate --steps 0", "D", "0,0", "1e200,1e200", 2, "usage error: Toda Hamiltonian H_1, a trace of X^2, overflows float64"),
    ],
)
def test_extreme_points_name_their_cause(capsys, command, fam, q, p, code, message):
    got, out, err = run_cli(capsys, *command.split(), "--type", fam, "--rank", "2", "--q", q, "--p", p)
    assert got == code
    assert message in err
    assert (err == "") == (code == 0)
    assert "Infinity" not in out and "NaN" not in out


def test_extreme_input_sweep_ends_in_a_named_exit(capsys):
    # Every call of a seeded grid of extreme points, with warnings raised as
    # errors, ends in a known exit code without an exception: finite numbers
    # on stdout at exit 0, a message on stderr at any other exit.
    def reject(constant):
        raise ValueError(f"non-finite number {constant} on stdout")

    rng = np.random.default_rng(12345)
    grid = itertools.product("ABCD", (2, 3, 6), (0.0, 1.0, 30.0, 300.0, 700.0), (0.0, 1.0, 1e2, 1e5, 1e200), range(2))
    violations, calls = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam, n, q_scale, p_scale, _ in grid:
            q = q_scale * rng.standard_normal(n)
            p = p_scale * rng.standard_normal(n)
            point = ("--q=" + ",".join(map(repr, q.tolist())), "--p=" + ",".join(map(repr, p.tolist())))
            for command in (["lax"], ["integrate", "--steps", "5"], ["dual-map"]):
                calls += 1
                argv = [*command, "--type", fam, "--rank", str(n), *point]
                code, out, err = run_cli(capsys, *argv)
                if code == 0:
                    if command[0] == "integrate":
                        cells = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
                        finite = bool(np.isfinite(cells).all())
                    else:
                        try:
                            json.loads(out, parse_constant=reject)
                            finite = True
                        except ValueError:
                            finite = False
                    if not finite:
                        violations.append((argv, code, "non-finite output"))
                elif code not in (1, 2, 3) or not err:
                    violations.append((argv, code, err))
    assert calls == 1800
    assert violations == [], f"{len(violations)} violations, first: {violations[0]}"


def test_rank_cap_warning_only_where_duality_maps_run(capsys):
    warning = "the forward map's bottom-row gate fails on more draws as the rank grows"
    _, _, err = run_cli(capsys, "integrate", "--type", "A", "--rank", "9", "--steps", "2")
    assert warning not in err
    _, _, err = run_cli(capsys, "dual-map", "--type", "A", "--rank", "9")
    assert warning in err


def test_integrate_rejects_json(capsys):
    # each command offers only the formats it writes; argparse rejects the rest
    for command, fmt in (("integrate", "json"), ("verify", "csv"), ("dual-map", "tsv")):
        code, _, err = run_cli(
            capsys, command, "--type", "A", "--rank", "2", "--format", fmt
        )
        assert code == 2
        assert command in err


def test_missing_rank_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "lax", "--type", "A")
    assert code == 2


def test_bad_vector_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "lax", "--type", "A", "--rank", "2", "--q", "1,2,3", "--p", "0,0"
    )
    assert code == 2
    assert "--q" in err
    code, _, err = run_cli(
        capsys, "lax", "--type", "A", "--rank", "2", "--q", "1,oops", "--p", "0,0"
    )
    assert code == 2


def test_half_point_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "lax", "--type", "A", "--rank", "2", "--q", "1,2")
    assert code == 2
    assert "--p" in err


def test_dual_map_compares_every_pair(capsys):
    # the report always holds all n pairs, and its identities.kmax is the rank
    code, out, err = run_cli(capsys, "dual-map", "--type", "C", "--rank", "3", "--kmax", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --kmax 2" in err
    code, out, _ = run_cli(capsys, "dual-map", "--type", "C", "--rank", "3")
    assert code == 0
    ids = json.loads(out)["identities"]
    assert ids["kmax"] == 3
    assert all(len(ids[k]) == 3 for k in ("toda_values", "goldfish_values", "jk_toda_gauge", "ik_moser_gauge"))


def test_degenerate_point_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "dual-map", "--type", "A", "--rank", "2", "--q=-10,10", "--p", "0,0"
    )
    assert code == 3
    assert "non-generic" in err


def test_lost_precision_in_forward_map_exits_one(capsys):
    # C8, seed 2: the spectrum is well separated, but tiny eigenvector
    # components lose their relative accuracy and the transported bottom
    # row misses its closed form; that is a failure, not a skip.
    code, _, err = run_cli(capsys, "dual-map", "--type", "C", "--rank", "8", "--seed", "2")
    assert code == 1
    assert "transported bottom row misses its closed form" in err
    assert "non-generic" not in err


A6_Q = "8.6307113321868325,8.717971190389374,4.0435963624578894,4.4442042994180166,-36.684841250962435,-32.430188494208998"
A6_P = "-16.875009928532243,5.5346890588374773,-28.43144823151669,-7.8279717506110282,5.3944821523181066,39.734151968389483"


def test_dual_map_exits_one_on_its_own_failed_report(capsys, tmp_path):
    # J_2 ~ 1e-61 at this A6 point: the maps run, but the report misses both
    # budgets; the JSON is still written and stderr names each property.
    out = tmp_path / "a6.json"
    argv = ["dual-map", "--type", "A", "--rank", "6", f"--q={A6_Q}", f"--p={A6_P}", "--out", str(out)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    doc = json.loads(out.read_text())
    assert not doc["identities"]["max_relative_mismatch"] <= 1e-7
    assert not doc["roundtrip"]["max_abs_error"] <= 1e-7
    assert "duality-identities fails" in err and "round-trip fails" in err


def test_dual_map_fails_a_value_at_its_budget(capsys, monkeypatch):
    # dual-map reads verify's strict verdict: a round-trip error equal to its
    # tolerance fails the report
    argv = ["dual-map", "--type", "B", "--rank", "3", "--seed", "0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    error = json.loads(out)["roundtrip"]["max_abs_error"]
    assert error > 0.0
    monkeypatch.setitem(verify.TOLERANCES, "round-trip", error)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "round-trip fails" in err and "duality-identities" not in err


def test_json_emitter_spells_every_scalar():
    payload = {
        "floats": [float("nan"), float("inf"), -float("inf"), np.float64(0.1), 1.0 / 3.0, -0.0],
        "ints": (np.int64(-7), 3),
        "flags": [True, np.bool_(False), None],
        "empty": {"dict": {}, "list": []},
        "nested": [[1.5, np.float32(0.5)], [], "x"],
        "scalar": np.float64(2.0),
    }
    assert cli._json_text(payload) == (
        "{\n"
        '  "floats": [NaN, Infinity, -Infinity, 0.10000000000000001, 0.33333333333333331, -0],\n'
        '  "ints": [-7, 3],\n'
        '  "flags": [true, false, null],\n'
        '  "empty": {\n'
        '    "dict": {},\n'
        '    "list": []\n'
        "  },\n"
        '  "nested": [\n'
        "    [1.5, 0.5],\n"
        "    [],\n"
        '    "x"\n'
        "  ],\n"
        '  "scalar": 2\n'
        "}"
    )
    # 17 significant digits name the exact double
    for x in (1.0 / 3.0, np.nextafter(1.0, 2.0), 2.0**-1074, np.finfo(float).max):
        assert float(cli._json_text(x)) == x


def test_byte_determinism(capsys):
    args = ("verify", "--type", "C", "--rank", "2", "--seed", "11", "--points", "2", "--flow-steps", "40")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # one process, one parser: verify, dual-map, a usage error, then the same
    # dual-map again must print the same bytes
    assert cli.build_parser() is cli.build_parser()
    dual = ("dual-map", "--type", "B", "--rank", "3", "--seed", "4")
    code, _, _ = run_cli(capsys, "verify", "--type", "A", "--rank", "2", "--seed", "3", "--points", "1", "--flow-steps", "2")
    assert code == 0
    code, first, _ = run_cli(capsys, *dual)
    assert code == 0
    code, out, err = run_cli(capsys, "dual-map", "--type", "B", "--kmax", "2")
    assert code == 2 and out == ""
    assert "--rank" in err
    code, second, _ = run_cli(capsys, *dual)
    assert code == 0
    assert first == second


def test_env_seed_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv("TODADUAL_SEED", "21")
    _, from_env, _ = run_cli(capsys, "lax", "--type", "A", "--rank", "2")
    assert json.loads(from_env)["header"]["seed"] == 21
    _, from_flag, _ = run_cli(capsys, "lax", "--type", "A", "--rank", "2", "--seed", "5")
    assert json.loads(from_flag)["header"]["seed"] == 5
    monkeypatch.delenv("TODADUAL_SEED")
    _, fallback, _ = run_cli(capsys, "lax", "--type", "A", "--rank", "2")
    assert json.loads(fallback)["header"]["seed"] == 0


def test_negative_seed_is_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "dual-map", "--type", "A", "--rank", "2", "--seed", "-1")
    assert code == 2 and out == ""
    assert "--seed must be a non-negative integer" in err
    monkeypatch.setenv("TODADUAL_SEED", "-5")
    code, out, err = run_cli(capsys, "lax", "--type", "A", "--rank", "2")
    assert code == 2 and out == ""
    assert "TODADUAL_SEED must be a non-negative integer" in err


@pytest.mark.parametrize("flag", ["--points", "--flow-steps"])
def test_verify_empty_sample_is_usage_error(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "--type", "A", "--rank", "2", flag, "0")
    assert code == 2 and out == ""
    assert "must be at least 1" in err


def test_verify_points_past_the_counter_stride_is_usage_error(capsys):
    # point 1000 of one property would reuse the next property's point 0
    code, out, err = run_cli(capsys, "verify", "--type", "A", "--rank", "2", "--points", "1001")
    assert code == 2 and out == ""
    assert "usage error: npoints must be at most 1000, got 1001" in err


def test_integrate_checks_the_hamiltonian_index_at_zero_steps(capsys):
    for steps in ("0", "1"):
        code, out, err = run_cli(
            capsys, "integrate", "--type", "A", "--rank", "2", "--steps", steps, "--hamiltonian", "99"
        )
        assert code == 2 and out == "", f"--steps {steps}"
        assert "k must lie in 1..2" in err


def test_out_file_writing(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "lax", "--type", "D", "--rank", "2", "--seed", "9", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["header"]["family"] == "D"


def test_commands_never_import_scipy(tmp_path):
    # importing scipy.linalg doubles a process's start; only the tests and
    # the iwasawa oracle may load it
    script = f"""
import sys
import todadual
from todadual.cli import main
out = {str(tmp_path)!r}
for argv in (
    ["lax", "--type", "C", "--rank", "2"],
    ["integrate", "--type", "B", "--rank", "2", "--steps", "5"],
    ["dual-map", "--type", "D", "--rank", "3"],
    ["verify", "--type", "A", "--rank", "2", "--points", "1", "--flow-steps", "2"],
):
    assert main(argv + ["--out", out + "/" + argv[0] + ".out"]) == 0, argv
assert "scipy" not in sys.modules
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "todadual" in out
