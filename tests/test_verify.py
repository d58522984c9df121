"""End-to-end property suite: pass/fail records, logs, reproducibility."""

import sys

import numpy as np
import pytest

import todadual.verify
from todadual.errors import ChamberError, SingularMatrixError, ValidationError
from todadual.moser import check_chamber
from todadual.rootsys import AlgebraType, build_root_datum
from todadual.sampling import sample_toda
from todadual.verify import COUNTER_STRIDE, RANK_CAP, SLOTS, TOLERANCES, _rng, run_suite


def test_slot_layout_is_frozen():
    # appending properties must not renumber these; seeded reports depend on it
    assert SLOTS == {
        "toda-momentum-residual": 0,
        "moser-momentum-residual": 1,
        "closed-form-vs-minor-oracle": 2,
        "odd-trace-vanishing": 3,
        "duality-identities": 4,
        "round-trip": 5,
        "toda-commutativity": 6,
        "goldfish-commutativity": 7,
        "flow-conservation": 8,
        "symplectomorphism": 9,
        "discrepancy-log": 10,
    }
    assert set(TOLERANCES) == set(SLOTS) - {"discrepancy-log"}


def test_suite_passes_on_small_algebras():
    for fam, n in [("A", 3), ("B", 2), ("C", 2), ("D", 3)]:
        datum = build_root_datum(AlgebraType(fam, n))
        report = run_suite(datum, seed=7, npoints=4, flow_steps=100)
        failed = [rec["property"] for rec in report["properties"] if not rec["passed"]]
        assert report["all_passed"], f"{fam}{n} failed: {failed}"
        assert report["header"]["family"] == fam
        assert report["header"]["rank"] == n
        assert "rank_cap_warning" not in report["header"]
        notes = {rec["property"]: rec.get("note") for rec in report["properties"]}
        assert notes["toda-commutativity"] == "exact gradients"
        assert notes["goldfish-commutativity"] == "exact gradients"


def test_empty_samples_are_rejected():
    datum = build_root_datum(AlgebraType("A", 2))
    with pytest.raises(ValidationError, match="npoints"):
        run_suite(datum, seed=0, npoints=0)
    with pytest.raises(ValidationError, match="flow_steps"):
        run_suite(datum, seed=0, flow_steps=0)


def test_points_past_the_counter_stride_are_rejected():
    # counters are COUNTER_STRIDE * slot + j: round-trip's point COUNTER_STRIDE
    # is toda-commutativity's point 0
    datum = build_root_datum(AlgebraType("A", 3))
    assert SLOTS["toda-commutativity"] == SLOTS["round-trip"] + 1
    reused = sample_toda(datum, _rng(0, "round-trip", COUNTER_STRIDE))
    first = sample_toda(datum, _rng(0, "toda-commutativity", 0))
    assert np.array_equal(reused.q, first.q) and np.array_equal(reused.p, first.p)
    with pytest.raises(ValidationError, match=f"npoints must be at most {COUNTER_STRIDE}, got {COUNTER_STRIDE + 1}"):
        run_suite(datum, seed=0, npoints=COUNTER_STRIDE + 1)


def test_odd_trace_property_only_for_bcd():
    names_a = [r["property"] for r in run_suite(build_root_datum(AlgebraType("A", 2)), 7, npoints=2, flow_steps=50)["properties"]]
    names_c = [r["property"] for r in run_suite(build_root_datum(AlgebraType("C", 2)), 7, npoints=2, flow_steps=50)["properties"]]
    assert "odd-trace-vanishing" not in names_a
    assert "odd-trace-vanishing" in names_c


def test_suite_is_deterministic():
    datum = build_root_datum(AlgebraType("C", 2))
    a = run_suite(datum, seed=123, npoints=3, flow_steps=50)
    b = run_suite(datum, seed=123, npoints=3, flow_steps=50)
    assert a == b
    c = run_suite(datum, seed=124, npoints=3, flow_steps=50)
    worst_a = [r["worst_residual"] for r in a["properties"]]
    worst_c = [r["worst_residual"] for r in c["properties"]]
    assert worst_a != worst_c


def test_d_discrepancy_log_quantifies_variant():
    datum = build_root_datum(AlgebraType("D", 3))
    report = run_suite(datum, seed=7, npoints=2, flow_steps=50)
    entries = [e for e in report["discrepancy_log"] if e["kind"] == "printed-form-vs-oracle"]
    assert entries, "family D must log the first-invariant variant"
    for e in entries:
        assert e["hamiltonian_index"] == 1
        assert e["relative_gap"] > 0.1  # the variant is genuinely different
        assert np.isfinite(e["oracle_value"])


def test_c2_convention_log():
    datum = build_root_datum(AlgebraType("C", 2))
    report = run_suite(datum, seed=7, npoints=2, flow_steps=50)
    entries = [e for e in report["discrepancy_log"] if e["kind"] == "half-m2-convention"]
    assert len(entries) == 1
    assert abs(entries[0]["half_m2"] - 0.5 * entries[0]["m2"]) < 1e-300


def test_rank_cap_warning_present_beyond_cap():
    datum = build_root_datum(AlgebraType("A", RANK_CAP + 1))
    report = run_suite(datum, seed=7, npoints=1, flow_steps=10)
    assert "rank_cap_warning" in report["header"]


def test_singular_matrix_is_a_residual_failure(monkeypatch):
    # a numerically singular matrix met by a map fails the property and is
    # named with its point index; it is not a skip, and the report is written
    def singular(datum, point):
        raise SingularMatrixError("Lanczos step 1: ||pi_1|| underflows to 0 beside the largest Moser weight")

    monkeypatch.setattr(todadual.verify, "goldfish_to_toda", singular)
    report = run_suite(build_root_datum(AlgebraType("C", 2)), seed=0, npoints=3, flow_steps=2)
    record = next(r for r in report["properties"] if r["property"] == "round-trip")
    assert not record["passed"]
    assert "3 residual failure(s)" in record["note"]
    assert "2: Lanczos step 1: ||pi_1|| underflows" in record["note"]


def test_singular_minor_oracle_is_a_reported_failure(monkeypatch):
    # a zero pivot in the oracle's bottom-row QR breaks every point of
    # closed-form-vs-minor-oracle; run_suite still returns its report
    def singular(datum, g, k):
        raise SingularMatrixError("zero diagonal entry in the bottom-row QR")

    monkeypatch.setattr(todadual.verify, "minor_oracle_mk", singular)
    report = run_suite(build_root_datum(AlgebraType("C", 2)), seed=0, npoints=3, flow_steps=2)
    record = next(r for r in report["properties"] if r["property"] == "closed-form-vs-minor-oracle")
    assert not record["passed"]
    assert "3 residual failure(s)" in record["note"]
    assert "0: zero diagonal entry" in record["note"]


def test_nan_minor_gap_breaks_its_point(monkeypatch):
    # a NaN gap at one k must not be dropped when the gaps over k are folded
    real = todadual.verify.minor_oracle_mk

    def oracle(datum, g, k):
        return float("nan") if k == 2 else real(datum, g, k)

    monkeypatch.setattr(todadual.verify, "minor_oracle_mk", oracle)
    report = run_suite(build_root_datum(AlgebraType("A", 3)), seed=0, npoints=2, flow_steps=2)
    record = next(r for r in report["properties"] if r["property"] == "closed-form-vs-minor-oracle")
    assert not record["passed"]
    assert record["worst_residual"] == float("inf")


def test_nan_odd_trace_breaks_its_point(monkeypatch):
    # a NaN trace at one odd power must not be dropped when the powers are folded
    real = todadual.verify.build_lax

    def lax(datum, point):
        X = real(datum, point)
        if sys._getframe(1).f_code.co_name == "odd_trace":
            X[0, 1] = X[1, 0] = np.nan
        return X

    monkeypatch.setattr(todadual.verify, "build_lax", lax)
    report = run_suite(build_root_datum(AlgebraType("B", 2)), seed=0, npoints=2, flow_steps=2)
    record = next(r for r in report["properties"] if r["property"] == "odd-trace-vanishing")
    assert not record["passed"]
    assert record["worst_residual"] == float("inf")
    assert record["note"].startswith("2 residual failure(s) (0: non-finite residual nan")


def test_non_finite_residual_breaks_its_point(monkeypatch):
    # max() drops NaN, so a NaN residual must break its point rather than fold
    monkeypatch.setattr(todadual.verify, "moser_momentum_residual", lambda datum, mp: float("nan"))
    report = run_suite(build_root_datum(AlgebraType("C", 2)), seed=0, npoints=3, flow_steps=2)
    record = next(r for r in report["properties"] if r["property"] == "moser-momentum-residual")
    assert not record["passed"]
    assert record["worst_residual"] == float("inf")
    assert record["note"].startswith("3 residual failure(s) (0: non-finite residual nan")
    assert not report["all_passed"]


def test_non_finite_flow_drift_is_inf(monkeypatch):
    # NaN invariants at the end of the flow read as an infinite drift
    real = todadual.verify.toda_hamiltonians
    calls = []

    def hamiltonians(datum, point):
        calls.append(point)
        return real(datum, point) * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(todadual.verify, "toda_hamiltonians", hamiltonians)
    report = run_suite(build_root_datum(AlgebraType("C", 2)), seed=0, npoints=1, flow_steps=2)
    record = next(r for r in report["properties"] if r["property"] == "flow-conservation")
    assert record["worst_residual"] == float("inf")
    assert not record["passed"]


def _chamber_error_at(monkeypatch, points):
    # moser-momentum-residual meets a chamber wall at the given point indices
    real = todadual.verify.moser_momentum_residual
    calls = []

    def residual(datum, mp):
        calls.append(mp)
        if len(calls) - 1 in points:
            raise ChamberError("qhat on a chamber wall")
        return real(datum, mp)

    monkeypatch.setattr(todadual.verify, "moser_momentum_residual", residual)
    report = run_suite(build_root_datum(AlgebraType("C", 2)), seed=0, npoints=3, flow_steps=2)
    return next(r for r in report["properties"] if r["property"] == "moser-momentum-residual")


def test_non_generic_point_is_skipped(monkeypatch):
    record = _chamber_error_at(monkeypatch, {1})
    assert record["passed"]
    assert 0.0 < record["worst_residual"] < record["tolerance"]
    assert record["note"] == "1 non-generic draw(s) skipped (1: qhat on a chamber wall)"


def test_every_point_skipped_fails(monkeypatch):
    record = _chamber_error_at(monkeypatch, {0, 1, 2})
    assert record["worst_residual"] == float("inf")
    assert not record["passed"]
    assert record["note"].startswith("3 non-generic draw(s) skipped (0: qhat on a chamber wall")


def test_minor_gap_checks_the_chamber_once_per_point(monkeypatch):
    # every todadual binding of check_chamber is counted, whichever module
    # calls it; minor_gap checks each of its 8 points once
    calls = 0

    def counted(datum, qhat):
        nonlocal calls
        calls += 1
        return check_chamber(datum, qhat)

    for name, module in list(sys.modules.items()):
        if name == "todadual" or name.startswith("todadual."):
            for attr, value in list(vars(module).items()):
                if value is check_chamber:
                    monkeypatch.setattr(module, attr, counted)
    run_suite(build_root_datum(AlgebraType("B", 2)), seed=0)
    assert calls == 79
