"""End-to-end property suite: pass/fail records, logs, reproducibility."""

import numpy as np

from todadual.rootsys import AlgebraType, build_root_datum
from todadual.verify import RANK_CAP, SLOTS, TOLERANCES, run_suite


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


def test_singular_iwasawa_split_is_a_residual_failure():
    # at B8 seed 0 the inverse map of round-trip point 2 meets a numerically
    # singular Iwasawa split; the suite must still return a report naming it
    datum = build_root_datum(AlgebraType("B", 8))
    report = run_suite(datum, seed=0, npoints=3, flow_steps=2)
    record = next(r for r in report["properties"] if r["property"] == "round-trip")
    assert not record["passed"]
    assert "2: matrix numerically singular" in record["note"]
