"""Self-tests of the benchmark: each checker accepts a real output and rejects a wrong one.

Run with `python3 -m pytest perfbench`.
"""

import json
import sys
from pathlib import Path

import pytest

import checks
import harness
import tracer

sys.path.insert(0, str(harness.SRC))
from todadual import cli, duality, toda  # noqa: E402


def _run(tmp_path: Path, *argv) -> str:
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _dual_map(tmp_path, fam="B", n=3, seed=4) -> dict:
    return json.loads(_run(tmp_path, "dual-map", "--type", fam, "--rank", str(n), "--seed", str(seed)))


def _verify(tmp_path, fam="B", n=2, seed=1) -> dict:
    text = _run(
        tmp_path, "verify", "--type", fam, "--rank", str(n), "--seed", str(seed), "--points", "2", "--flow-steps", "5"
    )
    return json.loads(text)


@pytest.mark.parametrize("fam,n", [("A", 3), ("B", 2), ("D", 3)])
def test_flow_rejects_a_drifted_invariant(tmp_path, fam, n):
    text = _run(tmp_path, "integrate", "--type", fam, "--rank", str(n), "--seed", "2", "--steps", "20")
    checks.check_flow(fam, n, text, 20, 1.0e-3)

    lines = text.split("\n")
    cells = lines[7].split(",")
    h0 = [abs(float(c)) for c in lines[1].split(",")[1 + 2 * n : 1 + 3 * n]]
    col = 1 + 2 * n + h0.index(max(h0))  # the largest invariant sets the drift scale
    cells[col] = repr(float(cells[col]) * (1.0 + 1.0e-5))
    lines[7] = ",".join(cells)
    with pytest.raises(checks.CheckFailed, match="flow-conservation"):
        checks.check_flow(fam, n, "\n".join(lines), 20, 1.0e-3)


def test_flow_rejects_a_broken_spectral_pair(tmp_path):
    text = _run(tmp_path, "integrate", "--type", "C", "--rank", "2", "--seed", "2", "--steps", "3")
    lines = text.split("\n")
    for i in range(1, 5):  # shift lam1 alike in every row: conserved, but no longer paired
        cells = lines[i].split(",")
        cells[7] = repr(float(cells[7]) + 1.0e-8)
        lines[i] = ",".join(cells)
    with pytest.raises(checks.CheckFailed, match="odd-trace-vanishing"):
        checks.check_flow("C", 2, "\n".join(lines), 3, 1.0e-3)


def test_dual_map_rejects_a_perturbed_round_trip(tmp_path):
    doc = _dual_map(tmp_path)
    checks.check_dual_map("B", 3, 4, doc)
    doc["roundtrip"]["q"][1] += 1.0e-6
    doc["roundtrip"]["max_abs_error"] = 0.0  # the reported error is not trusted
    with pytest.raises(checks.CheckFailed, match="round-trip"):
        checks.check_dual_map("B", 3, 4, doc)


@pytest.mark.parametrize("fam,n", [("A", 4), ("C", 3), ("D", 4)])
def test_dual_map_rejects_a_dual_hamiltonian_off_by_1e_6(tmp_path, fam, n):
    doc = _dual_map(tmp_path, fam, n, seed=9)
    checks.check_dual_map(fam, n, 9, doc)
    doc["identities"]["goldfish_values"][-1] *= 1.0 + 1.0e-6
    doc["identities"]["max_relative_mismatch"] = 0.0
    with pytest.raises(checks.CheckFailed, match="duality-identities"):
        checks.check_dual_map(fam, n, 9, doc)


def test_dual_map_rejects_qhat_outside_the_chamber(tmp_path):
    doc = _dual_map(tmp_path)
    doc["goldfish_point"]["qhat"][-1] *= -1.0
    with pytest.raises(checks.CheckFailed, match="chamber"):
        checks.check_dual_map("B", 3, 4, doc)


def test_verify_rejects_a_residual_above_its_budget(tmp_path):
    doc = _verify(tmp_path)
    checks.check_verify("B", 2, 1, doc)
    record = next(r for r in doc["properties"] if r["property"] == "round-trip")
    record["worst_residual"] = 2.0e-7  # as if the library's tolerance had been loosened
    record["tolerance"] = 1.0e-6
    with pytest.raises(checks.CheckFailed, match="round-trip"):
        checks.check_verify("B", 2, 1, doc)


def test_verify_rejects_sigma_plus_one(tmp_path):
    doc = _verify(tmp_path)
    record = next(r for r in doc["properties"] if r["property"] == "symplectomorphism")
    record["note"] = record["note"].replace("[-1.0]", "[1.0]")
    with pytest.raises(checks.CheckFailed, match="sigma"):
        checks.check_verify("B", 2, 1, doc)


def test_verify_rejects_a_missing_property(tmp_path):
    doc = _verify(tmp_path)
    doc["properties"] = [r for r in doc["properties"] if r["property"] != "flow-conservation"]
    with pytest.raises(checks.CheckFailed, match="properties"):
        checks.check_verify("B", 2, 1, doc)


def test_tracer_reaches_every_binding_and_restores_them(tmp_path):
    original = toda.build_lax
    t = tracer.Tracer()
    t.install()
    try:
        assert duality.build_lax is not original and cli.build_lax is duality.build_lax
        _dual_map(tmp_path)
    finally:
        t.uninstall()
    assert duality.build_lax is original and cli.build_lax is original and toda.build_lax is original
    assert t.calls["duality.toda_to_moser"] == 2
    assert t.calls["cli.main"] == 1
    names = {span[2] for span in t.spans}
    assert "duality.toda_to_moser" in names and "toda.build_lax" not in names


def test_benchmark_json_names_exactly_the_reported_metrics():
    spec = json.loads((harness.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
