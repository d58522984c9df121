"""Correctness checks for the outputs of `integrate`, `dual-map` and `verify`.

Every check recomputes what it can from the output itself, with this
file's own copy of the acceptance budgets, so a change that loosens the
library's tolerances or its self-reported residuals cannot pass here.
A checker returns the residuals it measured as {name: (residual, budget)}
and raises CheckFailed when one of them breaks its budget or the output
has the wrong shape; a missing field raises KeyError.
"""

from __future__ import annotations

import math
import re

import numpy as np

# The ten acceptance budgets, copied (not imported) from the library's
# verify.TOLERANCES as they stood when this benchmark was defined.
BUDGETS = {
    "toda-momentum-residual": 1.0e-9,
    "moser-momentum-residual": 1.0e-9,
    "closed-form-vs-minor-oracle": 1.0e-8,
    "odd-trace-vanishing": 1.0e-10,
    "duality-identities": 1.0e-7,
    "round-trip": 1.0e-7,
    "toda-commutativity": 1.0e-5,
    "goldfish-commutativity": 1.0e-5,
    "flow-conservation": 1.0e-6,
    "symplectomorphism": 1.0e-4,
}

# Family A has no odd-trace property; every other property runs everywhere.
A_SKIPS = {"odd-trace-vanishing"}

SIGMA_NOTE = re.compile(r"sigma values \[([^\]]*)\]")


class CheckFailed(Exception):
    """An output is malformed or breaks one of the budgets above."""


def matrix_size(fam: str, n: int) -> int:
    return {"A": n, "B": 2 * n + 1}.get(fam, 2 * n)


def cartan_pattern(fam: str, v: np.ndarray) -> np.ndarray:
    """Diagonal of sum_i v_i h_i: v for A, (v, [0], -v reversed) for B, (v, -v reversed) for C/D."""
    v = np.asarray(v, dtype=float)
    if fam == "A":
        return v
    middle = [0.0] if fam == "B" else []
    return np.concatenate([v, middle, -v[::-1]])


def trace_power_sums(fam: str, lam: np.ndarray, n: int) -> np.ndarray:
    """Trace invariants from a full spectrum along the last axis.

    sum(lam^k)/k for A, sum(lam^(2k))/(4k) for B/C/D, k = 1..n.
    """
    ks = np.arange(1, n + 1)
    if fam == "A":
        return np.stack([np.sum(lam**k, axis=-1) / k for k in ks], axis=-1)
    return np.stack([np.sum(lam ** (2 * k), axis=-1) / (4 * k) for k in ks], axis=-1)


def in_open_chamber(fam: str, qhat: np.ndarray) -> bool:
    q = np.asarray(qhat, dtype=float)
    if fam == "A":
        margins = q[:-1] - q[1:]
    elif fam in ("B", "C"):
        margins = np.concatenate([q[:-1] - q[1:], q[-1:]])
    else:
        head = q[:-1]
        margins = np.concatenate([head[:-1] - head[1:], [head[-1] - abs(q[-1]), abs(q[-1])]])
    return bool(np.all(margins > 0.0))


def _relative_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.where(scale > 0.0, np.abs(a - b) / np.where(scale > 0.0, scale, 1.0), 0.0)


def _judge(residuals: dict) -> dict:
    for name, (value, budget) in residuals.items():
        if not value <= budget:  # also rejects NaN
            raise CheckFailed(f"{name} residual {value:.3e} exceeds its budget {budget:.1e}")
    return residuals


def headroom_digits(value: float, budget: float) -> float:
    """log10(budget / residual): the decades by which a residual stays under its budget."""
    return math.log10(budget / max(value, 1.0e-300))


def _header_matches(doc: dict, fam: str, n: int, seed: int) -> None:
    header = doc.get("header", {})
    got = (header.get("family"), header.get("rank"), header.get("seed"))
    if got != (fam, n, seed):
        raise CheckFailed(f"header names {got}, expected {(fam, n, seed)}")


def check_flow(fam: str, n: int, text: str, steps: int, dt: float) -> dict:
    """`integrate` CSV: an isospectral trajectory of steps + 1 rows.

    Every row's invariants H_1..H_n and spectrum must match row 0 within
    the flow-conservation budget (relative to max|H| and max|lam| of row
    0), H_k must equal the power sums of the same row's spectrum, and a
    B/C/D spectrum must come in +- pairs (with a zero for B).
    """
    N = matrix_size(fam, n)
    lines = text.rstrip("\n").split("\n")
    names = (
        ["t"]
        + [f"q{i}" for i in range(1, n + 1)]
        + [f"p{i}" for i in range(1, n + 1)]
        + [f"H{i}" for i in range(1, n + 1)]
        + [f"lam{i}" for i in range(1, N + 1)]
    )
    if lines[0].split(",") != names:
        raise CheckFailed(f"unexpected header {lines[0][:80]!r}")
    if len(lines) != steps + 2:
        raise CheckFailed(f"{len(lines) - 1} rows, expected {steps + 1}")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    if rows.shape[1] != len(names) or not np.all(np.isfinite(rows)):
        raise CheckFailed("ragged or non-finite rows")
    if np.max(np.abs(rows[:, 0] - np.arange(steps + 1) * dt)) > 1.0e-12:
        raise CheckFailed("time column does not advance by dt")
    H = rows[:, 1 + 2 * n : 1 + 3 * n]
    lam = rows[:, 1 + 3 * n :]
    if np.any(np.diff(lam, axis=1) > 0.0):
        raise CheckFailed("spectrum columns are not in descending order")

    lam_scale = float(np.max(np.abs(lam[0])))
    powers = trace_power_sums(fam, lam, n)
    magnitudes = trace_power_sums(fam, np.abs(lam), n)
    residuals = {
        "flow-conservation": (
            max(
                float(np.max(np.abs(H - H[0]))) / float(np.max(np.abs(H[0]))),
                float(np.max(np.abs(lam - lam[0]))) / lam_scale,
            ),
            BUDGETS["flow-conservation"],
        ),
        # same trace family in two gauges: matrix powers vs spectral sums
        "duality-identities": (
            float(np.max(np.abs(H - powers) / magnitudes)),
            BUDGETS["duality-identities"],
        ),
    }
    if fam != "A":
        # a symmetric spectrum is what makes every odd trace vanish
        residuals["odd-trace-vanishing"] = (
            float(np.max(np.abs(lam + lam[:, ::-1]))) / lam_scale,
            BUDGETS["odd-trace-vanishing"],
        )
    return _judge(residuals)


def check_dual_map(fam: str, n: int, seed: int, doc: dict) -> dict:
    """`dual-map` JSON: round trip, both identity pairs and the chamber.

    The round-trip error is recomputed from the point and the round-trip
    fields; J_k is computed here from q as exp(2 * tail sums of the Cartan
    pattern) and compared with the reported dual Hamiltonians; the reported
    H_k are compared with power sums of qhat; qhat must lie in the open
    chamber.
    """
    _header_matches(doc, fam, n, seed)
    q = np.array(doc["toda_point"]["q"], dtype=float)
    p = np.array(doc["toda_point"]["p"], dtype=float)
    qhat = np.array(doc["goldfish_point"]["qhat"], dtype=float)
    phat = np.array(doc["goldfish_point"]["phat"], dtype=float)
    ids = doc["identities"]
    H = np.array(ids["toda_values"], dtype=float)
    Hhat = np.array(ids["goldfish_values"], dtype=float)
    back_q = np.array(doc["roundtrip"]["q"], dtype=float)
    back_p = np.array(doc["roundtrip"]["p"], dtype=float)
    vectors = (q, p, qhat, phat, back_q, back_p, H, Hhat)
    if ids.get("kmax") != n or any(v.shape != (n,) for v in vectors):
        raise CheckFailed(f"expected {n} entries per field and kmax {n}")
    if not all(np.all(np.isfinite(v)) for v in vectors):
        raise CheckFailed("non-finite entries")
    if not in_open_chamber(fam, qhat):
        raise CheckFailed(f"qhat {qhat} is outside the open chamber")

    roundtrip = max(float(np.max(np.abs(back_q - q))), float(np.max(np.abs(back_p - p))))
    J = np.exp(2.0 * np.cumsum(cartan_pattern(fam, q)[::-1])[:n])
    spectrum = qhat if fam == "A" else np.concatenate([qhat, -qhat])
    power_sums = trace_power_sums(fam, spectrum, n)
    identity = max(float(np.max(_relative_gaps(J, Hhat))), float(np.max(_relative_gaps(H, power_sums))))
    return _judge(
        {
            "round-trip": (roundtrip, BUDGETS["round-trip"]),
            "duality-identities": (identity, BUDGETS["duality-identities"]),
        }
    )


def check_verify(fam: str, n: int, seed: int, doc: dict) -> dict:
    """`verify` JSON: every property present, passed, and under this file's budget.

    The symplectomorphism sign must be -1 on every point: the map is
    antisymplectic.
    """
    _header_matches(doc, fam, n, seed)
    records = {rec.get("property"): rec for rec in doc.get("properties", [])}
    expected = set(BUDGETS) - (A_SKIPS if fam == "A" else set())
    if set(records) != expected:
        raise CheckFailed(f"properties {sorted(records)} differ from {sorted(expected)}")
    if doc.get("all_passed") is not True:
        raise CheckFailed("report says not every property passed")
    residuals = {name: (float(records[name]["worst_residual"]), BUDGETS[name]) for name in sorted(expected)}
    match = SIGMA_NOTE.search(records["symplectomorphism"].get("note", ""))
    sigmas = [float(s) for s in match.group(1).split(",")] if match and match.group(1) else []
    if sigmas != [-1.0]:
        raise CheckFailed(f"symplectomorphism sigma values {sigmas}, expected [-1.0]")
    return _judge(residuals)
