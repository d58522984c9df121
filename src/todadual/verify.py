"""Seeded property suite behind the `verify` command.

Each property draws its own points through (seed, counter) pairs, measures
a worst residual, and compares it against a fixed tolerance.  The result
is a JSON-ready dictionary: header with the exact seeding scheme, one
record per property, a discrepancy log holding printed-form-vs-oracle
gaps (family D first Hamiltonian) and convention notes (the halved second
minor of the rank-2 C chain), and the overall verdict.

Every sampled property runs through one per-point loop with one failure
policy: a non-generic draw is skipped, a residual failure or a singular
matrix marks its point broken, and either is named in the record's note by
its point index; a non-finite residual breaks its point too.  The dual
Hamiltonians, one Lanczos pass on the Moser measure, are checked against
moser.minor_oracle_mk, the QR of the bottom rows of g.  Both commutativity
properties pair exact gradients; the dual ones are goldfish_gradients'
closed form, independent of the forward-mode tangent through that same
pass by which the symplectomorphism check differentiates the inverse map.
No property runs a finite-difference stencil.

Counters are allocated as 1000 * property_slot + point_index, so any
reported point can be resampled in isolation.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .duality import (
    _relative_gap,
    goldfish_to_toda,
    symplectomorphism_check,
    toda_to_goldfish,
    verify_duality_identities,
)
from .errors import DualityResidualError, NonGenericPointError, SingularMatrixError, ValidationError
from .goldfish import _moser_point, d_h1_pairsum_variant, goldfish_hamiltonians
from .moser import _moser_g, minor_oracle_mk, moser_momentum_residual
from .poisson import commutativity_matrix
from .rootsys import RootDatum
from .sampling import (
    SEED_SCHEME,
    sample_flow_toda,
    sample_goldfish,
    sample_moser,
    sample_toda,
    spawn_rng,
)
from .toda import TodaPoint, build_lax, integrate_flow, toda_hamiltonians, toda_momentum_residual

RANK_CAP = 8
# Above RANK_CAP, `dual-map` and `verify` state this after "rank <n> ".
RANK_CAP_WARNING = (
    f"exceeds the desk-scale bound {RANK_CAP}; "
    "the forward map's bottom-row gate fails on more draws as the rank grows"
)

# Point j of a property draws from counter COUNTER_STRIDE * slot + j, so a
# property takes at most COUNTER_STRIDE points before reusing the next one's.
COUNTER_STRIDE = 1000

TOLERANCES = {
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

# Property slots fix the counter layout; appending new properties must not
# renumber existing ones or seeded reports change silently.
SLOTS = {
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


def _rng(seed: int, name: str, j: int):
    return spawn_rng(seed, COUNTER_STRIDE * SLOTS[name] + j)


def _record(name: str, worst: float, *notes: str) -> dict:
    tol = TOLERANCES[name]
    rec = {
        "property": name,
        "worst_residual": float(worst),
        "tolerance": tol,
        "passed": bool(worst < tol),
    }
    note = "; ".join(part for part in notes if part)
    if note:
        rec["note"] = note
    return rec


def _point_notes(skipped: list, broken: list) -> str:
    """Summarize per-point exceptions raised while measuring a property.

    Non-generic draws (degenerate spectrum, chamber wall, chamber margin
    below the pole tolerance) are a legitimate sampler outcome at larger
    ranks; they are reported but do not fail the property unless nothing
    is left to certify.  Residual failures mean a map ran and missed its own
    consistency gates or met a numerically singular matrix; those always
    fail the property.
    """
    parts = []
    if skipped:
        points = ", ".join(f"{j}: {msg}" for j, msg in skipped)
        parts.append(f"{len(skipped)} non-generic draw(s) skipped ({points})")
    if broken:
        points = ", ".join(f"{j}: {msg}" for j, msg in broken)
        parts.append(f"{len(broken)} residual failure(s) ({points})")
    return "; ".join(parts)


def _per_point(datum: RootDatum, seed: int, name: str, count: int, sample, measure):
    """Worst measure(sample(datum, rng_j)) over points j < count, and its note.

    A non-generic point is skipped; a residual failure, a singular matrix
    or a non-finite residual marks the point broken.  The worst residual is
    inf if any point broke or every point was skipped.
    """
    worst = 0.0
    skipped, broken = [], []
    for j in range(count):
        point = sample(datum, _rng(seed, name, j))
        try:
            value = measure(point)
            if np.isfinite(value):
                worst = max(worst, value)
            else:
                broken.append((j, f"non-finite residual {value}"))
        except (DualityResidualError, SingularMatrixError) as exc:
            broken.append((j, str(exc)))
        except NonGenericPointError as exc:
            skipped.append((j, str(exc)))
    if broken or len(skipped) == count:
        worst = float("inf")
    return worst, _point_notes(skipped, broken)


def run_suite(datum: RootDatum, seed: int, npoints: int = 8, flow_steps: int = 200) -> dict:
    """Run every property for one algebra; returns the JSON-ready report."""
    if npoints < 1:
        raise ValidationError(f"npoints must be at least 1, got {npoints}")
    if npoints > COUNTER_STRIDE:
        raise ValidationError(f"npoints must be at most {COUNTER_STRIDE}, got {npoints}")
    if flow_steps < 1:
        raise ValidationError(f"flow_steps must be at least 1, got {flow_steps}")
    fam, n = datum.algebra.family, datum.algebra.rank
    properties = []

    def per_point(name, count, sample, measure, note=""):
        worst, extra = _per_point(datum, seed, name, count, sample, measure)
        properties.append(_record(name, worst, note, extra))

    def minor_gap(gp):
        values = goldfish_hamiltonians(datum, gp)
        mp, x = _moser_point(datum, gp)  # one chamber check for the weights and g
        g = _moser_g(datum, x, mp.ahat)
        # np.max keeps a NaN gap, which Python's max would drop
        return np.max([_relative_gap(values[k - 1], minor_oracle_mk(datum, g, k)) for k in range(1, n + 1)])

    def round_trip(pt):
        back = goldfish_to_toda(datum, toda_to_goldfish(datum, pt))
        return float(max(np.max(np.abs(back.q - pt.q)), np.max(np.abs(back.p - pt.p))))

    def commutativity(point):
        return float(commutativity_matrix(datum, point).max())

    def odd_trace(pt):
        # largest scaled |tr X^m| over the odd powers m = 1, 3, ..., 2n + 1;
        # np.max keeps a NaN trace, which Python's max would drop
        X = build_lax(datum, pt)
        scale = max(1.0, float(np.linalg.norm(X, "fro")))
        P = X.copy()
        traces = [abs(np.trace(P)) / scale]
        for m in range(3, 2 * n + 2, 2):
            P = P @ X @ X
            traces.append(abs(np.trace(P)) / scale**m)
        return np.max(traces)

    def duality_mismatch(pt):
        return verify_duality_identities(datum, pt).max_relative_mismatch

    k_flow = 2 if n >= 2 else 1

    def flow_drift(pt):
        z = integrate_flow(datum, pt, k_flow, 1.0e-3, flow_steps)[-1]
        final = TodaPoint(q=z[:n], p=z[n:])
        h0, hT = toda_hamiltonians(datum, pt), toda_hamiltonians(datum, final)
        lam0, lamT = (np.linalg.eigvalsh(build_lax(datum, x)) for x in (pt, final))
        # Drift is normalized by family scale: near-zero individual invariants
        # (family B keeps an exact zero eigenvalue) make per-value ratios
        # ill-conditioned without testing anything extra.  np.max keeps a
        # NaN drift, which Python's max would drop.
        h_drift = np.max(np.abs(hT - h0)) / np.max(np.abs(h0))
        return np.max([h_drift, np.max(np.abs(lamT - lam0)) / np.max(np.abs(lam0))])

    per_point("toda-momentum-residual", npoints, sample_toda, partial(toda_momentum_residual, datum))
    per_point("moser-momentum-residual", npoints, sample_moser, partial(moser_momentum_residual, datum))
    minor_note = "Lanczos pass on the Moser measure against the QR of g's bottom rows"
    per_point("closed-form-vs-minor-oracle", npoints, sample_goldfish, minor_gap, minor_note)
    if fam != "A":
        per_point("odd-trace-vanishing", npoints, sample_toda, odd_trace)
    per_point("duality-identities", npoints, sample_toda, duality_mismatch)
    per_point("round-trip", npoints, sample_toda, round_trip)
    per_point("toda-commutativity", min(npoints, 4), sample_toda, commutativity, "exact gradients")
    per_point("goldfish-commutativity", min(npoints, 4), sample_goldfish, commutativity, "exact gradients")
    flow_note = f"flow of H_{k_flow}, dt=1e-3, {flow_steps} steps"
    per_point("flow-conservation", 1, sample_flow_toda, flow_drift, flow_note)

    sigmas = []

    def symplectic_residual(gp):
        residual, sigma = symplectomorphism_check(datum, gp)
        sigmas.append(sigma)
        return residual

    name = "symplectomorphism"
    worst, extra = _per_point(datum, seed, name, min(npoints, 3), sample_goldfish, symplectic_residual)
    note = f"sigma values {sorted(set(sigmas))}; exact forward-mode Jacobian of the inverse map's Lanczos pass; round-trip ties it to the forward map"
    properties.append(_record(name, worst, note, extra))

    log = []
    if fam == "D":
        for j in range(min(npoints, 3)):
            gp = sample_goldfish(datum, _rng(seed, "discrepancy-log", j))
            oracle = float(goldfish_hamiltonians(datum, gp)[0])
            printed = d_h1_pairsum_variant(datum, gp)
            log.append(
                {
                    "kind": "printed-form-vs-oracle",
                    "hamiltonian_index": 1,
                    "printed_value": printed,
                    "oracle_value": oracle,
                    "relative_gap": _relative_gap(printed, oracle),
                    "qhat": [float(v) for v in gp.qhat],
                    "phat": [float(v) for v in gp.phat],
                    "counter": COUNTER_STRIDE * SLOTS["discrepancy-log"] + j,
                    "note": "sum-over-pairs first invariant disagrees with the minor "
                    "oracle; the oracle-backed Lanczos pass is what the library evaluates",
                }
            )
    if fam == "C" and n == 2:
        gp = sample_goldfish(datum, _rng(seed, "discrepancy-log", 0))
        m2 = float(goldfish_hamiltonians(datum, gp)[1])
        log.append(
            {
                "kind": "half-m2-convention",
                "hamiltonian_index": 2,
                "m2": m2,
                "half_m2": 0.5 * m2,
                "qhat": [float(v) for v in gp.qhat],
                "phat": [float(v) for v in gp.phat],
                "note": "the rank-2 C chain is sometimes normalized with an extra 1/2 "
                "on the top minor; the library reports m_k unhalved",
            }
        )

    report = {
        "header": {
            "family": fam,
            "rank": n,
            "seed": int(seed),
            "seed_scheme": SEED_SCHEME,
            "counter_layout": f"counter = {COUNTER_STRIDE} * property_slot + point_index",
            "property_slots": {k: v for k, v in SLOTS.items()},
            "npoints": int(npoints),
        },
        "properties": properties,
        "discrepancy_log": log,
        "all_passed": bool(all(rec["passed"] for rec in properties)),
    }
    if n > RANK_CAP:
        report["header"]["rank_cap_warning"] = f"rank {n} {RANK_CAP_WARNING}"
    return report
