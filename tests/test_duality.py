"""Gauge maps between chain and dual coordinates, and their certificates."""

import itertools
import sys
from functools import partial

import numpy as np
import pytest

import todadual.duality
from todadual import cli
from todadual.duality import (
    _relative_gaps,
    duality_jacobian,
    goldfish_to_toda,
    moser_gauge_traces,
    symplectomorphism_check,
    toda_gauge_minors,
    toda_to_goldfish,
    toda_to_moser,
    verify_duality_identities,
)
from todadual.errors import DegenerateSpectrumError, DualityResidualError, SingularMatrixError, ValidationError
from todadual.goldfish import GoldfishPoint, _heine_pass, a_from_p, goldfish_gradients, goldfish_hamiltonians
from todadual.linalg import iwasawa, lower_triangularize, structured_diagonalize
from todadual.moser import build_moser_g, check_chamber, closed_form_minor, log_gap_sums, ruijsenaars_spec_for
from todadual.rootsys import FAMILIES, AlgebraType, build_root_datum, cartan_pattern
from todadual.sampling import sample_goldfish, sample_toda, spawn_rng
from todadual.toda import TodaPoint, build_lax, toda_hamiltonians
from todadual.verify import _per_point, run_suite

from stencil import central_difference

ALGEBRAS = [("A", 2), ("A", 3), ("A", 4), ("B", 1), ("B", 3), ("C", 2), ("C", 4), ("D", 2), ("D", 3)]


def test_rank_one_map_swaps_coordinates():
    # single particle: spectrum is p, weight is e^q, chamber factor is 1
    datum = build_root_datum(AlgebraType("A", 1))
    gp = toda_to_goldfish(datum, TodaPoint(q=[0.7], p=[-0.3]))
    assert abs(gp.qhat[0] - (-0.3)) < 1e-14
    assert abs(gp.phat[0] - 0.7) < 1e-14
    back = goldfish_to_toda(datum, gp)
    assert abs(back.q[0] - 0.7) < 1e-13
    assert abs(back.p[0] - (-0.3)) < 1e-13


def test_two_particle_spectrum():
    datum = build_root_datum(AlgebraType("A", 2))
    gp = toda_to_goldfish(datum, TodaPoint(q=[0.0, 0.0], p=[1.0, -1.0]))
    r2 = np.sqrt(2.0)
    assert abs(gp.qhat[0] - r2) < 1e-14
    assert abs(gp.qhat[1] + r2) < 1e-14


def _gauss_split_ahat(datum, point):
    """ahat through the elimination route: strip N_+ from the transported
    element; the torus phases that make the leading diagonal positive leave
    its modulus alone, so ahat is that modulus."""
    X = build_lax(datum, point)
    k, _ = structured_diagonalize(datum, X)
    gtilde = np.exp(cartan_pattern(datum, point.q))[:, None] * k.T
    _, glow = lower_triangularize(datum, gtilde)
    n = datum.algebra.rank
    return np.abs(np.diagonal(glow)[:n])


def test_moser_representative_is_canonical():
    # the bottom-row read agrees with the Gauss-split route
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        point = sample_toda(datum, spawn_rng(17, n))
        mp = toda_to_moser(datum, point)
        want = _gauss_split_ahat(datum, point)
        gap = np.max(np.abs(mp.ahat - want) / want)
        assert gap < 1e-9, f"{fam}{n} ahat gap {gap:.3e}"
        assert np.all(mp.ahat > 0.0)


def test_high_rank_draws_map_forward():
    # well-separated spectra whose Moser elements are badly conditioned;
    # the Lanczos pass maps every one of them back within the budget
    for fam, n in [("B", 7), ("D", 8)]:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(40):
            point = sample_toda(datum, spawn_rng(0, j))
            back = goldfish_to_toda(datum, toda_to_goldfish(datum, point))
            err = max(np.max(np.abs(back.q - point.q)), np.max(np.abs(back.p - point.p)))
            assert err < 1e-7, f"{fam}{n} draw {j} round trip error {err:.3e}"


def test_inverse_positions_match_iwasawa_diagonal():
    # q from the Lanczos pass against the a factor of the full Iwasawa split
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(4):
            gp = sample_goldfish(datum, spawn_rng(5, 10 * n + j))
            _, afactor, _ = iwasawa(datum, build_moser_g(datum, a_from_p(datum, gp)))
            want = np.log(np.real(np.diagonal(afactor))[:n])
            gap = np.max(np.abs(goldfish_to_toda(datum, gp).q - want))
            assert gap < 1e-10, f"{fam}{n} q gap {gap:.3e}"


def test_inverse_map_rejects_a_perturbed_bottom_row(monkeypatch):
    # the norm ||pi_1|| of the pass's step 1, the distance of row N-2 of g
    # from the bottom row, off by 1e-6 moves q and so the rebuilt Lax spectrum
    def perturbed(datum, point):
        log_norm, *rest = _heine_pass(datum, point)
        return log_norm + 1.0e-6 * (np.arange(log_norm.size) == 1), *rest

    for fam, n in [("A", 3), ("B", 2), ("C", 3), ("D", 3)]:
        datum = build_root_datum(AlgebraType(fam, n))
        gp = toda_to_goldfish(datum, sample_toda(datum, spawn_rng(3, n)))
        goldfish_to_toda(datum, gp)
        with monkeypatch.context() as patch:
            patch.setattr(todadual.duality, "_heine_pass", perturbed)
            with pytest.raises(DualityResidualError, match="rebuilt Lax spectrum"):
                goldfish_to_toda(datum, gp)


def test_inverse_map_gives_the_cauchy_binet_tail_sums():
    # an inverse-map oracle with no QR and no Lanczos: the tail sums of
    # pattern(q) are (1/2) log H-hat_k and those of pattern(p) are
    # qhat . grad_phat (1/2) log H-hat_k, with H-hat_k the brute-force sum of
    # squared product-form minors over the k-subsets S of the columns; the
    # phat-gradient of log(minor_S^2) is exactly 2 sum_{c in S} pattern[c]
    # (D's top invariant is not such a sum)
    for fam in FAMILIES:
        for n in range(1 + (fam == "D"), 6):
            datum = build_root_datum(AlgebraType(fam, n))
            for j in range(3):
                gp = sample_goldfish(datum, spawn_rng(67, 10 * n + j))
                spec = ruijsenaars_spec_for(datum, a_from_p(datum, gp))
                tp = goldfish_to_toda(datum, gp)
                q_tails = np.cumsum(cartan_pattern(datum, tp.q)[::-1])
                p_tails = np.cumsum(cartan_pattern(datum, tp.p)[::-1])
                for k in range(1, n + (fam != "D")):
                    subsets = [list(S) for S in itertools.combinations(range(spec.size), k)]
                    terms = np.array([closed_form_minor(spec, S) ** 2 for S in subsets])
                    grad = sum(t * datum.pattern[S].sum(axis=0) for t, S in zip(terms, subsets)) / terms.sum()
                    where = f"{fam}{n} draw {j} k={k}"
                    assert abs(q_tails[k - 1] - 0.5 * np.log(terms.sum())) < 1e-12, where
                    assert abs(p_tails[k - 1] - gp.qhat @ grad) < 1e-12 * max(1.0, abs(p_tails[k - 1])), where


def test_an_exhausted_pass_names_its_step():
    # the weight e^-1000 underflows next to 1, so the pass's step-1 residual
    # vanishes: the inverse map and its Jacobian name that step, and verify
    # counts the point as broken rather than crashing on it
    datum = build_root_datum(AlgebraType("A", 2))
    gp = GoldfishPoint(qhat=[1.0, -1.0], phat=[0.0, -1000.0])
    for fn in (goldfish_to_toda, duality_jacobian):
        with pytest.raises(SingularMatrixError, match=r"Lanczos step 1: \|\|pi_1\|\| underflows to 0"):
            fn(datum, gp)
    worst, note = _per_point(datum, 0, "round-trip", 1, lambda datum, rng: gp, partial(goldfish_to_toda, datum))
    assert worst == np.inf
    assert note == "1 residual failure(s) (0: Lanczos step 1: ||pi_1|| underflows to 0 beside the largest Moser weight)"


def test_round_trip_all_families():
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(5):
            point = sample_toda(datum, spawn_rng(101, 10 * n + j))
            back = goldfish_to_toda(datum, toda_to_goldfish(datum, point))
            err = max(np.max(np.abs(back.q - point.q)), np.max(np.abs(back.p - point.p)))
            assert err < 1e-9, f"{fam}{n} round trip error {err:.3e}"


def test_reverse_round_trip():
    for fam, n in [("A", 3), ("B", 2), ("C", 2), ("D", 3)]:
        datum = build_root_datum(AlgebraType(fam, n))
        gp = sample_goldfish(datum, spawn_rng(59, n))
        back = toda_to_goldfish(datum, goldfish_to_toda(datum, gp))
        assert np.max(np.abs(back.qhat - gp.qhat)) < 1e-9
        assert np.max(np.abs(back.phat - gp.phat)) < 1e-9


def test_identity_report_matches_both_pairs():
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        point = sample_toda(datum, spawn_rng(71, n))
        report = verify_duality_identities(datum, point)
        assert report.toda_values.shape == (n,)
        assert report.goldfish_values.shape == (n,)
        assert report.jk_toda_gauge.shape == (n,)
        assert report.ik_moser_gauge.shape == (n,)
        assert report.max_relative_mismatch < 1e-9, f"{fam}{n}: {report.max_relative_mismatch:.3e}"


def test_relative_gaps_fold_zero_scales_and_keep_nan():
    assert _relative_gaps(0.0, 0.0) == 0.0
    assert _relative_gaps([0.0, -0.0], [-0.0, 0.0]).tolist() == [0.0, 0.0]
    for a, b in ((np.nan, 1.0), (1.0, np.nan), (0.0, np.nan), (np.nan, 0.0), (np.nan, np.nan)):
        assert np.isnan(_relative_gaps(a, b))
    rng = np.random.default_rng(5)
    a = rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200)
    b = a * (1.0 + rng.normal(size=200) * 10.0 ** rng.integers(-16, 1, size=200))
    scalar = [abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a.tolist(), b.tolist())]
    assert _relative_gaps(a, b).tolist() == scalar


def test_gauge_minors_are_position_exponentials():
    datum = build_root_datum(AlgebraType("A", 3))
    q = np.array([0.4, -0.1, 0.2])
    jk = toda_gauge_minors(datum, TodaPoint(q=q, p=np.zeros(3)))
    want = np.exp(2.0 * np.array([q[2], q[2] + q[1], q[2] + q[1] + q[0]]))
    assert np.max(np.abs(jk - want)) < 1e-14 * np.max(want)


def test_gauge_minors_equal_dual_hamiltonians():
    # same minor family evaluated in the two gauges
    datum = build_root_datum(AlgebraType("D", 3))
    point = sample_toda(datum, spawn_rng(83, 0))
    gp = toda_to_goldfish(datum, point)
    jk = toda_gauge_minors(datum, point)
    hk = goldfish_hamiltonians(datum, gp)
    assert np.max(np.abs(jk - hk) / np.abs(hk)) < 1e-9


def test_gauge_traces_equal_chain_hamiltonians():
    datum = build_root_datum(AlgebraType("B", 3))
    point = sample_toda(datum, spawn_rng(83, 1))
    gp = toda_to_goldfish(datum, point)
    ik = moser_gauge_traces(datum, gp.qhat)
    hk = toda_hamiltonians(datum, point)
    assert np.max(np.abs(ik - hk) / np.maximum(1.0, np.abs(hk))) < 1e-9


def test_degenerate_spectrum_is_refused():
    # nearly decoupled particles with equal momenta: eigenvalue gap ~ 4e-9
    datum = build_root_datum(AlgebraType("A", 2))
    with pytest.raises(DegenerateSpectrumError):
        toda_to_moser(datum, TodaPoint(q=[-10.0, 10.0], p=[0.0, 0.0]))


def test_jacobian_of_rank_one_swap():
    datum = build_root_datum(AlgebraType("A", 1))
    J = duality_jacobian(datum, GoldfishPoint(qhat=[0.2], phat=[0.3]))
    assert np.max(np.abs(J - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-9


# Every family at every rank up to verify's RANK_CAP.
CAPPED = [(fam, n) for fam in "ABC" for n in range(1, 9)] + [("D", n) for n in range(2, 9)]


def _stencil_jacobian(datum, gp, h=5.0e-5):
    """Central-difference Jacobian of the inverse map, rows (p, q), columns (phat, qhat)."""
    n = datum.algebra.rank

    def image(z):
        tp = goldfish_to_toda(datum, GoldfishPoint(qhat=z[n:], phat=z[:n]))
        return np.concatenate([tp.p, tp.q])

    return central_difference(image, np.concatenate([gp.phat, gp.qhat]), h).T


def test_exact_jacobian_matches_the_stencil():
    # the verify slot's draws (counters 9000-9002) at seeds 0-2; the
    # h = 5e-5 stencil's own error reaches about 1e-7 at rank 8
    for fam, n in CAPPED:
        datum = build_root_datum(AlgebraType(fam, n))
        for seed in range(3):
            for j in range(3):
                gp = sample_goldfish(datum, spawn_rng(seed, 9000 + j))
                J = duality_jacobian(datum, gp)
                gap = float(np.max(np.abs(J - _stencil_jacobian(datum, gp)))) / max(1.0, float(np.max(np.abs(J))))
                assert gap < 1e-6, f"{fam}{n} seed {seed} draw {j}: {gap:.3e}"


def test_exact_jacobian_is_antisymplectic_to_rounding():
    # J^T W J = -W up to rounding, far inside verify's 1e-4 budget
    for fam, n in CAPPED:
        datum = build_root_datum(AlgebraType(fam, n))
        for seed in range(3):
            for j in range(3):
                gp = sample_goldfish(datum, spawn_rng(seed, 9000 + j))
                residual, sigma = symplectomorphism_check(datum, gp)
                assert sigma == -1.0, f"{fam}{n} seed {seed} draw {j} sigma {sigma}"
                assert residual < 1e-9, f"{fam}{n} seed {seed} draw {j} residual {residual:.3e}"


def test_closed_form_gradients_match_the_forward_mode_tangent():
    # H-hat_k = J_k(q) = exp(2 sum_{i<k} (tail q)_i) at q = goldfish_to_toda(gp).q,
    # so the closed-form goldfish_gradients and the q rows of duality_jacobian,
    # two exact derivatives of one pass, give the same rows
    for fam, n in CAPPED:
        datum = build_root_datum(AlgebraType(fam, n))
        tail = datum.pattern[::-1][:n]
        for seed in range(5):
            for j in range(3):
                gp = sample_goldfish(datum, spawn_rng(seed, 9000 + j))
                H = goldfish_hamiltonians(datum, gp)
                tangent = 2.0 * H[:, None] * np.cumsum(tail @ duality_jacobian(datum, gp)[n:], axis=0)
                grad = goldfish_gradients(datum, gp)
                gap = float(np.max(np.linalg.norm(grad - tangent, axis=1) / np.linalg.norm(grad, axis=1)))
                assert gap < 1e-10, f"{fam}{n} seed {seed} draw {j}: {gap:.3e}"


def test_jacobian_runs_the_gated_map_once(monkeypatch):
    # one Lanczos pass at the point itself, no perturbed evaluation
    datum = build_root_datum(AlgebraType("C", 3))
    gp = sample_goldfish(datum, spawn_rng(0, 9000))
    calls = []

    def counted(datum, point):
        calls.append(point)
        return _heine_pass(datum, point)

    monkeypatch.setattr(todadual.duality, "_heine_pass", counted)
    duality_jacobian(datum, gp)
    assert len(calls) == 1
    assert calls[0] is gp


@pytest.mark.parametrize(
    "fn, fam, n, expected",
    [
        (goldfish_gradients, "B", 3, 1),
        (goldfish_gradients, "D", 4, 2),  # the weights and the fused-root row
        (duality_jacobian, "C", 3, 1),
    ],
)
def test_one_chamber_evaluation_per_call(monkeypatch, fn, fam, n, expected):
    # every todadual binding of log_gap_sums is counted, whichever module calls it
    datum = build_root_datum(AlgebraType(fam, n))
    gp = sample_goldfish(datum, spawn_rng(0, 9000))
    calls = []

    def counted(x, table):
        calls.append(table)
        return log_gap_sums(x, table)

    for name, module in list(sys.modules.items()):
        if name == "todadual" or name.startswith("todadual."):
            for attr, value in list(vars(module).items()):
                if value is log_gap_sums:
                    monkeypatch.setattr(module, attr, counted)
    fn(datum, gp)
    assert len(calls) == expected


def test_each_map_pass_checks_the_chamber_once(monkeypatch, tmp_path):
    # every todadual binding of check_chamber is counted, whichever module calls it
    datum = build_root_datum(AlgebraType("B", 3))
    point = sample_toda(datum, spawn_rng(0, 3))
    gp = toda_to_goldfish(datum, point)
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
    toda_to_moser(datum, point)
    assert calls == 1
    calls = 0
    goldfish_to_toda(datum, gp)
    assert calls == 1
    calls = 0
    # two forward maps and a p_from_a each, the dual Hamiltonians, one inverse map
    argv = ["dual-map", "--type", "B", "--rank", "3", "--seed", "0", "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert calls == 6


def test_dual_side_overflow_is_named_and_a_nan_mismatch_is_kept(monkeypatch):
    datum = build_root_datum(AlgebraType("A", 2))
    with pytest.raises(ValidationError, match=r"Toda-gauge minor J_1 = exp\(1409\) overflows float64"):
        toda_gauge_minors(datum, TodaPoint(q=[705.0, 704.5], p=[0.0, 0.0]))
    with pytest.raises(ValidationError, match="Moser weight ahat_2 = exp"):
        a_from_p(datum, GoldfishPoint(qhat=[1.0, -1.0], phat=[0.0, 800.0]))
    with pytest.raises(ValidationError, match="dual Hamiltonian H-hat_1, a sum of squared minors, overflows"):
        goldfish_hamiltonians(datum, GoldfishPoint(qhat=[1.0, -1.0], phat=[0.0, 400.0]))
    # a NaN gap reaches the report instead of reading as agreement
    monkeypatch.setattr(todadual.duality, "goldfish_hamiltonians", lambda *args: np.full(2, np.nan))
    report = verify_duality_identities(datum, TodaPoint(q=[0.3, -0.2], p=[0.1, 0.4]))
    assert np.isnan(report.max_relative_mismatch)


def test_map_is_antisymplectic():
    for fam, n in [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 2)]:
        datum = build_root_datum(AlgebraType(fam, n))
        point = sample_goldfish(datum, spawn_rng(91, n))
        residual, sigma = symplectomorphism_check(datum, point)
        assert sigma == -1.0, f"{fam}{n} sigma {sigma}"
        assert residual < 1e-4, f"{fam}{n} residual {residual:.3e}"


def test_forward_stencil_inverts_the_inverse_map_jacobian():
    # oracle for the forward map, which the certificate no longer
    # differentiates: its own central-difference Jacobian, (p, q) ->
    # (phat, qhat), times the inverse-map Jacobian at the image is I
    h = 1e-5
    for fam, n in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]:
        datum = build_root_datum(AlgebraType(fam, n))

        def image(z):
            gp = toda_to_goldfish(datum, TodaPoint(q=z[n:], p=z[:n]))
            return np.concatenate([gp.phat, gp.qhat])

        for j in range(3):
            point = sample_toda(datum, spawn_rng(67, 10 * n + j))
            z0 = np.concatenate([point.p, point.q])
            forward = central_difference(image, z0, h).T
            inverse = duality_jacobian(datum, toda_to_goldfish(datum, point))
            gap = float(np.max(np.abs(forward @ inverse - np.eye(2 * n))))
            assert gap < 1e-5, f"{fam}{n} draw {j}: {gap:.3e}"


def test_rank_eight_verify_draws_are_antisymplectic():
    # the verify slot's seed-0 draws (counters 9000-9002) at rank 8, where
    # a stencil of the forward map, which runs through eigh, missed the
    # 1e-4 budget
    for fam in "BCD":
        datum = build_root_datum(AlgebraType(fam, 8))
        for j in range(3):
            point = sample_goldfish(datum, spawn_rng(0, 9000 + j))
            residual, sigma = symplectomorphism_check(datum, point)
            assert sigma == -1.0, f"{fam}8 point {j} sigma {sigma}"
            assert residual < 1e-4, f"{fam}8 point {j} residual {residual:.3e}"


def test_symplectomorphism_tail_seeds_pass_verify():
    # seeds at which the forward-map stencils once crossed the 1e-4
    # budget; the whole suite must still pass there
    seeds = [("D", 5, 1059), ("C", 4, 1237), ("B", 4, 1128), ("B", 4, 1179), ("A", 5, 1222), ("A", 6, 1579)]
    for fam, n, seed in seeds:
        report = run_suite(build_root_datum(AlgebraType(fam, n)), seed)
        failed = [rec["property"] for rec in report["properties"] if not rec["passed"]]
        assert report["all_passed"], f"{fam}{n} seed {seed}: {failed}"
