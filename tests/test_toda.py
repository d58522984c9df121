"""Lax matrices, trace Hamiltonians, and the midpoint integrator."""

import numpy as np
import pytest

from todadual import toda
from todadual.errors import StepFailureError, ValidationError
from todadual.poisson import commutativity_matrix
from todadual.rootsys import AlgebraType, algebra_residual, build_root_datum, cartan_pattern
from todadual.sampling import sample_flow_toda, sample_toda, spawn_rng
from todadual.toda import (
    MAX_EXPONENT,
    MIDPOINT_MAX_ITER,
    MIDPOINT_TOL,
    TodaPoint,
    build_lax,
    equations_of_motion,
    integrate_flow,
    quadratic_index,
    symplectic_form,
    symplectic_scale,
    toda_group_element,
    toda_hamiltonians,
    toda_gradients,
    toda_momentum_residual,
)

ALGEBRAS = [("A", 2), ("A", 4), ("B", 1), ("B", 3), ("C", 2), ("C", 4), ("D", 2), ("D", 3)]
# Every family at ranks 1-8 (D from 2); A1 has no simple roots.
ALL_TO_EIGHT = [(fam, n) for fam in "ABCD" for n in range(1, 9) if not (fam == "D" and n < 2)]
# Every family with a quadratic flow at ranks up to 8 (A from 2).
FLOWS_TO_EIGHT = [(fam, n) for fam, n in ALL_TO_EIGHT if (fam, n) != ("A", 1)]


def dense_lax(datum, point):
    """Reference Lax matrix from the dense (rank, N, N) root stack."""
    weights = np.exp(datum.alpha_coeffs @ point.q)
    root_sums = datum.raising + datum.lowering
    return np.diag(cartan_pattern(datum, point.p)) + np.tensordot(weights, root_sums, axes=1)


def dense_equations_of_motion(datum, point, k):
    """Reference vector field: the traces Tr(G h_i) and Tr(G (e_alpha + e_-alpha)) as dense einsums."""
    X = dense_lax(datum, point)
    if datum.algebra.family == "A":
        G = np.linalg.matrix_power(X, k - 1)
    else:
        G = 0.5 * np.linalg.matrix_power(X, 2 * k - 1)
    s = float(symplectic_scale(datum))
    dH_dp = np.einsum("ijk,kj->i", datum.cartan, G)
    w = np.exp(datum.alpha_coeffs @ point.q)
    dH_dq = datum.alpha_coeffs.T @ (w * np.einsum("ijk,kj->i", datum.raising + datum.lowering, G))
    return dH_dp / s, -dH_dq / s


def reference_flow(datum, point, k, dt, steps):
    """Reference midpoint loop over the public field, one step at a time.

    Each step iterates z' = z + dt * f((z + z')/2) from the Euler guess
    z + dt * f(z) until two iterates agree to MIDPOINT_TOL in the sup norm.
    """
    n = datum.algebra.rank

    def sweep(z, w):
        mid = (z + w) * 0.5
        return z + dt * np.concatenate(equations_of_motion(datum, TodaPoint(q=mid[:n], p=mid[n:]), k))

    traj = np.empty((steps + 1, 2 * n))
    traj[0] = np.concatenate([point.q, point.p])
    for step in range(1, steps + 1):
        z = traj[step - 1]
        w = sweep(z, z)
        for _ in range(MIDPOINT_MAX_ITER):
            w_next = sweep(z, w)
            delta = np.max(np.abs(w_next - w))
            w = w_next
            if delta <= MIDPOINT_TOL:
                break
        else:
            raise AssertionError(f"reference iteration stalled at step {step}")
        traj[step] = w
    return traj


def test_point_validation():
    with pytest.raises(ValidationError):
        TodaPoint(q=[1.0, 2.0], p=[0.5])
    with pytest.raises(ValidationError):
        TodaPoint(q=[np.inf, 0.0], p=[0.0, 0.0])
    with pytest.raises(ValidationError):
        TodaPoint(q=[[1.0]], p=[[1.0]])


def test_gl2_lax_matrix():
    datum = build_root_datum(AlgebraType("A", 2))
    q = np.array([0.3, -0.2])
    p = np.array([0.7, 0.1])
    X = build_lax(datum, TodaPoint(q=q, p=p))
    w = np.exp(q[0] - q[1])
    ref = np.array([[p[0], w], [w, p[1]]])
    assert np.max(np.abs(X - ref)) == 0.0


def test_sp4_lax_matrix():
    # rank-2 type C: tridiagonal with the mirrored momentum diagonal
    datum = build_root_datum(AlgebraType("C", 2))
    q = np.array([0.4, -0.3])
    p = np.array([0.6, -0.1])
    X = build_lax(datum, TodaPoint(q=q, p=p))
    a = np.exp(q[0] - q[1])
    b = np.exp(2.0 * q[1])
    ref = np.array(
        [
            [p[0], a, 0.0, 0.0],
            [a, p[1], b, 0.0],
            [0.0, b, -p[1], -a],
            [0.0, 0.0, -a, -p[0]],
        ]
    )
    assert np.max(np.abs(X - ref)) == 0.0


def test_lax_is_symmetric_algebra_element():
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        point = sample_toda(datum, spawn_rng(11, n))
        X = build_lax(datum, point)
        assert np.max(np.abs(X - X.T)) == 0.0
        assert algebra_residual(datum, X) < 1e-13


def test_build_lax_equals_the_dense_definition():
    for fam, n in ALL_TO_EIGHT:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(4):
            point = sample_toda(datum, spawn_rng(71, 10 * n + j))
            assert np.array_equal(build_lax(datum, point), dense_lax(datum, point)), (fam, n, j)


def test_equations_of_motion_match_the_dense_einsum_form():
    # Only the summation order of the per-root traces differs.
    for fam, n in ALL_TO_EIGHT:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(3):
            point = sample_toda(datum, spawn_rng(73, 10 * n + j))
            for k in range(1, n + 1):
                got = np.concatenate(equations_of_motion(datum, point, k))
                want = np.concatenate(dense_equations_of_motion(datum, point, k))
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (fam, n, j, k)


def test_equations_of_motion_equal_the_gram_product_bit_for_bit():
    # Reference: the Gram matvec lax_gram @ [p, w] for the physical
    # Hamiltonian, the basis traces otherwise, each scaled by d^2 after the
    # product; pre-scaling the diagonal by the power of two d^2 keeps the bits.
    for fam, n in ALL_TO_EIGHT:
        datum = build_root_datum(AlgebraType(fam, n))
        d = symplectic_scale(datum)
        for j in range(3):
            point = sample_toda(datum, spawn_rng(97, 10 * n + j))
            w = np.exp(np.dot(point.q, datum.alpha_coeffs.T))
            coords = np.concatenate([point.p, w])
            for k in range(1, n + 1):
                if d * k == 2:
                    t = np.dot(datum.lax_gram, coords)
                else:
                    X = np.dot(coords, datum.lax_basis).reshape(datum.size, datum.size)
                    t = np.dot(datum.lax_basis, np.linalg.matrix_power(X, d * k - 1).ravel())
                t /= d * d
                dq, dp = equations_of_motion(datum, point, k)
                assert np.array_equal(dq, t[:n]), (fam, n, j, k)
                assert np.array_equal(dp, -np.dot(datum.alpha_coeffs.T, w * t[n:])), (fam, n, j, k)


def test_toda_gradients_match_the_dense_einsum_form():
    # Row k-1 is dH_k unscaled; the oracle's field is divided by the Poisson
    # scale and negated in q.  The power chains round differently.
    for fam, n in ALL_TO_EIGHT:
        datum = build_root_datum(AlgebraType(fam, n))
        s = symplectic_scale(datum)
        for j in range(2):
            point = sample_toda(datum, spawn_rng(79, 10 * n + j))
            grads = toda_gradients(datum, point)
            assert grads.shape == (n, 2 * n)
            for k in range(1, n + 1):
                dq, dp = dense_equations_of_motion(datum, point, k)
                want = np.concatenate([s * dq, -s * dp])
                assert np.max(np.abs(grads[k - 1] - want)) <= 1e-13 * np.max(np.abs(want)), (fam, n, j, k)


@pytest.mark.parametrize("fam,n", FLOWS_TO_EIGHT)
def test_stacked_lax_equals_per_row_build_lax(fam, n):
    # The trajectory build that `integrate` tabulates is bit for bit the
    # single-point build of each row.
    datum = build_root_datum(AlgebraType(fam, n))
    point = sample_flow_toda(datum, spawn_rng(83, n))
    traj = integrate_flow(datum, point, quadratic_index(datum), dt=1e-2, steps=40)
    X, w = toda._lax(datum, traj[:, :n], traj[:, n:])
    assert X.shape == (41, datum.size, datum.size) and w.shape == (41, datum.num_roots)
    for row, X_row in zip(traj, X):
        assert np.array_equal(X_row, build_lax(datum, TodaPoint(q=row[:n], p=row[n:])))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_root_weight_is_named():
    # B2 at q = (800, 0): exp((alpha_1, q)) = exp(800) is past float64.
    datum = build_root_datum(AlgebraType("B", 2))
    point = TodaPoint(q=[800.0, 0.0], p=[0.0, 0.0])
    calls = [
        lambda: build_lax(datum, point),
        lambda: equations_of_motion(datum, point, 1),
        lambda: toda_gradients(datum, point),
        lambda: toda_hamiltonians(datum, point),
        lambda: integrate_flow(datum, point, 1, dt=1e-3, steps=0),
        lambda: integrate_flow(datum, point, 1, dt=1e-3, steps=3),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"exp\(\(alpha_1, q\)\) overflows"):
            call()
    # On a trajectory the root is named along the last axis: row 2 of this
    # A3 batch overflows at (alpha_2, q) = q_2 - q_3 = 800.
    a3 = build_root_datum(AlgebraType("A", 3))
    rows = np.array([[0.0, 0.0, 0.0], [0.0, 800.0, 0.0]])
    with pytest.raises(ValidationError, match=r"exp\(\(alpha_2, q\)\) overflows float64: \(alpha_2, q\) = 800$"):
        toda._lax(a3, rows, np.zeros_like(rows))
    # The largest exponent still in range builds a finite matrix.
    edge = TodaPoint(q=[0.0, MAX_EXPONENT], p=[0.0, 0.0])
    assert np.isfinite(build_lax(datum, edge)).all()
    with pytest.raises(ValidationError, match="group element"):
        toda_group_element(build_root_datum(AlgebraType("A", 2)), TodaPoint(q=[800.0, 800.0], p=[0.0, 0.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "call",
    [toda_gradients, commutativity_matrix, lambda datum, point: equations_of_motion(datum, point, 2)],
    ids=["toda_gradients", "commutativity_matrix", "equations_of_motion"],
)
def test_overflowing_gradient_is_named(call):
    # B2 at p = (1e200, 1e200): X fits, and so does dH_1 = Tr(X dX) / 2, but
    # X^3 behind dH_2 does not; each exact-gradient route names H_2, not NaN.
    datum = build_root_datum(AlgebraType("B", 2))
    point = TodaPoint(q=[0.0, 0.0], p=[1e200, 1e200])
    with pytest.raises(ValidationError, match=r"^gradient of Toda Hamiltonian H_2, a trace against X\^3, overflows float64$"):
        call(datum, point)
    assert np.isfinite(np.hstack(equations_of_motion(datum, point, 1))).all()


def test_checked_exp_rejects_a_nan_after_a_finite_entry():
    # a Python max over [0, nan] returns 0 and would let the NaN through
    message = "x_{i} = exp({e:.6g}) overflows float64"
    in_range = np.array([0.0, MAX_EXPONENT])
    assert np.array_equal(toda._checked_exp(in_range, message), np.exp(in_range))
    for exponents, named in (([0.0, np.nan], "x_2 = exp(nan)"), ([np.nan, 0.0], "x_1 = exp(nan)"), ([0.0, 710.0], "x_2 = exp(710)")):
        with pytest.raises(ValidationError) as exc:
            toda._checked_exp(np.array(exponents), message)
        assert str(exc.value) == f"{named} overflows float64"


def test_lax_rank_mismatch():
    datum = build_root_datum(AlgebraType("B", 2))
    with pytest.raises(ValidationError):
        build_lax(datum, TodaPoint(q=[0.1, 0.2, 0.3], p=[0.0, 0.0, 0.0]))


def test_momentum_residual_in_diagonal_gauge():
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(6):
            point = sample_toda(datum, spawn_rng(23, 10 * n + j))
            assert toda_momentum_residual(datum, point) < 1e-12


def test_momentum_residual_names_an_overflow():
    # At A2 q = (0, 800) g = diag(exp(q)) does not fit; at (-400, 400) g fits
    # but the entrywise conjugation g X g^{-1} does not.  Neither is a NaN.
    datum = build_root_datum(AlgebraType("A", 2))
    with pytest.raises(ValidationError, match=r"group element .* diagonal entry 2 = exp\(800\)$"):
        toda_momentum_residual(datum, TodaPoint(q=[0.0, 800.0], p=[0.0, 0.0]))
    with pytest.raises(ValidationError, match=r"g X g\^\{-1\} leaves the float64 range"):
        toda_momentum_residual(datum, TodaPoint(q=[-400.0, 400.0], p=[0.0, 0.0]))


def test_group_element_is_exp_of_pattern():
    datum = build_root_datum(AlgebraType("D", 3))
    point = TodaPoint(q=[0.5, 0.2, -0.1], p=[0.0, 0.0, 0.0])
    g = toda_group_element(datum, point)
    d = np.diag(g)
    assert np.allclose(d[:3], np.exp(point.q))
    assert np.allclose(d[3:], np.exp(-point.q[::-1]))
    assert np.max(np.abs(g - np.diag(d))) == 0.0


def test_sp4_quadratic_hamiltonian_formula():
    datum = build_root_datum(AlgebraType("C", 2))
    q = np.array([0.25, -0.15])
    p = np.array([0.45, 0.35])
    got = toda_hamiltonians(datum, TodaPoint(q=q, p=p))[0]
    want = 0.5 * (p @ p) + np.exp(2.0 * (q[0] - q[1])) + 0.5 * np.exp(4.0 * q[1])
    assert abs(got - want) < 1e-14 * max(1.0, abs(want))


def test_gl_hamiltonians_are_power_traces():
    datum = build_root_datum(AlgebraType("A", 3))
    point = sample_toda(datum, spawn_rng(5, 1))
    X = build_lax(datum, point)
    values = toda_hamiltonians(datum, point)
    for k in range(1, 4):
        want = np.trace(np.linalg.matrix_power(X, k)) / k
        assert abs(values[k - 1] - want) < 1e-13 * max(1.0, abs(want))


def test_bcd_odd_traces_vanish():
    for fam in "BCD":
        n = 3 if fam != "B" else 2
        datum = build_root_datum(AlgebraType(fam, n))
        point = sample_toda(datum, spawn_rng(31, n))
        X = build_lax(datum, point)
        for m in (1, 3, 5):
            tr = np.trace(np.linalg.matrix_power(X, m))
            assert abs(tr) < 1e-12 * max(1.0, np.linalg.norm(X) ** m)


def test_quadratic_index_and_scale():
    assert quadratic_index(build_root_datum(AlgebraType("A", 3))) == 2
    assert quadratic_index(build_root_datum(AlgebraType("C", 2))) == 1
    assert quadratic_index(build_root_datum(AlgebraType("B", 1))) == 1
    with pytest.raises(ValidationError):
        quadratic_index(build_root_datum(AlgebraType("A", 1)))
    assert symplectic_scale(build_root_datum(AlgebraType("A", 2))) == 1
    assert symplectic_scale(build_root_datum(AlgebraType("D", 2))) == 2


def test_symplectic_form_matrix():
    for fam, n, scale in [("A", 3, 1.0), ("C", 2, 2.0)]:
        M = symplectic_form(build_root_datum(AlgebraType(fam, n)))
        ref = np.zeros((2 * n, 2 * n))
        ref[:n, n:] = scale * np.eye(n)
        ref[n:, :n] = -scale * np.eye(n)
        assert np.max(np.abs(M - ref)) == 0.0
        assert np.max(np.abs(M + M.T)) == 0.0


def test_equations_of_motion_match_hand_derivative():
    # A2 with H_2 = (p1^2 + p2^2)/2 + e^{2(q1-q2)}: Hamilton's equations
    # are dq = p and dp = -/+ 2 e^{2(q1-q2)}.
    datum = build_root_datum(AlgebraType("A", 2))
    q = np.array([0.2, -0.3])
    p = np.array([0.4, -0.1])
    dq, dp = equations_of_motion(datum, TodaPoint(q=q, p=p), 2)
    coupling = 2.0 * np.exp(2.0 * (q[0] - q[1]))
    assert np.max(np.abs(dq - p)) < 1e-12
    assert np.max(np.abs(dp - np.array([-coupling, coupling]))) < 1e-12


def test_equations_of_motion_use_poisson_scale():
    # Family C carries scale 2, so dq/dt is half the naive dH/dp.
    datum = build_root_datum(AlgebraType("C", 2))
    q = np.array([0.3, -0.2])
    p = np.array([0.5, 0.1])
    dq, _ = equations_of_motion(datum, TodaPoint(q=q, p=p), 1)
    assert np.max(np.abs(dq - p / 2.0)) < 1e-12


def test_equations_of_motion_match_central_differences():
    # Oracle: central differences of H_k in every coordinate.
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        point = sample_toda(datum, spawn_rng(59, n))
        s = symplectic_scale(datum)
        h = 1e-6 * max(1.0, float(np.linalg.norm(np.concatenate([point.q, point.p]))))
        for k in range(1, n + 1):

            def H(q, p):
                return toda_hamiltonians(datum, TodaPoint(q=q, p=p))[k - 1]

            dH_dq = np.empty(n)
            dH_dp = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                dH_dq[i] = (H(point.q + e, point.p) - H(point.q - e, point.p)) / (2.0 * h)
                dH_dp[i] = (H(point.q, point.p + e) - H(point.q, point.p - e)) / (2.0 * h)
            want = np.concatenate([dH_dp, -dH_dq]) / s
            got = np.concatenate(equations_of_motion(datum, point, k))
            assert np.max(np.abs(got - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))


def test_flow_conserves_invariants():
    for fam, n in [("A", 3), ("B", 2), ("C", 2), ("D", 2)]:
        datum = build_root_datum(AlgebraType(fam, n))
        point = sample_flow_toda(datum, spawn_rng(47, n))
        k = quadratic_index(datum)
        traj = integrate_flow(datum, point, k, dt=1e-3, steps=200)
        assert traj.shape == (201, 2 * n)
        start = toda_hamiltonians(datum, point)
        lam0 = np.linalg.eigvalsh(build_lax(datum, point))
        end_point = TodaPoint(q=traj[-1, :n], p=traj[-1, n:])
        end = toda_hamiltonians(datum, end_point)
        lam1 = np.linalg.eigvalsh(build_lax(datum, end_point))
        scale = max(1.0, np.max(np.abs(start)))
        assert np.max(np.abs(end - start)) < 1e-7 * scale
        assert np.max(np.abs(lam1 - lam0)) < 1e-7 * max(1.0, np.max(np.abs(lam0)))


def test_flow_zero_dt_is_constant():
    datum = build_root_datum(AlgebraType("C", 2))
    point = sample_toda(datum, spawn_rng(3, 0))
    traj = integrate_flow(datum, point, 1, dt=0.0, steps=5)
    assert traj.shape == (6, 4)
    for row in traj:
        assert np.max(np.abs(row - traj[0])) == 0.0


def test_flow_actually_moves():
    datum = build_root_datum(AlgebraType("A", 2))
    point = TodaPoint(q=[0.2, -0.2], p=[0.3, -0.3])
    traj = integrate_flow(datum, point, 2, dt=1e-2, steps=10)
    assert np.max(np.abs(traj[-1] - traj[0])) > 1e-3


def test_flow_validation_and_step_failure(monkeypatch):
    datum = build_root_datum(AlgebraType("A", 2))
    point = TodaPoint(q=[0.0, 0.0], p=[0.1, -0.1])
    with pytest.raises(ValidationError):
        integrate_flow(datum, point, 2, dt=1e-3, steps=-1)
    with pytest.raises(ValidationError):
        integrate_flow(datum, point, 2, dt=np.nan, steps=1)
    # the index is checked even when no step runs
    with pytest.raises(ValidationError, match="k must lie"):
        integrate_flow(datum, point, 3, dt=1e-3, steps=0)
    # one iteration cannot reach the fixed point from the Euler predictor
    monkeypatch.setattr(toda, "MIDPOINT_MAX_ITER", 1)
    with pytest.raises(StepFailureError):
        integrate_flow(datum, point, 2, dt=1e-2, steps=1)


def test_flow_checks_point_rank():
    datum = build_root_datum(AlgebraType("B", 3))
    point = TodaPoint(q=[0.0, 0.1], p=[0.2, 0.3])
    for steps in (0, 3):
        with pytest.raises(ValidationError, match="does not match algebra rank"):
            integrate_flow(datum, point, 1, dt=1e-3, steps=steps)


@pytest.mark.parametrize("fam,n", FLOWS_TO_EIGHT)
def test_midpoint_steps_solve_the_midpoint_equation(fam, n):
    # Oracle: each sampled row pair (z, z') satisfies the midpoint equation
    # z' = z + dt * f((z + z')/2) to the iteration tolerance, and the whole
    # trajectory matches the Euler-start reference loop.
    datum = build_root_datum(AlgebraType(fam, n))
    k = quadratic_index(datum)
    dt = 1e-3
    sampled = [*range(1, 10), *range(10, 1001, 10)]
    for j in range(3):
        point = sample_flow_toda(datum, spawn_rng(61, 10 * n + j))
        traj = integrate_flow(datum, point, k, dt=dt, steps=1000)
        for step in sampled:
            z, z_next = traj[step - 1], traj[step]
            mid = (z + z_next) / 2.0
            f = np.concatenate(equations_of_motion(datum, TodaPoint(q=mid[:n], p=mid[n:]), k))
            assert np.max(np.abs(z_next - z - dt * f)) <= MIDPOINT_TOL
        reference = reference_flow(datum, point, k, dt, 1000)
        assert np.max(np.abs(traj - reference)) <= 1e-11


FLOW_ALGEBRAS = [("A", 4), ("A", 8), ("B", 4), ("C", 6), ("D", 5), ("D", 8)]


def test_windows_settle_a_thousand_steps_in_about_a_hundred_kernel_calls(monkeypatch):
    # Windows grow from one step to WINDOW_CAP, and each settles in a few
    # sweeps of one kernel call over all its rows.  Measured at these six
    # draws: 79-99 calls and 6.8-8.7 row evaluations per step; the
    # sequential loop made 1000-1100 calls of one row each.
    calls = rows = 0
    bind = toda._vector_field

    def counted_binding(datum, k):
        kernel = bind(datum, k)

        def counted(q, p, out):
            nonlocal calls, rows
            calls += 1
            rows += len(q)
            return kernel(q, p, out)

        return counted

    monkeypatch.setattr(toda, "_vector_field", counted_binding)
    for fam, n in FLOW_ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        point = sample_flow_toda(datum, spawn_rng(67, n))
        calls = rows = 0
        integrate_flow(datum, point, quadratic_index(datum), dt=1e-3, steps=1000)
        assert calls <= 120, f"{fam}{n}: {calls} kernel calls over 1000 steps"
        assert rows <= 9 * 1000, f"{fam}{n}: {rows} row evaluations over 1000 steps"


def test_the_kernel_sees_a_settled_row_only_at_the_start(monkeypatch):
    # f(z_0) is evaluated once, before the first window; every later window
    # starts from the last increment of its predecessor's final sweep, so
    # no other kernel call sees a row of the trajectory.  An Euler start
    # per window would evaluate each window's z_0, over ten times here.
    inputs = []
    bind = toda._vector_field

    def recording_binding(datum, k):
        kernel = bind(datum, k)

        def recording(q, p, out):
            inputs.append(np.hstack([q, p]))
            return kernel(q, p, out)

        return recording

    monkeypatch.setattr(toda, "_vector_field", recording_binding)
    for fam, n in FLOW_ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        inputs.clear()
        traj = integrate_flow(datum, sample_flow_toda(datum, spawn_rng(0, 0)), quadratic_index(datum), dt=1e-3, steps=1000)
        settled = {row.tobytes() for row in traj}
        hits = [i for i, rows in enumerate(inputs) if any(row.tobytes() in settled for row in rows)]
        assert hits == [0], f"{fam}{n}: calls {hits[:5]} of {len(inputs)} evaluate a trajectory row"
        assert np.array_equal(inputs[0], traj[:1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_start_field_overflow_is_a_bad_input_and_its_dt_scaling_a_step_failure():
    # A2 at q = 0, p = (100, -100): f(z_0) is finite, but dt * f(z_0)
    # overflows, which is the flow diverging in step 1.
    a2 = build_root_datum(AlgebraType("A", 2))
    with pytest.raises(StepFailureError, match=r"^flow diverged at step 1: overflow"):
        integrate_flow(a2, TodaPoint(q=[0.0, 0.0], p=[100.0, -100.0]), 2, dt=1e308, steps=3)
    # So is a first midpoint z_0 + z_1 past float64 where f(z_0) is finite.
    with pytest.raises(StepFailureError, match=r"^flow diverged at step 1: overflow"):
        integrate_flow(a2, TodaPoint(q=[0.0, 0.0], p=[1e308, -1e308]), 2, dt=1e-3, steps=3)
    # B2 at q = (700, 0): the root weights are finite, but the H_1 field is
    # not; with no step to take the field is never evaluated.
    b2 = build_root_datum(AlgebraType("B", 2))
    point = TodaPoint(q=[700.0, 0.0], p=[0.0, 0.0])
    with pytest.raises(ValidationError, match=r"^vector field of H_1 overflows float64 at the start point: overflow"):
        integrate_flow(b2, point, 1, dt=1e-3, steps=3)
    assert integrate_flow(b2, point, 1, dt=1e-3, steps=0).shape == (1, 4)


@pytest.mark.parametrize(
    "fam,n,k,steps",
    [(fam, n, None, 1000) for fam, n in FLOW_ALGEBRAS] + [("A", 4, 3, 50), ("B", 4, 2, 50), ("C", 6, 3, 50), ("D", 5, 4, 50)],
)
def test_bound_field_flow_equals_the_public_field_loop(fam, n, k, steps):
    # The bound kernel over all midpoints of a trajectory in one batch
    # equals a loop of the checked public field over them, row by row: the
    # same bits on the Gram branch; the general branch's batched matrix
    # products may round differently (measured up to 6.4e-16 of the
    # field's size at D5 k=4).
    datum = build_root_datum(AlgebraType(fam, n))
    quadratic = k is None
    k = quadratic_index(datum) if quadratic else k
    traj = integrate_flow(datum, sample_flow_toda(datum, spawn_rng(89, n)), k, dt=1e-3, steps=steps)
    mid = (traj[:-1] + traj[1:]) * 0.5
    got = np.empty_like(mid)
    toda._vector_field(datum, k)(mid[:, :n], mid[:, n:], got)
    want = np.array([np.concatenate(equations_of_motion(datum, TodaPoint(q=row[:n], p=row[n:]), k)) for row in mid])
    if quadratic:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("fam,n,k", [("A", 4, 3), ("B", 4, 2), ("C", 6, 3), ("D", 5, 4)])
def test_window_flow_matches_the_sequential_loop_on_the_general_branch(fam, n, k):
    # The windows' fixed point is the step-by-step midpoint trajectory.
    datum = build_root_datum(AlgebraType(fam, n))
    point = sample_flow_toda(datum, spawn_rng(89, n))
    traj = integrate_flow(datum, point, k, dt=1e-3, steps=300)
    assert np.max(np.abs(traj - reference_flow(datum, point, k, 1e-3, 300))) <= 1e-11


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stiff_flow_shrinks_its_window_and_solves_every_step(seed, dt):
    # H_8 at D8 grows stiff along the flow: a fixed window of 0.064 time
    # units failed all six of these with "flow diverged at step 1".  The
    # window halves until its sweeps contract, so every step still solves
    # the midpoint equation to MIDPOINT_TOL.
    datum = build_root_datum(AlgebraType("D", 8))
    traj = integrate_flow(datum, sample_flow_toda(datum, spawn_rng(seed, 0)), 8, dt=dt, steps=1000)
    mid = (traj[:-1] + traj[1:]) * 0.5
    for z, z_next, m in zip(traj[:-1], traj[1:], mid):
        f = np.concatenate(equations_of_motion(datum, TodaPoint(q=m[:8], p=m[8:]), 8))
        assert np.max(np.abs(z_next - z - dt * f)) <= MIDPOINT_TOL


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_diverging_window_names_the_step_that_diverged():
    # A point of the seeded extreme-input grid (C2, p of size 1e5) whose
    # root weight leaves the float64 range during step 3.  Both two-step
    # windows (steps 2-3, then 3-4) fail and are redone one step at a time;
    # the one-step window at step 3 diverges and names it.
    datum = build_root_datum(AlgebraType("C", 2))
    point = TodaPoint(q=[-343.9574723386262, -265.7290460778939], p=[-29577.550846868977, 228114.14814695538])
    with pytest.raises(StepFailureError, match=r"^flow diverged at step 3: Lax root weight exp\(\(alpha_1, q\)\) overflows"):
        integrate_flow(datum, point, 1, dt=1e-3, steps=5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_flow_raises_step_failure():
    datum = build_root_datum(AlgebraType("C", 2))
    point = sample_flow_toda(datum, spawn_rng(0, 0))
    with pytest.raises(StepFailureError, match="diverged at step"):
        integrate_flow(datum, point, 1, dt=5.0, steps=50)
