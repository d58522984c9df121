"""Finite-difference brackets: canonical pairs, Leibniz, commuting families."""

import numpy as np
import pytest

from todadual.errors import ValidationError
from todadual.goldfish import GoldfishPoint
from todadual.poisson import (
    BRACKET_STEP,
    ObservableHandle,
    central_difference,
    commutativity_matrix,
    flatten_point,
    observable_function,
    observable_value,
    poisson_bracket,
    poisson_bracket_functions,
)
from todadual.rootsys import AlgebraType, build_root_datum
from todadual.sampling import sample_goldfish, sample_toda, spawn_rng
from todadual.toda import TodaPoint, toda_hamiltonian


def test_handle_validation():
    alg = AlgebraType("C", 2)
    with pytest.raises(ValidationError):
        ObservableHandle("fourier", 1, alg)
    with pytest.raises(ValidationError):
        ObservableHandle("toda", 3, alg)
    with pytest.raises(ValidationError):
        ObservableHandle("toda", 0, alg)
    # family string is case-normalized
    assert ObservableHandle("Toda", 1, alg).family == "toda"


def test_flatten_point_order():
    tp = TodaPoint(q=[1.0, 2.0], p=[3.0, 4.0])
    assert np.array_equal(flatten_point(tp), [3.0, 4.0, 1.0, 2.0])
    gp = GoldfishPoint(qhat=[2.0, 1.0], phat=[5.0, 6.0])
    assert np.array_equal(flatten_point(gp), [5.0, 6.0, 2.0, 1.0])
    with pytest.raises(ValidationError):
        flatten_point(np.zeros(4))


def test_observable_value_dispatch():
    datum = build_root_datum(AlgebraType("C", 2))
    tp = sample_toda(datum, spawn_rng(19, 0))
    h = ObservableHandle("toda", 1, datum.algebra)
    assert observable_value(datum, h, tp) == toda_hamiltonian(datum, tp, 1)
    other = build_root_datum(AlgebraType("C", 3))
    with pytest.raises(ValidationError):
        observable_value(other, h, tp)


def test_self_bracket_is_exactly_zero():
    datum = build_root_datum(AlgebraType("B", 2))
    tp = sample_toda(datum, spawn_rng(19, 1))
    h = ObservableHandle("toda", 1, datum.algebra)
    assert poisson_bracket(datum, h, h, tp) == 0.0


def test_mixed_family_bracket_rejected():
    datum = build_root_datum(AlgebraType("B", 2))
    tp = sample_toda(datum, spawn_rng(19, 2))
    f = ObservableHandle("toda", 1, datum.algebra)
    g = ObservableHandle("goldfish", 2, datum.algebra)
    with pytest.raises(ValidationError):
        poisson_bracket(datum, f, g, tp)


def test_coordinate_brackets_carry_family_scale():
    # {q_i, p_j} = delta_ij / s on the flat layout (p first, q second)
    for fam, want in [("A", 1.0), ("C", 0.5)]:
        datum = build_root_datum(AlgebraType(fam, 2))
        z = np.array([0.3, -0.2, 0.8, 0.1])
        for i in range(2):
            for j in range(2):
                qi = lambda w, i=i: float(w[2 + i])
                pj = lambda w, j=j: float(w[j])
                got = poisson_bracket_functions(datum, qi, pj, z)
                expect = want if i == j else 0.0
                assert abs(got - expect) < 1e-9


def test_leibniz_identity():
    # {f, g h} = {f, g} h + g {f, h} with non-commuting test observables
    datum = build_root_datum(AlgebraType("A", 2))
    z = flatten_point(sample_toda(datum, spawn_rng(37, 0)))
    n = 2
    f = lambda w: toda_hamiltonian(datum, TodaPoint(q=w[n:], p=w[:n]), 2)
    g = lambda w: float(w[n])  # q_1
    h = lambda w: float(w[1] ** 2 + w[n])  # p_2^2 + q_1
    gh = lambda w: g(w) * h(w)
    lhs = poisson_bracket_functions(datum, f, gh, z)
    rhs = poisson_bracket_functions(datum, f, g, z) * h(z)
    rhs += g(z) * poisson_bracket_functions(datum, f, h, z)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_chain_hamiltonians_commute():
    for fam, n in [("A", 3), ("B", 2), ("C", 3), ("D", 3), ("A", 8), ("B", 8), ("C", 8), ("D", 8)]:
        datum = build_root_datum(AlgebraType(fam, n))
        tp = sample_toda(datum, spawn_rng(43, n))
        M = commutativity_matrix(datum, "toda", tp)
        assert M.shape == (n, n)
        assert np.max(np.abs(np.diag(M))) == 0.0
        assert M.max() < 1e-6, f"{fam}{n}: {M.max():.3e}"


def test_dual_hamiltonians_commute():
    for fam, n in [("A", 3), ("B", 2), ("C", 2), ("D", 3), ("A", 8), ("B", 8), ("C", 8), ("D", 8)]:
        datum = build_root_datum(AlgebraType(fam, n))
        gp = sample_goldfish(datum, spawn_rng(43, 100 + n))
        M = commutativity_matrix(datum, "goldfish", gp)
        assert M.max() < 1e-6, f"{fam}{n}: {M.max():.3e}"


def test_commutativity_matrix_matches_pairwise_brackets():
    # the one-stencil Jacobian pairing reproduces every normalized bracket
    for fam, n in [("A", 3), ("B", 2), ("C", 3), ("D", 3)]:
        datum = build_root_datum(AlgebraType(fam, n))
        points = {
            "toda": sample_toda(datum, spawn_rng(47, n)),
            "goldfish": sample_goldfish(datum, spawn_rng(47, 100 + n)),
        }
        for family, point in points.items():
            handles = [ObservableHandle(family, k, datum.algebra) for k in range(1, n + 1)]
            z = flatten_point(point)
            norms = [
                np.linalg.norm(central_difference(observable_function(datum, h), z, BRACKET_STEP))
                for h in handles
            ]
            M = commutativity_matrix(datum, family, point)
            for j in range(n):
                for k in range(n):
                    bracket = poisson_bracket(datum, handles[j], handles[k], point)
                    want = abs(bracket) / (norms[j] * norms[k])
                    assert abs(M[j, k] - want) < 1e-12, f"{fam}{n} {family} ({j}, {k})"


def test_bad_phase_vector_length():
    datum = build_root_datum(AlgebraType("A", 2))
    with pytest.raises(ValidationError):
        poisson_bracket_functions(datum, lambda z: 0.0, lambda z: 0.0, np.zeros(3))
