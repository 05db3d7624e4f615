"""Entropic functionals: frozen values, dual formulas, infinity rules."""
import math

import numpy as np
import pytest

from entrobound.ensembles import Ensemble, qc_state
from entrobound.entropy import (
    EIGENVALUE_CUTOFF,
    _eta,
    binary_entropy,
    conditional_entropy,
    holevo_chi,
    mutual_information,
    relative_entropy,
    spectrum_entropy,
    thermal_entropy,
    von_neumann_entropy,
)
from entrobound.errors import ValidationError
from entrobound.operators import DensityMatrix, SubsystemShape, partial_trace
from conftest import random_density

BELL = DensityMatrix(
    np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.5],
        ]
    )
)


class TestScalarFunctions:
    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_binary_entropy_frozen_quarter(self):
        expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert binary_entropy(0.25) == pytest.approx(expected, abs=1e-15)

    def test_binary_entropy_symmetry(self):
        for p in (0.01, 0.2, 0.37, 0.49):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)

    def test_binary_entropy_domain(self):
        with pytest.raises(ValidationError):
            binary_entropy(-0.01)
        with pytest.raises(ValidationError):
            binary_entropy(1.01)

    def test_thermal_entropy_frozen(self):
        assert thermal_entropy(0.0) == 0.0
        assert thermal_entropy(1.0) == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_thermal_entropy_dual_identity(self):
        # g(x) = (1 + x) h2(x / (1 + x)); past x ~ 1e3 the h2 form loses
        # digits to cancellation, so the strict check stops at 500.
        for x in np.concatenate([np.linspace(1e-6, 1, 40), np.geomspace(1, 500, 40)]):
            lhs = thermal_entropy(float(x))
            rhs = (1 + x) * binary_entropy(x / (1 + x))
            assert abs(lhs - rhs) <= 1e-12

    def test_thermal_entropy_dual_identity_extreme_range(self):
        for x in np.geomspace(500, 1e6, 20):
            lhs = thermal_entropy(float(x))
            rhs = (1 + x) * binary_entropy(x / (1 + x))
            assert abs(lhs - rhs) <= 1e-9 * lhs

    @pytest.mark.parametrize("x", [199.5, 39999.5, 999999.5])
    def test_thermal_entropy_matches_its_large_x_series(self, x):
        # g(x) = ln x + 1 + sum_{k>=1} (-1)^{k+1} x^-k / (k (k+1)), summed
        # until the terms fall below 1e-17.  The form (x+1) ln(x+1) - x ln x
        # is off by 2.6e-14, 3.9e-12 and 1.26e-10 relative at these points.
        terms = [math.log(x), 1.0]
        k = 1
        while (term := x**-k / (k * (k + 1))) >= 1e-17:
            terms.append(term if k % 2 else -term)
            k += 1
        assert thermal_entropy(x) == pytest.approx(math.fsum(terms), rel=1e-14, abs=0.0)

    def test_thermal_entropy_domain(self):
        with pytest.raises(ValidationError):
            thermal_entropy(-0.1)


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0, 0.0]))) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(5) / 5)) == pytest.approx(
            math.log(5), abs=1e-12
        )

    def test_diagonal_matches_shannon(self, rng):
        p = rng.dirichlet(np.ones(6))
        expected = float(-np.sum(p * np.log(p)))
        assert von_neumann_entropy(DensityMatrix(np.diag(p))) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("kind", ["random", "rank-1", "near-zero-padded"])
    def test_spectrum_entropy_is_bit_identical_to_the_masked_sum(self, rng, kind):
        # The masked form _eta kept by binary_entropy is the reference; on
        # the eigenvalues above the cutoff, all > 0, the plain sum agrees
        # bit for bit.
        for _ in range(20):
            if kind == "random":
                w = np.sort(rng.dirichlet(np.ones(16)))
            elif kind == "rank-1":
                w = np.zeros(16)
                w[-1] = 1.0
            else:
                w = rng.dirichlet(np.ones(5))
                pad = rng.choice([0.0, -1e-17, 1e-18, 1e-13, 3e-12], size=11)
                w = np.sort(np.concatenate([w * (1.0 - pad.sum()), pad]))
            cut = EIGENVALUE_CUTOFF * float(np.max(np.abs(w)))
            expected = float(_eta(w[w > cut]).sum())
            got = spectrum_entropy(w)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (got, expected)

    def test_unitary_invariance(self, rng):
        rho = random_density(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rotated = DensityMatrix(q @ rho.matrix @ q.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


class TestRelativeEntropy:
    def test_self_distance_zero(self, rng):
        rho = random_density(rng, 4)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_against_maximally_mixed(self, rng):
        rho = random_density(rng, 5)
        expected = math.log(5) - von_neumann_entropy(rho)
        got = relative_entropy(rho, DensityMatrix(np.eye(5) / 5))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_classical_diagonal(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        expected = float(np.sum(p * (np.log(p) - np.log(q))))
        got = relative_entropy(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_support_violation_is_inf(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        sigma = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        assert relative_entropy(rho, sigma) == math.inf

    def test_nested_support_is_finite(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.75, 0.25]))
        assert relative_entropy(rho, sigma) == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(20):
            rho = random_density(rng, 3)
            sigma = random_density(rng, 3)
            assert relative_entropy(rho, sigma) >= 0.0

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValidationError):
            relative_entropy(random_density(rng, 2), random_density(rng, 3))


class TestBipartite:
    def test_mutual_information_bell(self):
        assert mutual_information(BELL, (2, 2)) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_mutual_information_product_is_zero(self, rng):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        joint = DensityMatrix(np.kron(rho.matrix, sigma.matrix))
        assert mutual_information(joint, (2, 3)) == pytest.approx(0.0, abs=1e-10)

    def test_mutual_information_dual_formula(self, rng):
        # I(A:B) equals the relative entropy to the product of marginals.
        rho = random_density(rng, 9)
        shape = SubsystemShape((3, 3))
        a = partial_trace(rho, shape, (0,))
        b = partial_trace(rho, shape, (1,))
        product = DensityMatrix(np.kron(a.matrix, b.matrix))
        assert mutual_information(rho, shape) == pytest.approx(
            relative_entropy(rho, product), abs=1e-8
        )

    def test_conditional_entropy_bell(self):
        assert conditional_entropy(BELL, (2, 2)) == pytest.approx(-math.log(2), abs=1e-12)

    def test_conditional_entropy_product(self, rng):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 2)
        joint = DensityMatrix(np.kron(rho.matrix, sigma.matrix))
        assert conditional_entropy(joint, (3, 2)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )

    def test_conditional_entropy_dual_formula(self, rng):
        # H(A) - I(A:B) equals H(AB) - H(B) in finite dimensions.
        rho = random_density(rng, 16)
        shape = SubsystemShape((4, 4))
        direct = conditional_entropy(rho, shape)
        h_ab = von_neumann_entropy(rho)
        h_b = von_neumann_entropy(partial_trace(rho, shape, (1,)))
        assert direct == pytest.approx(h_ab - h_b, abs=1e-8)

    def test_shape_validation(self, rng):
        with pytest.raises(ValidationError):
            mutual_information(random_density(rng, 8), (2, 2, 2))
        with pytest.raises(ValidationError):
            conditional_entropy(random_density(rng, 6), (2, 2))


class TestHolevo:
    def test_identical_states_zero(self, rng):
        rho = random_density(rng, 3)
        ens = Ensemble((0.3, 0.7), (rho, rho))
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-10)

    def test_dual_formula(self, rng):
        # chi = H(avg) - sum_i p_i H(rho_i) when all terms are finite.
        states = tuple(random_density(rng, 4) for _ in range(3))
        weights = tuple(rng.dirichlet(np.ones(3)))
        ens = Ensemble(weights, states)
        avg = ens.average()
        expected = von_neumann_entropy(avg) - sum(
            p * von_neumann_entropy(s) for p, s in zip(weights, states)
        )
        assert holevo_chi(ens) == pytest.approx(expected, abs=1e-8)

    def test_orthogonal_pure_states(self):
        states = (DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0])))
        ens = Ensemble((0.5, 0.5), states)
        assert holevo_chi(ens) == pytest.approx(math.log(2), abs=1e-12)

    def test_chi_equals_label_mutual_information(self, rng):
        # chi of an ensemble equals I(B:C) of its qc embedding.
        states = tuple(random_density(rng, 3) for _ in range(4))
        weights = tuple(rng.dirichlet(np.ones(4)))
        ens = Ensemble(weights, states)
        joint = qc_state(ens)
        assert holevo_chi(ens) == pytest.approx(
            mutual_information(joint, (3, 4)), abs=1e-8
        )
