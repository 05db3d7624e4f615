"""Purified mixing decomposition: certificates, Jordan vectors, energy chain."""
import math

import numpy as np
import pytest

from entrobound.afw import _jordan_pair, afw_decompose
from entrobound.bounds import continuity_bound
from entrobound.errors import ValidationError
from entrobound.gibbs import SpectrumModel
from entrobound.operators import (
    DensityMatrix,
    HermitianOperator,
    PureStateVector,
    fidelity,
    partial_trace,
    purify,
    trace_norm,
)
from conftest import random_density, random_pure_vector

H4 = HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]))


def overlapping_pair(c: float, dim: int = 4):
    """Two real unit vectors with inner product exactly c."""
    u = np.zeros(dim)
    v = np.zeros(dim)
    u[0] = 1.0
    v[0] = c
    v[1] = math.sqrt(1.0 - c * c)
    return PureStateVector(u), PureStateVector(v)


def projector(state: PureStateVector) -> np.ndarray:
    return np.outer(state.vector, state.vector.conj())


def diagonal_states(rng, dim):
    p = rng.dirichlet(np.ones(dim) * 2.0)
    q = rng.dirichlet(np.ones(dim) * 2.0)
    return DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))


class TestJordanVectors:
    def test_closed_form_coefficients_frozen(self):
        # At overlap c = 0.6 (delta = 0.8) the plus vector is
        # cos(a/2) phi + sin(a/2) (psi - c phi) / delta, a = atan2(-c, delta),
        # which is p+ phi + q+ psi with p+ = c / (delta sqrt(2 (1 - delta))) and
        # q+ = -(1 - delta) / (delta sqrt(2 (1 - delta))).
        phi, psi = overlapping_pair(0.6)
        _, _, gp, _ = _jordan_pair(phi, psi)
        p_plus = 1.1858541225631423
        q_plus = -0.3952847075210474
        expected = p_plus * phi.vector + q_plus * psi.vector
        sign = np.sign(np.real(np.vdot(expected, gp)))
        assert np.allclose(gp * sign, expected, atol=1e-9)

    def test_matches_dense_eigenvectors(self, rng):
        # The closed form must agree with numpy's eigendecomposition of
        # phi phi+ - psi psi+ up to phase.
        for _ in range(10):
            u = random_pure_vector(rng, 5)
            v = random_pure_vector(rng, 5)
            phase = np.vdot(u, v)
            if abs(phase) > 1e-12:
                v = v * (phase.conjugate() / abs(phase))
            phi, psi = PureStateVector(u), PureStateVector(v)
            _, _, gp, gm = _jordan_pair(phi, psi)
            m = np.outer(u, u.conj()) - np.outer(psi.vector, psi.vector.conj())
            w, vecs = np.linalg.eigh(m)
            delta = 0.5 * trace_norm(m)
            assert w[-1] == pytest.approx(delta, abs=1e-10)
            assert w[0] == pytest.approx(-delta, abs=1e-10)
            for got, dense in ((gp, vecs[:, -1]), (gm, vecs[:, 0])):
                phase = np.vdot(dense, got)
                assert abs(abs(phase) - 1.0) < 1e-8
                assert np.allclose(got, dense * (phase / abs(phase)), atol=1e-8)

    def test_eigenvalue_equations(self, rng):
        u = random_pure_vector(rng, 6)
        v = random_pure_vector(rng, 6)
        phase = np.vdot(u, v)
        if abs(phase) > 1e-12:
            v = v * (phase.conjugate() / abs(phase))
        phi, psi = PureStateVector(u), PureStateVector(v)
        c, delta, gp, gm = _jordan_pair(phi, psi)
        m = np.outer(u, u.conj()) - np.outer(v, v.conj())
        assert c == pytest.approx(abs(np.vdot(u, v)), abs=1e-12)
        assert delta == pytest.approx(math.sqrt(1 - c * c), abs=1e-12)
        assert np.allclose(m @ gp, delta * gp, atol=1e-9)
        assert np.allclose(m @ gm, -delta * gm, atol=1e-9)

    def test_orthogonal_pair_is_its_own_jordan_basis(self):
        # At c = 0 the half angle is 0: gamma+ = phi and gamma- = psi.
        phi, psi = overlapping_pair(0.0)
        _, _, gp, gm = _jordan_pair(phi, psi)
        assert np.array_equal(gp, phi.vector)
        assert np.array_equal(gm, psi.vector)

    def test_rejects_identical_states(self):
        phi, _ = overlapping_pair(0.6)
        with pytest.raises(ValidationError):
            _jordan_pair(phi, phi)


class TestAfwDecomposeOptimal:
    def test_diagonal_case_matches_dense_oracle(self, rng):
        # For commuting diagonal states the whole construction can be
        # rebuilt from scratch: purifications sum sqrt(p_i) |ii>, the
        # difference operator eigendecomposed with numpy, marginals by
        # hand.  Every certificate field must match.
        rho, sigma = diagonal_states(rng, 4)
        cert = afw_decompose(rho, sigma, H4, energy_limit=3.0)

        p = np.real(np.diag(rho.matrix))
        q = np.real(np.diag(sigma.matrix))
        c_expected = float(np.sum(np.sqrt(p * q)))
        assert cert.overlap == pytest.approx(c_expected, abs=1e-9)
        assert cert.delta == pytest.approx(math.sqrt(1 - c_expected**2), abs=1e-9)

        phi = np.zeros(16)
        psi = np.zeros(16)
        for i in range(4):
            phi[i * 4 + i] = math.sqrt(p[i])
            psi[i * 4 + i] = math.sqrt(q[i])
        m = np.outer(phi, phi) - np.outer(psi, psi)
        w, vecs = np.linalg.eigh(m)
        delta = w[-1]
        tau_hat_plus = np.outer(vecs[:, -1], vecs[:, -1])
        tau_hat_minus = np.outer(vecs[:, 0], vecs[:, 0])
        assert np.allclose(projector(cert.gamma_plus), tau_hat_plus, atol=1e-8)
        assert np.allclose(projector(cert.gamma_minus), tau_hat_minus, atol=1e-8)

        for hat, field in ((tau_hat_plus, cert.tau_plus), (tau_hat_minus, cert.tau_minus)):
            marg = partial_trace(DensityMatrix(hat), (4, 4), (0,))
            assert np.allclose(field.matrix, marg.matrix, atol=1e-8)

        assert cert.epsilon_used == pytest.approx(0.5 * delta * delta, abs=1e-9)

    def test_mixing_identity(self, rng):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        cert = afw_decompose(rho, sigma, H4, energy_limit=3.0)
        lhs = (projector(cert.phi) + cert.delta * projector(cert.gamma_minus)) / (1 + cert.delta)
        rhs = (projector(cert.psi) + cert.delta * projector(cert.gamma_plus)) / (1 + cert.delta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
        assert cert.mixing_residual <= 1e-9

    def test_optimal_mode_uses_fidelity(self, rng):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        cert = afw_decompose(rho, sigma, h, energy_limit=2.0)
        assert cert.overlap == pytest.approx(fidelity(rho, sigma), abs=1e-9)

    def test_rejects_identical_states(self, rng):
        rho = random_density(rng, 3)
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ValidationError):
            afw_decompose(rho, rho, h, energy_limit=2.0)

    def test_orthogonal_supports_decompose(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.0, 0.0, 0.5, 0.5]))
        cert = afw_decompose(rho, sigma, H4, energy_limit=3.0)
        assert cert.overlap == 0.0
        assert cert.delta == 1.0
        assert cert.mixing_residual <= 1e-9
        assert np.allclose(cert.tau_plus.matrix, rho.matrix, atol=1e-12)
        assert np.allclose(cert.tau_minus.matrix, sigma.matrix, atol=1e-12)

    def test_no_joint_sized_eigh(self, rng, monkeypatch):
        # At d = 8 the Jordan parts stay vectors and their marginals are
        # 8 x 8 products, so no 64 x 64 matrix is decomposed.
        rho, sigma = nearby_pair(rng, 8, 0.1)
        h = HermitianOperator(np.diag(np.arange(8.0)))
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(a)[0]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        afw_decompose(rho, sigma, h, energy_limit=7.0)
        afw_decompose(rho, sigma, h, energy_limit=7.0, epsilon=0.2)
        assert {name for name, _ in calls} == {"eigh", "eigvalsh", "svd"}
        assert all(n == 8 for _, n in calls), calls


def nearby_pair(rng, dim, spread):
    """A pair with trace distance at most spread (mixture construction)."""
    rho = random_density(rng, dim)
    other = random_density(rng, dim)
    sigma = DensityMatrix((1 - spread) * rho.matrix + spread * other.matrix)
    return rho, sigma


class TestAfwDecomposeDetuned:
    def test_delta_pinned_to_sqrt_two_epsilon(self, rng):
        rho, sigma = nearby_pair(rng, 4, 0.15)
        eps = 0.2
        cert = afw_decompose(rho, sigma, H4, energy_limit=3.0, epsilon=eps)
        assert cert.delta == pytest.approx(math.sqrt(2 * eps), abs=1e-9)
        assert cert.epsilon_used == eps

    def test_energy_chain(self, rng):
        # Tr H tau(+/-) <= (1 + c) E / delta^2 <= 2 E / delta^2 = E / eps.
        for _ in range(25):
            rho, sigma = nearby_pair(rng, 4, rng.uniform(0.02, 0.3))
            dist = 0.5 * trace_norm(rho.matrix - sigma.matrix)
            eps = min(0.5, dist * rng.uniform(1.0, 1.4) + 0.01)
            cert = afw_decompose(rho, sigma, H4, energy_limit=3.0, epsilon=eps)
            exact = cert.energy_bound_exact
            coarse = cert.energy_bound_coarse
            assert cert.energy_tau_plus <= exact + 1e-8
            assert cert.energy_tau_minus <= exact + 1e-8
            assert exact <= coarse + 1e-8
            assert coarse == pytest.approx(3.0 / eps, rel=1e-9)

    def test_epsilon_one_half_decomposes(self, rng):
        # epsilon = 1/2 pins the overlap to 0, where the half angle is 0.
        for _ in range(5):
            rho, sigma = nearby_pair(rng, 4, 0.3)
            cert = afw_decompose(rho, sigma, H4, energy_limit=3.0, epsilon=0.5)
            assert cert.overlap == pytest.approx(0.0, abs=1e-9)
            assert cert.delta == pytest.approx(1.0, abs=1e-12)
            assert cert.mixing_residual <= 1e-9

    def test_rejects_epsilon_below_trace_distance(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValidationError):
            afw_decompose(rho, sigma, H4, energy_limit=3.0, epsilon=0.3)

    def test_rejects_epsilon_out_of_range(self, rng):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        with pytest.raises(ValidationError):
            afw_decompose(rho, sigma, H4, energy_limit=3.0, epsilon=0.7)
        with pytest.raises(ValidationError):
            afw_decompose(rho, sigma, H4, energy_limit=3.0, epsilon=0.0)

    def test_rejects_energy_above_limit(self):
        rho = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]))
        sigma = DensityMatrix(np.diag([0.0, 0.0, 1.0, 0.0]))
        with pytest.raises(ValidationError):
            afw_decompose(rho, sigma, H4, energy_limit=1.5)


class TestEnergyControl:
    def test_never_exceeds_coarse_bound(self, rng):
        # Uhlmann-optimal pair: the coarse control at eps = delta^2 / 2 is
        # 2 E / delta^2, and (1 + c) E / delta^2 never exceeds it.
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        cert = afw_decompose(rho, sigma, H4, energy_limit=3.0)
        assert cert.energy_bound_coarse == pytest.approx(2 * 3.0 / cert.delta**2, rel=1e-12)
        assert cert.energy_bound_exact <= cert.energy_bound_coarse

    def test_rejects_wrong_dims(self, rng):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 3)
        with pytest.raises(ValidationError):
            afw_decompose(rho, sigma, H4, energy_limit=3.0)


def _energy(h: HermitianOperator, state: DensityMatrix) -> float:
    return float(np.real(np.trace(h.matrix @ state.matrix)))


class TestEnergyConvention:
    """The energy control is read from the ground energy E0 of H."""

    LEVELS = np.arange(4.0)
    ENERGY_FIELDS = ("energy_limit", "energy_tau_plus", "energy_tau_minus",
                     "energy_bound_exact", "energy_bound_coarse")

    def _pair(self, rng, shift, energy, spread=0.12):
        # A pair at trace distance at most spread whose energies on
        # levels 0..3 + shift are at most energy.
        h = HermitianOperator(np.diag(self.LEVELS + shift))
        while True:
            rho, sigma = nearby_pair(rng, 4, spread)
            if max(_energy(h, rho), _energy(h, sigma)) <= energy:
                return rho, sigma

    @pytest.mark.parametrize("shift", [-10.0, -0.5, 3.7, 100.0])
    @pytest.mark.parametrize("epsilon", [None, 0.2])
    def test_shift_moves_every_energy_field(self, rng, shift, epsilon):
        rho, sigma = self._pair(rng, 0.0, 1.6)
        base = afw_decompose(rho, sigma, H4, 1.6, epsilon=epsilon)
        h = HermitianOperator(np.diag(self.LEVELS + shift))
        cert = afw_decompose(rho, sigma, h, 1.6 + shift, epsilon=epsilon)
        assert cert.overlap == base.overlap
        assert cert.delta == base.delta
        assert cert.mixing_residual == base.mixing_residual
        assert np.array_equal(cert.gamma_plus.vector, base.gamma_plus.vector)
        assert np.array_equal(cert.gamma_minus.vector, base.gamma_minus.vector)
        for name in self.ENERGY_FIELDS:
            assert getattr(cert, name) == pytest.approx(getattr(base, name) + shift,
                                                        rel=1e-12), name
        assert cert.energy_tau_plus <= cert.energy_bound_exact
        assert cert.energy_tau_minus <= cert.energy_bound_exact

    def test_negative_ground_control_is_an_upper_bound(self, rng):
        # Levels 0..3 shifted by -10 at E = -9.4, eps = 0.2: (1 + c) E / delta^2
        # would read far below the ground energy -10.
        rho, sigma = self._pair(rng, -10.0, -9.4)
        h = HermitianOperator(np.diag(self.LEVELS - 10.0))
        cert = afw_decompose(rho, sigma, h, -9.4, epsilon=0.2)
        assert cert.energy_bound_exact >= -10.0
        assert cert.energy_tau_plus <= cert.energy_bound_exact
        assert cert.energy_tau_minus <= cert.energy_bound_exact
        assert cert.energy_bound_exact <= cert.energy_bound_coarse

    @pytest.mark.parametrize("shift", [0.0, -10.0, 3.7])
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.5])
    def test_coarse_control_is_the_bound_f_argument(self, rng, shift, epsilon):
        energy = 1.6 + shift
        rho, sigma = self._pair(rng, shift, energy, spread=0.04)
        h = HermitianOperator(np.diag(self.LEVELS + shift))
        model = SpectrumModel.explicit(np.linalg.eigvalsh(h.matrix))
        cert = afw_decompose(rho, sigma, h, energy, epsilon=epsilon)
        f_argument = continuity_bound("entropy", model, epsilon, energy).f_argument
        assert cert.energy_bound_coarse == pytest.approx(f_argument, rel=1e-12)
