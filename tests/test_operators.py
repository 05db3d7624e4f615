"""Operator-core tests: validation, spectral routines, partial trace,
fidelity, purifications."""
import math

import numpy as np
import pytest

from entrobound.entropy import von_neumann_entropy
from entrobound.errors import ValidationError
from entrobound.operators import (
    DensityMatrix,
    HermitianOperator,
    PureStateVector,
    SubsystemShape,
    aligned_purifications,
    eig_hermitian,
    fidelity,
    partial_trace,
    purify,
    tensor,
    trace_norm,
)
from conftest import random_density, random_hermitian, random_pure_vector


def _projector(vec: PureStateVector) -> DensityMatrix:
    """|v><v| of a pure state."""
    return DensityMatrix(np.outer(vec.vector, vec.vector.conj()))


BELL = np.zeros((4, 4))
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


class TestValidation:
    def test_hermitian_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.zeros((2, 3)))

    def test_hermitian_rejects_nonhermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_density_accepts_tiny_negative_noise(self):
        DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))

    def test_density_owns_a_read_only_copy(self, rng):
        source = random_density(rng, 4).matrix.copy()
        rho = DensityMatrix(source)
        assert not np.shares_memory(rho.matrix, source)
        assert not rho.matrix.flags.writeable
        assert not rho.spectrum.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
        kept, entropy_before = rho.matrix.copy(), von_neumann_entropy(rho)
        assert entropy_before < math.log(4) - 1e-3
        source[:] = np.eye(4) / 4
        assert np.array_equal(rho.matrix, kept)
        assert von_neumann_entropy(rho) == entropy_before

    def test_density_spectrum_is_its_eigvalsh(self, rng):
        rho = random_density(rng, 5)
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))

    def test_pure_vector_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureStateVector(np.array([1.0, 1.0]))

    def test_shape_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            SubsystemShape((2, 3)).check_matches(5)

    def test_shape_total_dim(self):
        assert SubsystemShape((2, 3, 4)).total_dim == 24


class TestSpectral:
    def test_eig_descending_and_reconstructs(self, rng):
        op = random_hermitian(rng, 6)
        w, v = eig_hermitian(op)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.allclose((v * w) @ v.conj().T, op.matrix, atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-12)

    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_trace_norm_matches_singular_values(self, rng):
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = (g + g.conj().T) / 2
        expected = float(np.sum(np.linalg.svd(m, compute_uv=False)))
        assert trace_norm(m) == pytest.approx(expected, abs=1e-10)


class TestComposite:
    def test_tensor_matches_kron(self, rng):
        a = random_hermitian(rng, 2).matrix
        b = random_hermitian(rng, 3).matrix
        c = random_hermitian(rng, 2).matrix
        assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))

    def test_partial_trace_product_state(self, rng):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        joint = DensityMatrix(np.kron(rho.matrix, sigma.matrix))
        left = partial_trace(joint, (2, 3), (0,))
        right = partial_trace(joint, (2, 3), (1,))
        assert np.allclose(left.matrix, rho.matrix, atol=1e-12)
        assert np.allclose(right.matrix, sigma.matrix, atol=1e-12)

    def test_partial_trace_bell_is_maximally_mixed(self):
        rho = DensityMatrix(BELL)
        red = partial_trace(rho, (2, 2), (0,))
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_matches_index_loop(self, rng):
        # Independent element-wise oracle on a 2x3 system.
        rho = random_density(rng, 6)
        arr = rho.matrix.reshape(2, 3, 2, 3)
        keep_first = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    keep_first[i, j] += arr[i, k, j, k]
        keep_second = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for k in range(2):
                    keep_second[i, j] += arr[k, i, k, j]
        assert np.allclose(partial_trace(rho, (2, 3), (0,)).matrix, keep_first, atol=1e-12)
        assert np.allclose(partial_trace(rho, (2, 3), (1,)).matrix, keep_second, atol=1e-12)

    def test_partial_trace_three_factors(self, rng):
        rho = random_density(rng, 8)
        shape = (2, 2, 2)
        ab = partial_trace(rho, shape, (0, 1))
        a_direct = partial_trace(rho, shape, (0,))
        a_via_ab = partial_trace(ab, (2, 2), (0,))
        assert np.allclose(a_direct.matrix, a_via_ab.matrix, atol=1e-12)


class TestFidelityAndPurification:
    def test_fidelity_pure_states_is_overlap(self, rng):
        u = random_pure_vector(rng, 4)
        v = random_pure_vector(rng, 4)
        rho = DensityMatrix(np.outer(u, u.conj()))
        sigma = DensityMatrix(np.outer(v, v.conj()))
        assert fidelity(rho, sigma) == pytest.approx(abs(np.vdot(u, v)), abs=1e-10)

    def test_fidelity_identical_and_orthogonal(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.0, 1.0]))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rho, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_pure_vs_maximally_mixed(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        mixed = DensityMatrix(np.eye(2) / 2)
        assert fidelity(rho, mixed) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_fidelity_commuting_states(self, rng):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        rho = DensityMatrix(np.diag(p))
        sigma = DensityMatrix(np.diag(q))
        assert fidelity(rho, sigma) == pytest.approx(float(np.sum(np.sqrt(p * q))), abs=1e-10)

    def test_purify_marginal_recovers_state(self, rng):
        rho = random_density(rng, 4)
        vec = purify(rho)
        assert vec.dim == 16
        marg = partial_trace(_projector(vec), (4, 4), (0,))
        assert np.allclose(marg.matrix, rho.matrix, atol=1e-10)

    def test_aligned_purifications_optimal_overlap_is_fidelity(self, rng):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        phi, psi, delta = aligned_purifications(rho, sigma)
        c = abs(np.vdot(phi.vector, psi.vector))
        f = fidelity(rho, sigma)
        assert c == pytest.approx(f, abs=1e-10)
        assert delta == pytest.approx(math.sqrt(1 - f * f), abs=1e-9)
        for vec, target in ((phi, rho), (psi, sigma)):
            marg = partial_trace(_projector(vec), (3, 3), (0,))
            assert np.allclose(marg.matrix, target.matrix, atol=1e-10)

    def test_aligned_purifications_detuned_overlap(self, rng):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        f = fidelity(rho, sigma)
        target = 0.5 * f
        phi, psi, delta = aligned_purifications(rho, sigma, overlap=target)
        c = abs(np.vdot(phi.vector, psi.vector))
        assert c == pytest.approx(target, abs=1e-9)
        for vec, src in ((phi, rho), (psi, sigma)):
            marg = partial_trace(_projector(vec), (3, 3), (0,))
            assert np.allclose(marg.matrix, src.matrix, atol=1e-10)

    def test_aligned_purifications_rejects_overlap_above_fidelity(self, rng):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        with pytest.raises(ValidationError):
            aligned_purifications(rho, sigma, overlap=fidelity(rho, sigma) + 0.1)

    def test_aligned_purifications_dim_mismatch(self, rng):
        with pytest.raises(ValidationError):
            aligned_purifications(random_density(rng, 2), random_density(rng, 3))
