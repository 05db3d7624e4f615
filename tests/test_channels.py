"""Kraus channels, Stinespring dilation, channel information quantities."""
import math

import numpy as np
import pytest

from entrobound.channels import (
    Channel,
    amplitude_damping_channel,
    apply_channel,
    apply_local,
    attenuator_channel,
    channel_mi,
    channel_zoo,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    make_channel,
    output_holevo,
    stinespring,
)
from entrobound.ensembles import Ensemble
from entrobound.entropy import holevo_chi, von_neumann_entropy
from entrobound.errors import ValidationError
from entrobound.operators import DensityMatrix, SubsystemShape, partial_trace, tensor
from conftest import random_density


class TestChannelContainer:
    def test_rejects_empty_kraus_list(self):
        with pytest.raises(ValidationError):
            Channel(())

    def test_rejects_incomplete_kraus_family(self):
        with pytest.raises(ValidationError, match="identity"):
            Channel((0.5 * np.eye(2),))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValidationError):
            Channel((np.eye(2), np.eye(3)))

    def test_rectangular_channel_dims(self):
        # An isometry embedding a qubit into a qutrit is a valid channel.
        v = np.zeros((3, 2), dtype=complex)
        v[0, 0] = v[1, 1] = 1.0
        ch = Channel((v,))
        assert ch.dim_in == 2
        assert ch.dim_out == 3

    @pytest.mark.parametrize("kind,params", [
        ("identity", ()),
        ("dephasing", (0.3,)),
        ("depolarizing", (0.25,)),
        ("amplitude-damping", (0.35,)),
        ("attenuator", (0.8,)),
    ])
    def test_zoo_members_are_trace_preserving(self, kind, params, rng):
        ch = make_channel(kind, 4, params)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.abs(total - np.eye(4)).max() <= 1e-12
        out = apply_channel(ch, random_density(rng, 4))
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)


class TestNamedChannels:
    def test_full_dephasing_keeps_only_diagonal(self, rng):
        rho = random_density(rng, 3)
        out = apply_channel(dephasing_channel(1.0, 3), rho)
        assert np.allclose(out.matrix, np.diag(np.diag(rho.matrix)), atol=1e-12)

    def test_partial_dephasing_scales_off_diagonals(self, rng):
        rho = random_density(rng, 3)
        out = apply_channel(dephasing_channel(0.4, 3), rho)
        expected = 0.6 * rho.matrix + 0.4 * np.diag(np.diag(rho.matrix))
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_depolarizing_mixes_toward_uniform(self, rng):
        rho = random_density(rng, 4)
        out = apply_channel(depolarizing_channel(0.3, 4), rho)
        expected = 0.7 * rho.matrix + 0.3 * np.eye(4) / 4
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_attenuator_on_single_excitation(self):
        one = DensityMatrix(np.diag([0.0, 1.0, 0.0]))
        out = apply_channel(attenuator_channel(0.8, 3), one)
        assert np.allclose(out.matrix, np.diag([0.2, 0.8, 0.0]), atol=1e-12)

    def test_attenuator_preserves_vacuum(self):
        vac = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        out = apply_channel(attenuator_channel(0.37, 3), vac)
        assert np.allclose(out.matrix, vac.matrix, atol=1e-12)

    def test_amplitude_damping_is_attenuator_complement(self, rng):
        rho = random_density(rng, 4)
        a = apply_channel(amplitude_damping_channel(0.35, 4), rho)
        b = apply_channel(attenuator_channel(0.65, 4), rho)
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)

    def test_identity_channel_is_identity(self, rng):
        rho = random_density(rng, 3)
        out = apply_channel(identity_channel(3), rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_parameter_range_validation(self):
        with pytest.raises(ValidationError):
            dephasing_channel(1.5, 2)
        with pytest.raises(ValidationError):
            depolarizing_channel(-0.1, 2)
        with pytest.raises(ValidationError):
            attenuator_channel(1.2, 2)
        with pytest.raises(ValidationError):
            amplitude_damping_channel(-0.2, 2)

    def test_make_channel_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="dephasing"):
            make_channel("teleporter", 2)

    def test_zoo_has_five_members(self):
        zoo = channel_zoo(3)
        assert [ch.dim_in for ch in zoo] == [3] * 5
        assert len({ch.name for ch in zoo}) == 5


class TestApplyLocal:
    def test_matches_kron_lifted_channel(self, rng):
        # Acting on factor 0 of a 2 x 3 state must agree with the lifted
        # Kraus family K (x) I applied to the full matrix.
        ch = dephasing_channel(0.45, 2)
        rho = random_density(rng, 6)
        shape = SubsystemShape((2, 3))
        local = apply_local(ch, rho, shape, 0)
        lifted = Channel(tuple(np.kron(k, np.eye(3)) for k in ch.kraus))
        direct = apply_channel(lifted, rho)
        assert np.allclose(local.matrix, direct.matrix, atol=1e-12)

    def test_matches_kron_lifted_channel_second_factor(self, rng):
        ch = depolarizing_channel(0.3, 3)
        rho = random_density(rng, 6)
        shape = SubsystemShape((2, 3))
        local = apply_local(ch, rho, shape, 1)
        lifted = Channel(tuple(np.kron(np.eye(2), k) for k in ch.kraus))
        direct = apply_channel(lifted, rho)
        assert np.allclose(local.matrix, direct.matrix, atol=1e-12)

    def test_rectangular_local_action_changes_factor_dim(self, rng):
        v = np.zeros((3, 2), dtype=complex)
        v[0, 0] = v[1, 1] = 1.0
        ch = Channel((v,))
        rho = random_density(rng, 4)
        local = apply_local(ch, rho, SubsystemShape((2, 2)), 0)
        assert local.dim == 6
        back = partial_trace(local, (3, 2), (1,))
        orig = partial_trace(rho, (2, 2), (1,))
        assert np.trace(back.matrix).real == pytest.approx(np.trace(orig.matrix).real, abs=1e-10)

    def test_rejects_factor_mismatch(self, rng):
        ch = dephasing_channel(0.2, 2)
        rho = random_density(rng, 6)
        with pytest.raises(ValidationError):
            apply_local(ch, rho, SubsystemShape((2, 3)), 1)
        with pytest.raises(ValidationError):
            apply_local(ch, rho, SubsystemShape((2, 3)), 2)


class TestStinespring:
    def test_isometry_property(self):
        for ch in channel_zoo(3):
            v = stinespring(ch)
            assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-10)

    def test_tracing_environment_recovers_channel(self, rng):
        rho = random_density(rng, 3)
        for ch in channel_zoo(3):
            v = stinespring(ch)
            dilated = DensityMatrix(v @ rho.matrix @ v.conj().T)
            n_env = len(ch.kraus)
            reduced = partial_trace(dilated, (ch.dim_out, n_env), (0,))
            direct = apply_channel(ch, rho)
            assert np.allclose(reduced.matrix, direct.matrix, atol=1e-10)


class TestChannelMi:
    def test_identity_channel_gives_twice_entropy(self, rng):
        rho = random_density(rng, 3)
        got = channel_mi(identity_channel(3), rho)
        assert got == pytest.approx(2.0 * von_neumann_entropy(rho), abs=1e-10)

    def test_pure_input_gives_zero(self):
        pure = DensityMatrix(np.diag([1.0, 0.0]))
        for ch in channel_zoo(2):
            assert channel_mi(ch, pure) == pytest.approx(0.0, abs=1e-9)

    def test_matches_stinespring_dilation_route(self, rng):
        # Independent route: purify the input with numpy, lift the
        # Stinespring isometry V on the system half, and take
        # I(B:R) = H(B) + H(R) - H(BR) of the full (B, E, R) output vector.
        # Rank-deficient inputs and depolarizing, with d**2 + 1 Kraus
        # operators, reach both sides of the Gram/joint duality.
        def entropy(mat):
            w = np.linalg.eigvalsh(mat)
            w = w[w > 1e-300]
            return float(-np.sum(w * np.log(w)))

        for d in (2, 3, 4, 5):
            for rank in (d, d - 1, 1):
                g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
                rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
                w, u = np.linalg.eigh(rho.matrix)
                psi = u * np.sqrt(np.clip(w, 0.0, None))
                for ch in channel_zoo(d):
                    n_env = len(ch.kraus)
                    out = (stinespring(ch) @ psi).reshape(ch.dim_out, n_env, d)
                    rho_br = np.einsum("ber,cet->brct", out, out.conj())
                    rho_br = rho_br.reshape(ch.dim_out * d, ch.dim_out * d)
                    expected = (entropy(np.einsum("ber,cer->bc", out, out.conj()))
                                + entropy(np.einsum("ber,bet->rt", out, out.conj()))
                                - entropy(rho_br))
                    assert channel_mi(ch, rho) == pytest.approx(expected, abs=1e-10), \
                        (ch.name, d, rank)

    @pytest.mark.parametrize("kind,params,joint_sized", [
        ("attenuator", (0.8,), 0), ("depolarizing", (0.25,), 1),
    ])
    def test_decomposes_at_most_one_joint_sized_matrix(self, rng, monkeypatch,
                                                       kind, params, joint_sized):
        # d = 16: attenuator has 16 Kraus operators, so H(E) comes from a
        # 16x16 Gram matrix; depolarizing has 257 > 16 * 16, so from the
        # 256x256 joint state, decomposed once.
        ch = make_channel(kind, 16, params)
        rho = random_density(rng, 16)
        sizes = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                sizes.append(np.shape(a)[0])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        channel_mi(ch, rho)
        assert sizes
        assert sizes.count(256) == joint_sized
        assert all(n in (16, 256) for n in sizes)

    def test_full_depolarizing_gives_zero(self, rng):
        rho = random_density(rng, 3)
        assert channel_mi(depolarizing_channel(1.0, 3), rho) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(ValidationError):
            channel_mi(identity_channel(3), random_density(rng, 2))


class TestOutputHolevo:
    def test_identity_channel_preserves_chi(self, rng):
        states = tuple(random_density(rng, 3) for _ in range(3))
        ens = Ensemble((0.2, 0.3, 0.5), states)
        assert output_holevo(identity_channel(3), ens) == pytest.approx(
            holevo_chi(ens), abs=1e-10
        )

    def test_matches_direct_output_ensemble(self, rng):
        ch = amplitude_damping_channel(0.4, 3)
        states = tuple(random_density(rng, 3) for _ in range(3))
        ens = Ensemble((0.25, 0.25, 0.5), states)
        outputs = tuple(apply_channel(ch, s) for s in states)
        expected = holevo_chi(Ensemble(ens.weights, outputs))
        assert output_holevo(ch, ens) == pytest.approx(expected, abs=1e-12)

    def test_data_processing_never_increases_chi(self, rng):
        states = tuple(random_density(rng, 3) for _ in range(4))
        ens = Ensemble((0.25,) * 4, states)
        base = holevo_chi(ens)
        for ch in channel_zoo(3):
            assert output_holevo(ch, ens) <= base + 1e-9
