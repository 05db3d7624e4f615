"""Kraus channels and channel information quantities."""
import math
import re

import numpy as np
import pytest

from entrobound.channels import (
    CHANNEL_ZOO_SPECS,
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
)
from entrobound.ensembles import Ensemble
from entrobound.entropy import holevo_chi, von_neumann_entropy
from entrobound.errors import ValidationError
from entrobound.operators import DensityMatrix, SubsystemShape, partial_trace, tensor
from conftest import random_density


def random_kraus_channel(rng, d_in, d_out, n_kraus, name):
    """Kraus blocks of a random isometry from C^d_in to C^d_out x C^n_kraus."""
    g = rng.normal(size=(d_out * n_kraus, d_in)) + 1j * rng.normal(size=(d_out * n_kraus, d_in))
    iso = np.linalg.qr(g)[0]
    return Channel(tuple(iso.reshape(n_kraus, d_out, d_in)), name=name)


def noisy_unitaries_channel(rng, d):
    """Full depolarizing with weight 0.3, two random unitaries with 0.7 - 1e-6 and 1e-6.

    Its Choi matrix is a floor 0.3 / d plus two vectors, one of them
    barely above the floor.
    """
    unitaries = [np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                 for _ in range(2)]
    kraus = [math.sqrt(0.3) * k for k in depolarizing_channel(1.0, d).kraus]
    kraus += [math.sqrt(w) * u for w, u in zip((0.7 - 1e-6, 1e-6), unitaries)]
    return Channel(tuple(kraus), name="noisy-unitaries")


def fresh_channel(kind, dim, params=()):
    """The named channel as a plain Kraus family, its Choi split not yet computed."""
    named = make_channel(kind, dim, params)
    return Channel(named.kraus, name=named.name)


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

    def test_kraus_operators_are_read_only_copies(self):
        k = np.eye(2, dtype=complex)
        ch = Channel((k,))
        assert not ch.kraus[0].flags.writeable
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 0.0
        assert k.flags.writeable
        k[0, 0] = 0.0
        assert ch.kraus[0][0, 0] == 1.0

    @pytest.mark.parametrize("make", [
        lambda rng: make_channel("identity", 3),
        lambda rng: make_channel("dephasing", 3, (0.3,)),
        lambda rng: make_channel("depolarizing", 3, (0.25,)),
        lambda rng: make_channel("attenuator", 3, (0.8,)),
        lambda rng: random_kraus_channel(rng, 3, 3, 9, "full-rank"),
        lambda rng: random_kraus_channel(rng, 2, 3, 6, "rect-full-rank"),
        lambda rng: noisy_unitaries_channel(rng, 3),
    ], ids=["identity", "dephasing", "depolarizing", "attenuator", "full-rank",
            "rect-full-rank", "noisy-unitaries"])
    def test_choi_split_rebuilds_the_choi_matrix(self, rng, make):
        ch = make(rng)
        flat = np.stack(ch.kraus).reshape(len(ch.kraus), -1)
        choi = flat.T @ flat.conj()
        c_min, v = ch.choi_split
        vecs = v.reshape(len(v), -1)
        assert c_min >= 0.0
        assert not v.flags.writeable
        assert np.abs(c_min * np.eye(len(choi)) + vecs.T @ vecs.conj() - choi).max() <= 1e-12
        assert ch.choi_split is ch.choi_split

    def test_choi_split_of_depolarizing_is_one_vector_over_a_floor(self):
        c_min, v = depolarizing_channel(0.25, 4).choi_split
        assert c_min == pytest.approx(0.25 / 4, abs=1e-14)
        assert v.shape == (1, 4, 4)
        assert np.allclose(v[0] @ v[0].conj().T, 0.75 * np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 16])
    @pytest.mark.parametrize("p", [0.0, 1e-15, 1e-3, 0.25, 1.0 - 1e-15, 1.0])
    def test_closed_form_depolarizing_split_matches_the_numerical_one(self, p, dim):
        ch = depolarizing_channel(p, dim)
        (c_min, v), (c_ref, v_ref) = ch.choi_split, Channel(ch.kraus).choi_split
        assert not v.flags.writeable
        assert c_min == pytest.approx(c_ref, abs=1e-14)
        assert v.shape == v_ref.shape
        vecs, ref = v.reshape(len(v), dim * dim), v_ref.reshape(len(v_ref), dim * dim)
        assert np.abs(vecs.T @ vecs.conj() - ref.T @ ref.conj()).max() <= 1e-12

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

    @pytest.mark.parametrize("kind,params,count", [
        ("dephasing", (), "1 parameter(s) (p), got 0"),
        ("identity", (0.3,), "0 parameter(s), got 1"),
        ("attenuator", (0.8, 0.1), "1 parameter(s) (transmissivity), got 2"),
    ])
    def test_make_channel_checks_the_parameter_count(self, kind, params, count):
        with pytest.raises(ValidationError, match=rf"channel '{kind}' takes {re.escape(count)}"):
            make_channel(kind, 2, params)

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
        # Stinespring isometry V = sum_k K_k x |k> on the system half, and
        # take I(B:R) = H(B) + H(R) - H(BR) of the full (B, E, R) output
        # vector.  The zoo has a Choi floor c_min > 0 (depolarizing, one
        # Choi vector) and c_min = 0 (the rest); the random channels add
        # c_min > 0 with several Choi vectors, c_min = 0 with one Choi
        # vector short of d_out * d_in, and rectangular maps both ways.
        def entropy(mat):
            w = np.linalg.eigvalsh(mat)
            w = w[w > 1e-300]
            return float(-np.sum(w * np.log(w)))

        def dilation_mi(ch, rho):
            d = rho.dim
            w, u = np.linalg.eigh(rho.matrix)
            psi = u * np.sqrt(np.clip(w, 0.0, None))
            n_env = len(ch.kraus)
            iso = np.stack(ch.kraus, axis=1).reshape(ch.dim_out * n_env, d)
            out = (iso @ psi).reshape(ch.dim_out, n_env, d)
            rho_br = np.einsum("ber,cet->brct", out, out.conj())
            rho_br = rho_br.reshape(ch.dim_out * d, ch.dim_out * d)
            return (entropy(np.einsum("ber,cer->bc", out, out.conj()))
                    + entropy(np.einsum("ber,bet->rt", out, out.conj()))
                    - entropy(rho_br))

        def with_ranks(d, ranks):
            states = []
            for rank in ranks:
                g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
                states.append(DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real))
            return states

        cases = []
        for d in (2, 3, 4, 5):
            channels = channel_zoo(d) + [
                random_kraus_channel(rng, d, d, d * d, "full-rank"),
                random_kraus_channel(rng, d, d, d * d - 1, "corank-1"),
                noisy_unitaries_channel(rng, d),
                random_kraus_channel(rng, d, d + 1, 2, "rect-low-rank"),
                random_kraus_channel(rng, d, d + 1, d * (d + 1), "rect-full-rank"),
            ]
            if d > 2:
                channels.append(random_kraus_channel(rng, d, d - 1, 2, "rect-narrowing"))
            inputs = with_ranks(d, (d, d - 1, 1)) + [DensityMatrix(np.eye(d) / d)]
            cases += [(ch, rho) for ch in channels for rho in inputs]
        # d = 16, the sweeps' size: rank-1 and rank-deficient inputs.
        cases += [(ch, rho) for ch in channel_zoo(16) for rho in with_ranks(16, (1, 5, 15))]
        for ch, rho in cases:
            c_min, v = ch.choi_split
            if ch.name == "corank-1":
                assert c_min == 0.0 and len(v) == ch.dim_out * ch.dim_in - 1
            elif ch.name in ("rect-low-rank", "rect-narrowing"):
                assert c_min == 0.0 and len(v) == 2
            assert channel_mi(ch, rho) == pytest.approx(dilation_mi(ch, rho), abs=1e-10), \
                (ch.name, rho.dim, np.linalg.matrix_rank(rho.matrix))

    @pytest.mark.parametrize("kind,params,joint_sized", [
        ("attenuator", (0.8,), 0), ("depolarizing", (0.25,), 1),
    ])
    def test_decomposes_at_most_one_joint_sized_matrix(self, rng, monkeypatch,
                                                       kind, params, joint_sized):
        # d = 16, first call on a fresh plain Kraus family: attenuator has
        # 16 Kraus operators and no Choi floor, so the split decomposes their
        # 16x16 Gram matrix and H(E) comes from the 16x16 output N^c(rho);
        # depolarizing has 257 > 16 * 16, so its 257x257 Kraus Gram matrix is
        # decomposed once, for the split, and nothing else is that large
        # (depolarizing_channel itself sets the split in closed form).
        ch = fresh_channel(kind, 16, params)
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
        assert sizes.count(257) == joint_sized
        assert all(n in (16, 257) for n in sizes)

    def test_no_joint_sized_decomposition_after_the_choi_split(self, rng, monkeypatch):
        # d = 16: the first call on a fresh channel splits its Choi matrix;
        # only depolarizing, with 257 > 16 * 16 Kraus operators, decomposes
        # a joint-sized matrix for it, the 257x257 Kraus Gram matrix.  After
        # the split a channel with no Choi floor validates its two outputs,
        # N(rho) and N^c(rho), with one eigvalsh each and purifies nothing;
        # depolarizing, the one zoo channel with a floor, purifies rho with
        # one eigh.  Nothing larger than the input dimension is decomposed.
        rho = random_density(rng, 16)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, _name=name, **kwargs):
                calls.append((_name, np.shape(a)[0]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        for kind, params in CHANNEL_ZOO_SPECS:
            ch = fresh_channel(kind, 16, params)
            calls.clear()
            channel_mi(ch, rho)
            joint_sized = sum(n >= 256 for _, n in calls)
            assert joint_sized <= (1 if kind == "depolarizing" else 0), kind
            calls.clear()
            channel_mi(ch, rho)
            names = [name for name, _ in calls]
            floored = kind == "depolarizing"
            assert (names.count("eigh"), names.count("eigvalsh")) == (int(floored), 2), kind
            assert max(n for _, n in calls) <= 16, kind

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
