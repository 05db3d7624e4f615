"""Verification harness: samplers, sweeps, determinism, mixing checks."""
import argparse
import dataclasses
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

import entrobound.verify as verify_mod
from entrobound.bounds import PRESETS, continuity_bound
from entrobound.cli import build_parser
from entrobound.entropy import (
    conditional_entropy,
    relative_entropy,
    relative_entropy_of_coherence,
)
from entrobound.ensembles import Ensemble
from entrobound.errors import ValidationError
from entrobound.gibbs import SpectrumModel, gibbs_state, max_entropy, solve_inverse_temperature
from entrobound.operators import DensityMatrix, HermitianOperator, trace_norm
from entrobound.verify import (
    LAA_QUANTITIES,
    SWEEP_FAMILIES,
    SweepConfig,
    _anchor_lambda,
    _anchor_probabilities,
    _constraint,
    _diag_energy,
    _hilbert_schmidt_draw,
    _lift_levels,
    _sample_ensemble_pair,
    config_digest,
    default_sweep_suite,
    laa_check,
    random_density_matrix,
    resolve_wiring,
    run_sweep,
    sample_state_pair,
)

LEVELS4 = (0.0, 1.0, 2.0, 3.0)


def small_config(**overrides):
    base = dict(family="entropy", energy=1.0, seed=7, trials=5,
                epsilons=(0.1, 0.25), dims=(4,))
    base.update(overrides)
    return SweepConfig(**base)


def lifted_levels(config):
    """The constraint levels on every basis state of the sweep's dims."""
    axes, base = _constraint(verify_mod.QUANTITIES[config.family], config.dims)
    return _lift_levels(config.dims, axes, base)


class TestSweepConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError, match="family"):
            SweepConfig(family="magic", energy=1.0, seed=1)

    def test_rejects_unknown_sampler(self):
        with pytest.raises(ValidationError, match="sampler"):
            SweepConfig(family="entropy", energy=1.0, seed=1, sampler="thermal")

    @pytest.mark.parametrize("sampler", ["boundary", "pure"])
    def test_holevo_takes_only_the_mixed_sampler(self, sampler):
        # The ensemble draw is mixed whatever the name, so another name
        # would only relabel the sweep, and "pure" would print the
        # pure-state bound for mixed ensembles.
        with pytest.raises(ValidationError, match="holevo sweeps take the sampler.s. mixed;"):
            SweepConfig(family="holevo", seed=1, sampler=sampler)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            SweepConfig(family="entropy", seed=-1)

    def test_pure_follows_the_sampler(self):
        assert SweepConfig(family="entropy", seed=1, sampler="pure").pure
        assert not SweepConfig(family="entropy", seed=1, sampler="boundary").pure

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValidationError):
            SweepConfig(family="entropy", energy=1.0, seed=1, epsilons=(0.6,))
        with pytest.raises(ValidationError):
            SweepConfig(family="entropy", energy=1.0, seed=1, epsilons=())

    def test_rejects_wrong_factor_count(self):
        with pytest.raises(ValidationError, match="takes 1"):
            SweepConfig(family="gibbs-red", energy=3.0, seed=1, dims=(4, 2))
        with pytest.raises(ValidationError, match="at least 2"):
            SweepConfig(family="mutual-info", energy=2.0, seed=1, dims=(4,))

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_energy(self, energy):
        with pytest.raises(ValidationError, match=f"sweep energy {energy!r} must be finite"):
            SweepConfig(family="entropy", energy=energy, seed=1)

    @pytest.mark.parametrize("family,dims", [("entropy", (0,)), ("cond-entropy", (4, -1)),
                                             ("mutual-info", (2, 0, 4))])
    def test_rejects_nonpositive_factor_dim(self, family, dims):
        bad = min(dims)
        with pytest.raises(ValidationError, match=f"got dim {bad} in dims"):
            SweepConfig(family=family, energy=2.0, seed=1, dims=dims)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            SweepConfig(family="entropy", energy=1.0, seed=1, trials=0)

    @pytest.mark.parametrize("family", [f for f in SWEEP_FAMILIES
                                        if verify_mod.QUANTITIES[f].channel is None])
    def test_families_without_a_channel_refuse_one(self, family):
        with pytest.raises(ValidationError, match=f"{family} sweeps have no channel"):
            SweepConfig(family=family, energy=2.0, seed=1, channel=("depolarizing", (0.25,)))


class TestResolveWiring:
    def test_entropy_defaults(self):
        config = SweepConfig(family="entropy", seed=1)
        assert (config.energy, config.dims, config.channel) == (2.0, (16,), None)
        assert resolve_wiring(config).model.levels == tuple(float(k) for k in range(16))

    def test_gibbs_red_uses_ree_preset(self):
        assert verify_mod.QUANTITIES["gibbs-red"].preset == "ree"
        config = SweepConfig(family="gibbs-red", seed=1)
        assert (config.energy, config.dims) == (3.0, (8,))

    def test_channel_default_is_attenuator(self):
        config = SweepConfig(family="channel-mi", energy=2.0, seed=1)
        assert config.channel == ("attenuator", (0.8,))

    def test_default_and_explicit_channel_are_one_sweep(self):
        defaulted = SweepConfig(family="channel-mi", seed=1, trials=2, epsilons=(0.1,))
        explicit = SweepConfig(family="channel-mi", seed=1, trials=2, epsilons=(0.1,),
                               channel=("attenuator", (0.8,)))
        assert defaulted == explicit
        assert config_digest(defaulted) == config_digest(explicit)

    def test_pure_channel_sweep_feeds_the_channel_a_marginal(self):
        # A pure input has I(B:R) = 0 whatever the channel, so the pure
        # sweep draws purifications on 16 x 2 and traces out the ancilla.
        config = SweepConfig(family="channel-mi", energy=2.0, seed=1, sampler="pure")
        assert config.dims == (16, 2)
        w = resolve_wiring(config)
        assert np.array_equal(lifted_levels(config), np.repeat(np.arange(16.0), 2))
        channel = verify_mod.make_channel("attenuator", 16, (0.8,))
        rng = np.random.default_rng(2)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        rho = DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real)
        marginal = verify_mod.partial_trace(rho, verify_mod.SubsystemShape((16, 2)), keep=(0,))
        assert w.f(rho) == verify_mod.channel_mi(channel, marginal)
        assert w.f(rho) > 1e-3

    def test_lifted_levels_cond_entropy(self):
        # Constraint on the first factor A of a 4 x 4 system: each level
        # repeats once per second-factor index.
        config = SweepConfig(family="cond-entropy", energy=1.5, seed=1)
        assert resolve_wiring(config).model.levels == (0.0, 1.0, 2.0, 3.0)
        expected = np.repeat(np.arange(4.0), 4)
        assert np.array_equal(lifted_levels(config), expected)

    def test_lifted_levels_mutual_info(self):
        # Constraint on factors B and C of A x B x C with additive levels.
        config = SweepConfig(family="mutual-info", energy=2.0, seed=1)
        assert config.dims == (2, 2, 4)
        base = [float(i + j) for i in range(2) for j in range(4)]
        assert list(_constraint(verify_mod.QUANTITIES["mutual-info"], config.dims)[1]) == base
        assert np.array_equal(lifted_levels(config), np.tile(base, 2))

    def test_dim_shape_validation(self):
        with pytest.raises(ValidationError):
            SweepConfig(family="cond-entropy", energy=1.0, seed=1, dims=(4,))
        # channel-mi takes an ancilla after its channel input, as entropy does.
        assert len(lifted_levels(SweepConfig(family="channel-mi", energy=1.0, seed=1,
                                             dims=(4, 2)))) == 8


class TestSamplers:
    def setup_method(self):
        self.lifted = np.arange(4.0)
        self.energy = 1.5
        lam = _anchor_lambda(SpectrumModel.explicit(LEVELS4), self.energy)
        anchor_p = _anchor_probabilities(self.lifted, lam)
        self.anchor = (anchor_p, float(anchor_p @ self.lifted))

    def test_anchor_sits_below_cap(self):
        assert self.anchor[1] < self.energy

    def test_raw_draw_is_the_random_state_matrix(self):
        # The mixed sampler draws the bare matrix; same stream, same bits.
        state = random_density_matrix(np.random.default_rng(5), 16)
        raw = _hilbert_schmidt_draw(np.random.default_rng(5), 16)
        assert np.array_equal(state.matrix, raw)

    def test_mixed_pair_obeys_both_budgets(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho, sigma, dist = sample_state_pair(
                rng, self.lifted, self.energy, 0.25, "mixed", anchor=self.anchor
            )
            assert dist <= 0.25 * (1 + 1e-9)
            assert _diag_energy(rho.matrix, self.lifted) <= self.energy + 1e-10
            assert _diag_energy(sigma.matrix, self.lifted) <= self.energy + 1e-10

    def test_boundary_pair_sits_in_top_band(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho, sigma, dist = sample_state_pair(
                rng, self.lifted, self.energy, 0.1, "boundary", anchor=self.anchor
            )
            e_rho = _diag_energy(rho.matrix, self.lifted)
            assert 0.99 * self.energy - 1e-10 <= e_rho <= self.energy + 1e-10
            assert dist <= 0.1 * (1 + 1e-9)

    def test_pure_pair_distance_is_exact(self):
        rng = np.random.default_rng(5)
        damping = solve_inverse_temperature(
            SpectrumModel.explicit(LEVELS4), 0.75 * self.energy
        ).lam
        for _ in range(20):
            rho, sigma, dist = sample_state_pair(
                rng, self.lifted, self.energy, 0.3, "pure", damping=damping
            )
            from entrobound.operators import trace_norm

            actual = 0.5 * trace_norm(rho.matrix - sigma.matrix)
            assert actual == pytest.approx(dist, abs=1e-9)
            assert dist <= 0.3
            evals = np.linalg.eigvalsh(rho.matrix)
            assert evals[-1] == pytest.approx(1.0, abs=1e-10)

    def test_ensemble_pair_obeys_ordered_budget(self):
        from entrobound.ensembles import ordered_distance

        rng = np.random.default_rng(6)
        for _ in range(10):
            first, second, dist = _sample_ensemble_pair(
                rng, self.lifted, self.energy, 0.2, self.anchor, 3
            )
            assert ordered_distance(first, second) == pytest.approx(dist, abs=1e-12)
            assert dist <= 0.2 * (1 + 1e-9)
            for st in first.states + second.states:
                assert _diag_energy(st.matrix, self.lifted) <= self.energy + 1e-10


class TestRunSweep:
    def test_small_entropy_sweep_has_no_violations(self):
        report = run_sweep(small_config())
        assert len(report.rows) == 10
        assert report.violations == ()
        for row in report.rows:
            assert row.margin == row.bound - row.abs_diff
            assert row.abs_diff <= row.bound

    def test_rows_are_grouped_by_epsilon(self):
        report = run_sweep(small_config())
        eps_order = [row.epsilon for row in report.rows]
        assert eps_order == sorted(eps_order)
        assert [row.trial for row in report.rows[:5]] == list(range(5))

    def test_holevo_family_runs(self):
        cfg = SweepConfig(family="holevo", energy=2.0, seed=3, trials=3,
                          epsilons=(0.2,), dims=(3,))
        report = run_sweep(cfg)
        assert len(report.rows) == 3
        assert report.violations == ()

    def test_pure_variant_runs(self):
        cfg = SweepConfig(family="entropy", energy=1.0, seed=9, trials=3,
                          epsilons=(0.2,), dims=(4, 2), sampler="pure")
        report = run_sweep(cfg)
        assert report.violations == ()

    def test_rejects_energy_at_ground(self):
        with pytest.raises(ValidationError, match="ground"):
            run_sweep(small_config(energy=0.0))

    def test_csv_output_is_deterministic(self):
        first = io.StringIO()
        run_sweep(small_config()).to_csv(first)
        second = io.StringIO()
        run_sweep(small_config()).to_csv(second)
        assert first.getvalue() == second.getvalue()

    def test_csv_header_carries_config_digest(self):
        report = run_sweep(small_config())
        stream = io.StringIO()
        report.to_csv(stream)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "# entrobound sweep format 2"
        assert lines[1] == f"# config-sha256: {report.config_digest}"
        assert lines[2].startswith("trial,epsilon,E,")

    def test_violations_are_reported_not_swallowed(self, monkeypatch):
        def broken_bound(preset, model, eps, energy, pure=False):
            return SimpleNamespace(value=0.0)

        # An equal sweep run first must not hand its bounds to the next.
        assert run_sweep(small_config()).violations == ()
        monkeypatch.setattr(verify_mod, "continuity_bound", broken_bound)
        report = run_sweep(small_config())
        assert len(report.violations) > 0
        assert all(row.margin < verify_mod.MARGIN_TOL for row in report.violations)

    def test_depolarizing_sweep_does_no_joint_sized_work(self, monkeypatch):
        # The depolarizing channel (257 Kraus operators at d = 16) comes
        # with its Choi split in closed form, so no sweep of it, first or
        # repeated, decomposes anything larger than the channel input.
        config = next(c for c in default_sweep_suite(trials=2)
                      if c.channel is not None and c.channel[0] == "depolarizing")
        d_in = config.dims[0]
        sizes = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                sizes.append(np.shape(a)[0])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        csvs = []
        for _ in range(2):
            sizes.clear()
            buf = io.StringIO()
            run_sweep(config).to_csv(buf)
            csvs.append(buf.getvalue())
            assert sizes and max(sizes) <= d_in
        assert csvs[0] == csvs[1]


class TestConfigDigest:
    def test_stable_for_equal_configs(self):
        assert config_digest(small_config()) == config_digest(small_config())

    def test_sensitive_to_seed(self):
        assert config_digest(small_config()) != config_digest(small_config(seed=8))

    def test_sensitive_to_resolved_defaults(self):
        explicit = small_config(dims=(16,), family="entropy")
        defaulted = SweepConfig(family="entropy", energy=1.0, seed=7, trials=5,
                                epsilons=(0.1, 0.25))
        assert config_digest(explicit) == config_digest(defaulted)

    def test_sweep_resolves_its_wiring_once(self, monkeypatch):
        calls = []
        original = verify_mod.resolve_wiring

        def counting(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(verify_mod, "resolve_wiring", counting)
        report = run_sweep(small_config())
        assert len(calls) == 1
        monkeypatch.undo()
        assert report.config_digest == config_digest(small_config())


# config_digest of each default_sweep_suite() config, in suite order.
# The digest hashes canonical JSON only, so it is the same on every
# platform; a change here means dims, constraint axes, levels or default
# channel of a battery sweep drifted.
SUITE_DIGESTS = (
    ("entropy", False, "b0f3b0dfcb94c0db647730740f6ddf1a2a55b1da23e9bd68344c1d322b13374b"),
    ("cond-entropy", False, "da939969ced1c52d0e96124bc151d8d4dd785cd823ecae865cd9cab9de594101"),
    ("mutual-info", False, "7927f16235fe778b3ac5382618df0e4b8ceb71c1923c70a1c5e0793ec11f7f8d"),
    ("gibbs-red", False, "e8885866bd4588ffb324a89b2692f46e12d57cdbf9f54b92b418283515b6de20"),
    ("holevo", False, "dd8601ade2f0f8ce786429d306595021a8fdedf7ccd19dd848dfaf5bb5214a82"),
    ("channel-mi", False, "50d913b09754267998aa24baf5ae9b11e16462f390994df831c6d491a7332615"),
    ("channel-mi", False, "fc72db385ea65213c9eca2850052fb328fea2abee0d53dacbb4868653d31bfcf"),
    ("channel-mi", False, "900a8e5690ac967d883b2001fbdd9edd50087b8919caceab43e4fd8c8e323c59"),
    ("channel-mi", False, "5dfd3271250c02c5c36c95358fe88955f8bfd633426c2b827fecee9980600aa0"),
    ("channel-mi", False, "8bf2107ee0e30ec3e5042187d2b45a87bc568eed165a298f145130beeb936991"),
    ("entropy", True, "810668fc010b86de4464fe30cbdd6d914bec730d8fc036c343b71aeb2fd985bb"),
    ("cond-entropy", True, "dd0364291d916ba04977c60d5d9c2edbf2d750419b9fd7639631be5fdaf8cbc9"),
    ("mutual-info", True, "4e68436a46f7b63002a370ede7a326f2387dd71fdfc0d966d2c080b8ac9e17c0"),
    ("gibbs-red", True, "e76e1c874c2381c56af36ad8e943296e1b09f696789c6825a0e13f80a54d9b88"),
    ("channel-mi", True, "e5c26b65699f252adaf4c97c6583a7f29f803969116088694972576932fe2c35"),
)


@pytest.fixture(scope="module")
def small_suite():
    """(config, report) of every default_sweep_suite(trials=2) sweep."""
    return [(config, run_sweep(config)) for config in default_sweep_suite(trials=2)]


class TestOneSpectrumPerSweep:
    def test_bound_column_is_the_bound_of_the_constraint_levels(self, small_suite):
        # The states are drawn on the constraint levels, so F is theirs.
        for config, report in small_suite:
            model = resolve_wiring(config).model
            preset = verify_mod.QUANTITIES[config.family].preset
            for row in report.rows:
                want = continuity_bound(preset, model, row.epsilon, config.energy,
                                        pure=config.pure).value
                assert row.bound == want, (config.family, config.channel, row.epsilon)

    def test_entropy_bound_at_half_epsilon(self):
        # delta = sqrt(2 eps) = 1: F_{0..15}(E / eps) + g(1), with g(1) = 2 ln 2.
        # The unit oscillator gave 3.7700, below what states on 0..15 reach.
        report = run_sweep(SweepConfig(family="entropy", energy=2.0, seed=1, trials=1,
                                       epsilons=(0.5,)))
        want = max_entropy(SpectrumModel.explicit(range(16)), 4.0) + 2.0 * math.log(2.0)
        assert report.rows[0].bound == pytest.approx(want, rel=1e-12)
        assert report.rows[0].bound == pytest.approx(3.8515, abs=5e-5)

    def test_every_sweep_sees_a_difference(self, small_suite):
        # A sweep whose f never moves cannot fail, whatever its bound.
        for config, report in small_suite:
            assert max(row.abs_diff for row in report.rows) > 1e-9, (config.family, config.pure)


def _maximally_correlated(a: np.ndarray) -> np.ndarray:
    """sum_ij a_ij |ii><jj| on C^d x C^d."""
    d = a.shape[0]
    diagonal = np.arange(d) * (d + 1)
    out = np.zeros((d * d, d * d), dtype=complex)
    out[np.ix_(diagonal, diagonal)] = a
    return out


class TestRelativeEntropyOfEntanglement:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_gibbs_red_rows_are_ree_rows(self, monkeypatch, d):
        # For the maximally correlated embedding rho of a, hashing and the
        # separable reference sum_i a_ii |ii><ii| sandwich E_D <= E_R^inf
        # <= E_R between -H(A|B) and D(rho || reference); both ends equal
        # C_r(a).  The embedding keeps trace distance and the energy of B,
        # so each gibbs-red row (levels 0..d-1, E = 3) is an E_R row.
        states = []
        original = verify_mod.resolve_wiring

        def recording(config):
            wiring = original(config)
            f = wiring.f
            return dataclasses.replace(wiring, f=lambda rho: states.append(rho) or f(rho))

        monkeypatch.setattr(verify_mod, "resolve_wiring", recording)
        run_sweep(SweepConfig(family="gibbs-red", seed=d, trials=2, dims=(d,)))
        assert len(states) == 2 * 2 * len(verify_mod.DEFAULT_EPSILONS)
        levels = tuple(float(k) for k in range(d))
        for a in states:
            rho = DensityMatrix(_maximally_correlated(a.matrix))
            reference = DensityMatrix(_maximally_correlated(np.diag(np.diag(a.matrix))))
            c_r = relative_entropy_of_coherence(a, levels)
            assert -conditional_entropy(rho, (d, d)) == pytest.approx(c_r, abs=1e-12)
            assert relative_entropy(rho, reference) == pytest.approx(c_r, abs=1e-12)


class TestSuite:
    @pytest.mark.parametrize("index", range(len(SUITE_DIGESTS)))
    def test_suite_digest_is_pinned(self, index):
        config = default_sweep_suite()[index]
        family, pure, digest = SUITE_DIGESTS[index]
        assert (config.family, config.pure) == (family, pure)
        assert config_digest(config) == digest

    def test_default_suite_composition(self):
        suite = default_sweep_suite(trials=10)
        assert len(suite) == 15
        families = [c.family for c in suite]
        assert families.count("channel-mi") == 6
        assert sum(1 for c in suite if c.pure) == 5
        assert len({c.seed for c in suite}) == 15
        assert all(c.trials == 10 for c in suite)


class TestGrowthControl:
    """-c_minus F(e) <= f <= c_plus F(e) at the constraint energy e.

    The witnesses are product states, diagonal in the product basis: the
    constrained factors in a Gibbs state of their levels (their ground at
    lam = inf) and every other factor maximally mixed.  An ensemble
    quantity takes the basis states under the same weights.
    """

    @pytest.mark.parametrize("family", SWEEP_FAMILIES)
    @pytest.mark.parametrize("lam", [math.inf, 2.0, 0.5, 0.0])
    def test_witness_within_growth_control(self, family, lam):
        config = SweepConfig(family=family, seed=1)
        wiring = resolve_wiring(config)
        lifted = lifted_levels(config)
        excess = lifted - lifted.min()
        weights = (excess == 0.0) if math.isinf(lam) else np.exp(-lam * excess)
        p = weights / weights.sum()
        if family == "holevo":
            basis = np.eye(len(p))
            f = wiring.f(Ensemble(tuple(p), tuple(DensityMatrix(np.diag(b)) for b in basis)))
        else:
            f = wiring.f(DensityMatrix(np.diag(p)))
        desc = PRESETS[verify_mod.QUANTITIES[family].preset]
        envelope = max_entropy(wiring.model, float(p @ lifted))
        assert -desc.c_minus * envelope - 1e-9 <= f <= desc.c_plus * envelope + 1e-9, (
            family, lam, f, envelope)

    def test_cond_entropy_bound_covers_the_product_pair(self):
        # rho = (I/128) x |0><0| and sigma = (I/256 + |0><0|/2) x |0><0| on
        # 128 x 2 differ in H(A|B) by 1.7557.  Both have B energy 0, where a
        # bound in F of B reads g(1) = 1.386 at eps = 1/2; the bound at
        # their A energy covers the pair.
        config = SweepConfig(family="cond-entropy", seed=1, dims=(128, 2), energy=1.0)
        wiring = resolve_wiring(config)
        b0 = np.diag([1.0, 0.0])
        rho = DensityMatrix(np.kron(np.eye(128) / 128, b0))
        sigma = DensityMatrix(np.kron(np.eye(128) / 256 + np.diag(np.eye(128)[0]) / 2, b0))
        assert 0.5 * trace_norm(rho.matrix - sigma.matrix) <= 0.5
        diff = abs(wiring.f(rho) - wiring.f(sigma))
        assert diff == pytest.approx(1.7557, abs=1e-4)
        lifted = lifted_levels(config)
        energy = max(_diag_energy(x.matrix, lifted) for x in (rho, sigma))
        bound = continuity_bound("cond-entropy", wiring.model, 0.5, energy).value
        assert diff <= bound


class TestCoherenceQuantity:
    """gibbs-red is the relative entropy of coherence, a genuine `ree` quantity.

    The two witnesses below broke the `ree` bound when gibbs-red was the
    distance to the (non-convex) Gibbs family itself.
    """

    @staticmethod
    def build(levels):
        return verify_mod.QUANTITIES["gibbs-red"].build((len(levels),), levels, None)

    def test_continuity_witness_on_a_long_ladder(self):
        # rho = |0><0|, sigma = (1 - eps)|0><0| + eps |E/eps><E/eps|: trace
        # distance eps, energies 0 and E.
        levels = tuple(float(k) for k in range(600))
        energy, eps = 10.0, 0.02
        rho = np.zeros(600)
        rho[0] = 1.0
        sigma = rho * (1.0 - eps)
        sigma[round(energy / eps)] = eps
        f = self.build(levels)
        diff = abs(f(DensityMatrix(np.diag(rho))) - f(DensityMatrix(np.diag(sigma))))
        bound = continuity_bound("ree", SpectrumModel.explicit(levels), eps, energy).value
        assert bound == pytest.approx(1.820059381682795, rel=1e-12)
        assert diff <= bound

    def test_mixing_witness_of_two_gibbs_states(self):
        # The ree preset has b = 0: f(mix) may not exceed the average.
        levels = (0.0, 1.0, 2.0)
        ham = HermitianOperator(np.diag(levels))
        cold, hot = gibbs_state(ham, lam=5.0), gibbs_state(ham, lam=0.01)
        p = 0.1
        f = self.build(levels)
        mix = DensityMatrix(p * hot.matrix + (1 - p) * cold.matrix)
        assert p * f(hot) + (1 - p) * f(cold) - f(mix) >= -1e-12

    def test_equals_relative_entropy_to_the_pinched_state(self, rng):
        # Levels with a degenerate pair: the pinching keeps that 2 x 2 block.
        levels = (0.0, 1.0, 1.0, 2.5)
        f = self.build(levels)
        projectors = [np.diag([float(x == e) for x in levels]) for e in sorted(set(levels))]
        for _ in range(5):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
            pinched = DensityMatrix(sum(p @ rho.matrix @ p for p in projectors))
            want = relative_entropy(rho, pinched)
            assert f(rho) == pytest.approx(want, abs=1e-10)
            assert relative_entropy_of_coherence(rho, levels) == f(rho)

    def test_rejects_a_level_count_other_than_the_dim(self):
        with pytest.raises(ValidationError, match="3 levels for dim 2"):
            relative_entropy_of_coherence(DensityMatrix(np.eye(2) / 2), (0.0, 1.0, 2.0))


class TestLaaCheck:
    @pytest.mark.parametrize("quantity,dims", [
        ("entropy", (4,)),
        ("cond-entropy", (2, 2)),
        ("mutual-info", (2, 2)),
        ("ree", (3,)),
        ("gibbs-red", (4,)),
    ])
    def test_slacks_nonnegative(self, quantity, dims):
        report = laa_check(quantity, dims, trials=60, seed=41)
        assert report.worst_lower >= -1e-8
        assert report.worst_upper >= -1e-8
        assert report.trials == 60

    def test_deterministic(self):
        a = laa_check("entropy", (3,), trials=25, seed=5)
        b = laa_check("entropy", (3,), trials=25, seed=5)
        assert a == b

    def test_ree_exercises_infinite_branch(self):
        report = laa_check("ree", (3,), trials=120, seed=17)
        assert report.infinite_pairs > 0
        assert report.infinite_pairs < 120
        assert math.isfinite(report.worst_lower)

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValidationError, match="available"):
            laa_check("negentropy", (3,), trials=5, seed=1)

    def test_rejects_wrong_dim_count(self):
        with pytest.raises(ValidationError):
            laa_check("entropy", (2, 2), trials=5, seed=1)
        with pytest.raises(ValidationError):
            laa_check("mutual-info", (4,), trials=5, seed=1)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_nonpositive_trials(self, trials):
        with pytest.raises(ValidationError, match="trials"):
            laa_check("entropy", (3,), trials=trials, seed=1)

    @pytest.mark.parametrize("quantity,dims", [("entropy", (0,)), ("cond-entropy", (3, 0)),
                                               ("ree", (-2,))])
    def test_rejects_nonpositive_factor_dim(self, quantity, dims):
        with pytest.raises(ValidationError, match=f"got dim {min(dims)} in dims"):
            laa_check(quantity, dims, trials=3, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            laa_check("entropy", (4,), trials=2, seed=-1)

    def test_quantity_list_is_frozen(self):
        assert LAA_QUANTITIES == ("entropy", "cond-entropy", "mutual-info", "ree", "gibbs-red")


class TestRegistry:
    @staticmethod
    def cli_choices(command, option):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices[command]._actions if option in a.option_strings)
        return tuple(action.choices)

    def test_cli_choices_follow_registry(self):
        assert self.cli_choices("verify", "--family") == SWEEP_FAMILIES
        assert self.cli_choices("laa-check", "--quantity") == LAA_QUANTITIES
