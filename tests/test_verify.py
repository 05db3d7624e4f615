"""Verification harness: samplers, sweeps, determinism, mixing checks."""
import argparse
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

import entrobound.verify as verify_mod
from entrobound.bounds import continuity_bound
from entrobound.cli import build_parser
from entrobound.entropy import relative_entropy, relative_entropy_of_coherence
from entrobound.errors import ValidationError
from entrobound.gibbs import SpectrumModel, gibbs_state, solve_inverse_temperature
from entrobound.operators import DensityMatrix, HermitianOperator
from entrobound.verify import (
    LAA_QUANTITIES,
    SWEEP_FAMILIES,
    SweepConfig,
    _anchor_probabilities,
    _diag_energy,
    _sample_ensemble_pair,
    config_digest,
    default_sweep_suite,
    laa_check,
    resolve_wiring,
    run_suite,
    run_sweep,
    sample_state_pair,
)

LEVELS4 = (0.0, 1.0, 2.0, 3.0)


def small_config(**overrides):
    base = dict(family="entropy", energy=1.0, seed=7, trials=5,
                epsilons=(0.1, 0.25), dims=(4,))
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError, match="family"):
            SweepConfig(family="magic", energy=1.0, seed=1)

    def test_rejects_unknown_sampler(self):
        with pytest.raises(ValidationError, match="sampler"):
            SweepConfig(family="entropy", energy=1.0, seed=1, sampler="thermal")

    def test_pure_variant_requires_pure_sampler(self):
        with pytest.raises(ValidationError, match="pure"):
            SweepConfig(family="entropy", energy=1.0, seed=1, pure=True)

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
        with pytest.raises(ValidationError):
            SweepConfig(family="holevo", energy=1.0, seed=1, ensemble_size=1)

    @pytest.mark.parametrize("family", [f for f in SWEEP_FAMILIES
                                        if not verify_mod.QUANTITIES[f].ensemble])
    def test_state_families_refuse_ensemble_size(self, family):
        with pytest.raises(ValidationError, match="ensemble_size 3 applies only to ensemble"):
            SweepConfig(family=family, energy=2.0, seed=1, ensemble_size=3)

    @pytest.mark.parametrize("family", [f for f in SWEEP_FAMILIES
                                        if verify_mod.QUANTITIES[f].channel is None])
    def test_families_without_a_channel_refuse_one(self, family):
        with pytest.raises(ValidationError, match=f"{family} sweeps have no channel"):
            SweepConfig(family=family, energy=2.0, seed=1, channel=("depolarizing", (0.25,)))


class TestResolveWiring:
    def test_entropy_defaults(self):
        w = resolve_wiring(SweepConfig(family="entropy", energy=2.0, seed=1))
        assert w.dims == (16,)
        assert w.preset == "entropy"
        assert w.bound_model.kind == "oscillator"
        assert w.base_levels == tuple(float(k) for k in range(16))

    def test_gibbs_red_uses_ree_preset(self):
        w = resolve_wiring(SweepConfig(family="gibbs-red", energy=3.0, seed=1))
        assert w.preset == "ree"
        assert w.dims == (8,)

    def test_channel_default_is_attenuator(self):
        w = resolve_wiring(SweepConfig(family="channel-mi", energy=2.0, seed=1))
        assert w.channel is not None
        assert "attenuator" in w.channel.name

    def test_lifted_levels_cond_entropy(self):
        # Constraint on the second factor of a 4 x 4 system: the level
        # pattern repeats once per first-factor index.
        w = resolve_wiring(SweepConfig(family="cond-entropy", energy=1.5, seed=1))
        assert w.constraint_axes == (1,)
        expected = np.tile(np.arange(4.0), 4)
        assert np.array_equal(w.lifted_levels, expected)

    def test_lifted_levels_mutual_info(self):
        # Constraint on factors B and C of A x B x C with additive levels.
        w = resolve_wiring(SweepConfig(family="mutual-info", energy=2.0, seed=1))
        assert w.dims == (2, 2, 4)
        base = [float(i + j) for i in range(2) for j in range(4)]
        assert list(w.base_levels) == base
        assert np.array_equal(w.lifted_levels, np.tile(base, 2))

    def test_dim_shape_validation(self):
        with pytest.raises(ValidationError):
            resolve_wiring(SweepConfig(family="cond-entropy", energy=1.0, seed=1, dims=(4,)))
        with pytest.raises(ValidationError):
            resolve_wiring(SweepConfig(family="channel-mi", energy=1.0, seed=1, dims=(4, 2)))


class TestSamplers:
    def setup_method(self):
        self.lifted = np.arange(4.0)
        self.energy = 1.5
        anchor_p = _anchor_probabilities(self.lifted, LEVELS4, self.energy)
        self.anchor = (anchor_p, float(anchor_p @ self.lifted))

    def test_anchor_sits_below_cap(self):
        assert self.anchor[1] < self.energy

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
                          epsilons=(0.2,), dims=(3,), ensemble_size=3)
        report = run_sweep(cfg)
        assert len(report.rows) == 3
        assert report.violations == ()

    def test_pure_variant_runs(self):
        cfg = SweepConfig(family="entropy", energy=1.0, seed=9, trials=3,
                          epsilons=(0.2,), dims=(4, 2), sampler="pure", pure=True)
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
        d_in = resolve_wiring(config).channel.dim_in
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
# platform; a change here means dims, constraint axes, levels, bound
# model or default channel of a battery sweep drifted.
SUITE_DIGESTS = (
    ("entropy", False, "e73cabda8da94488aae73a270b8921ad04dfb538249c09c838810b07942b7274"),
    ("cond-entropy", False, "c32f6248ba7b18da112b33826f59916d8db7931241eea0744e32d2d3df42bec1"),
    ("mutual-info", False, "442b3c766064b8d8ca357e1f094b7b788b077d170b9c79fd47cd0c6d5c12590d"),
    ("gibbs-red", False, "45502f60b62a516102bf14779b48bf8f4d2f1b1cf4155f125cd2be9afae99aaa"),
    ("holevo", False, "343a0bbddedbadaba6256b931678cc40b2093b61230e08f4d59fd20016514e13"),
    ("channel-mi", False, "539c3343e3ce0dc01d111698de73863352976a5bad0dfb71ce9e570d1fe2f926"),
    ("channel-mi", False, "b8f7f16c6bbd4e27f6b64fb16b7d376221ca24054e28b69953b5d457f504e211"),
    ("channel-mi", False, "b2ecf845359bee92f9bad5f8c6b0623a88bb915c780cfd87ee8bb565c9afd778"),
    ("channel-mi", False, "f78fb984e4d952ec8f67854cc142bf113be4ea585c22dc8d7711cfc665526f0a"),
    ("channel-mi", False, "40a01160ebfc27685408cf995d15d2a55b6a78b6d81c54ffc36f65d621e07f68"),
    ("entropy", True, "e74b9da8b4232fa48d5825264342166b88216b2d6ec3368b711f0a696690801e"),
    ("cond-entropy", True, "792b8cdbf9174949ff0a1ec937f9bcc8f8ecdc593a7f78a1cbd862892eb9b32b"),
    ("mutual-info", True, "17c9884b6f4726bea2f3a133d0b0da962ad4b673aae4164dd9fbdcbb4f749db4"),
    ("gibbs-red", True, "a5271cbdf4dfa2a16b28f33b0c5df892505d279d006adbde7e6e518aa0928069"),
    ("channel-mi", True, "c48ea27a1738e46bffc0eae19d5a6122445001eb1c618293e61ef7c1d197d506"),
)


class TestSuite:
    @pytest.mark.parametrize("index", range(len(SUITE_DIGESTS)))
    def test_suite_digest_is_pinned(self, index):
        config = default_sweep_suite()[index]
        family, pure, digest = SUITE_DIGESTS[index]
        assert (config.family, config.pure) == (family, pure)
        assert config_digest(config) == digest
        assert config_digest(config, resolve_wiring(config)) == digest

    def test_default_suite_composition(self):
        suite = default_sweep_suite(trials=10)
        assert len(suite) == 15
        families = [c.family for c in suite]
        assert families.count("channel-mi") == 6
        assert sum(1 for c in suite if c.pure) == 5
        assert len({c.seed for c in suite}) == 15
        assert all(c.trials == 10 for c in suite)

    def test_run_suite_invokes_callback(self):
        configs = [small_config(trials=2, epsilons=(0.2,)),
                   small_config(trials=2, epsilons=(0.3,), seed=11)]
        seen = []
        reports = run_suite(configs, on_report=seen.append)
        assert len(reports) == 2
        assert seen == reports


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
