"""Continuity bound evaluators: presets, envelopes, the bound template."""
import dataclasses
import math

import numpy as np
import pytest

from entrobound.bounds import (
    BoundDescriptor,
    PRESETS,
    continuity_bound,
    continuity_bound_finite,
)
from entrobound.entropy import binary_entropy, thermal_entropy
from entrobound.errors import ValidationError
from entrobound.gibbs import (
    SpectrumModel,
    max_entropy,
    oscillator_entropy_cap,
    truncated_levels,
)

SINGLE_MODE = SpectrumModel.oscillator((1.0,))
TWO_LEVEL = SpectrumModel.explicit((0.0, 1.0))


class TestPresets:
    @pytest.mark.parametrize(
        "name,c_minus,c_plus,a,b",
        [
            ("entropy", 0.0, 1.0, 0.0, 1.0),
            ("cond-entropy", 1.0, 1.0, 0.0, 1.0),
            ("mutual-info", 0.0, 2.0, 1.0, 1.0),
            ("ree", 0.0, 1.0, 1.0, 0.0),
            ("channel-mi", 0.0, 2.0, 1.0, 1.0),
            ("holevo", 0.0, 2.0, 1.0, 1.0),
        ],
    )
    def test_coefficient_table_frozen(self, name, c_minus, c_plus, a, b):
        d = PRESETS[name]
        assert d.name == name
        assert d.c_minus == c_minus
        assert d.c_plus == c_plus
        assert d.a_coeff == a
        assert d.b_coeff == b

    def test_g_multiplier_consistent_with_slack_sum(self):
        for d in PRESETS.values():
            assert d.g_multiplier == d.a_coeff + d.b_coeff
        # Derived, never stored: a descriptor has no field to drift.
        assert "g_multiplier" not in {f.name for f in dataclasses.fields(BoundDescriptor)}

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValidationError):
            BoundDescriptor("bad", -0.5, 1.0, 0.0, 1.0)

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ValidationError, match="entropy"):
            continuity_bound_finite("no-such-preset", 4, 0.1)


class TestContinuityBound:
    def test_spectrum_backed_matches_exact_unit_mode(self):
        # F(E) = g(E - 1/2) for the unit oscillator, read at
        # 1/2 + (E - 1/2)/eps, so the main term is sqrt(2 eps) g((E - 1/2)/eps).
        r = continuity_bound("entropy", SINGLE_MODE, 0.08, 1.5)
        assert r.f_argument == 13.0
        assert r.main_term == pytest.approx(0.4 * thermal_entropy(12.5), rel=1e-12)

    @pytest.mark.parametrize("freqs", [(1.0,), (1.0, 1.5, 2.0)])
    def test_spectrum_never_exceeds_oscillator_cap(self, freqs):
        model = SpectrumModel.oscillator(freqs)
        for eps in (0.01, 0.05, 0.1, 0.25, 0.5):
            result = continuity_bound("entropy", model, eps, model.ground_energy + 1.5)
            assert result.f_value <= oscillator_entropy_cap(freqs, result.f_argument) + 1e-12

    def test_value_is_sum_of_terms(self):
        r = continuity_bound("mutual-info", TWO_LEVEL, 0.2, 0.3)
        assert r.value == r.main_term + r.additive_term
        assert r.main_term == pytest.approx(2.0 * math.sqrt(0.4) * r.f_value, rel=1e-12)
        assert r.additive_term == pytest.approx(2.0 * thermal_entropy(math.sqrt(0.4)), rel=1e-12)

    def test_result_is_slotted(self):
        r = continuity_bound("entropy", TWO_LEVEL, 0.2, 0.3)
        assert not hasattr(r, "__dict__")
        assert dataclasses.replace(r, value=1.0).value == 1.0

    def test_epsilon_zero_returns_zero(self):
        r = continuity_bound("entropy", TWO_LEVEL, 0.0, 1.0)
        assert r.value == 0.0
        assert r.main_term == 0.0
        assert r.additive_term == 0.0
        assert r.epsilon_effective == 0.0

    def test_pure_variant_equals_mixed_at_half_eps_squared(self):
        for eps in (0.04, 0.2, 0.5):
            pure = continuity_bound("entropy", SINGLE_MODE, eps, 1.5, pure=True)
            mixed = continuity_bound("entropy", SINGLE_MODE, 0.5 * eps * eps, 1.5)
            assert pure.value == pytest.approx(mixed.value, rel=1e-12)
            assert pure.epsilon_effective == pytest.approx(0.5 * eps * eps)
            assert pure.pure is True

    def test_rejects_epsilon_outside_range(self):
        with pytest.raises(ValidationError):
            continuity_bound("entropy", TWO_LEVEL, 0.6, 1.0)
        with pytest.raises(ValidationError):
            continuity_bound("entropy", TWO_LEVEL, -0.1, 1.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_energy(self, energy):
        for eps in (0.0, 0.1):
            with pytest.raises(ValidationError, match="energy"):
                continuity_bound("entropy", TWO_LEVEL, eps, energy)

    @pytest.mark.parametrize("model,energy,ground", [
        (SpectrumModel.explicit(range(-10, -2)), -10.05, -10.0),
        (SINGLE_MODE, 0.2, 0.5),
    ], ids=["negative-ground", "zero-point"])
    def test_rejects_energy_below_ground(self, model, energy, ground):
        # The message quotes the caller's E, not the F argument E0 + (E - E0)/eps.
        for eps in (0.0, 0.1):
            with pytest.raises(ValidationError) as info:
                continuity_bound("entropy", model, eps, energy)
            assert str(info.value) == (
                f"continuity_bound: energy {energy!r} below the ground energy {ground!r}")

    @pytest.mark.parametrize("model,energy,epsilon,pure", [
        (SINGLE_MODE, 1e308, 0.001, False),
        (SpectrumModel.explicit(range(16)), 1e305, 0.01, True),
        (SpectrumModel.log_power(2.5), 1.7e308, 0.5, False),
    ], ids=["oscillator", "explicit-pure", "logpower"])
    def test_rejects_an_overflowing_f_argument(self, model, energy, epsilon, pure):
        # E0 + (E - E0)/eps_eff is inf; the message names the caller's E and
        # epsilon, not the inf that the solve would see.
        with pytest.raises(ValidationError) as info:
            continuity_bound("entropy", model, epsilon, energy, pure=pure)
        assert str(info.value) == (
            f"continuity_bound: F's argument E0 + (E - E0)/epsilon overflows at energy "
            f"{energy!r} and epsilon {epsilon!r}; lower the energy or raise epsilon")

    def test_energy_at_ground_reads_the_ground_multiplicity(self):
        model = SpectrumModel.explicit((-1.0, -1.0, 0.0))
        for energy in (-1.0, -1.0 - 1e-10):
            r = continuity_bound("entropy", model, 0.1, energy)
            assert r.f_argument == -1.0
            assert r.f_value == math.log(2.0)


    def test_accepts_custom_descriptor(self):
        desc = BoundDescriptor("custom", 0.5, 0.5, 0.0, 0.0)
        r = continuity_bound(desc, TWO_LEVEL, 0.2, 0.4)
        assert r.preset == "custom"
        assert r.additive_term == 0.0


class TestFiniteBound:
    def test_dimension_example_frozen(self):
        # dim 8 at eps = 1: main = ln 8, additive = g(1) = 2 ln 2.
        r = continuity_bound_finite("entropy", 8, 1.0)
        assert r.main_term == pytest.approx(3 * math.log(2), abs=1e-12)
        assert r.additive_term == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_allows_epsilon_up_to_one(self):
        assert continuity_bound_finite("entropy", 4, 1.0).value > 0
        with pytest.raises(ValidationError):
            continuity_bound_finite("entropy", 4, 1.2)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            continuity_bound_finite("entropy", 0, 0.1)

    def test_pure_variant(self):
        pure = continuity_bound_finite("holevo", 6, 0.4, pure=True)
        mixed = continuity_bound_finite("holevo", 6, 0.08)
        assert pure.value == pytest.approx(mixed.value, rel=1e-12)

    def test_trivial_dimension_keeps_additive_term(self):
        r = continuity_bound_finite("entropy", 1, 0.3)
        assert r.main_term == 0.0
        assert r.additive_term == pytest.approx(thermal_entropy(0.3), rel=1e-12)


class TestEnvelopeEngine:
    def test_mixing_slack_identity(self):
        # (1 + x) h2(x / (1 + x)) = g(x) links the mixing slack to the
        # additive term.
        for x in (0.01, 0.4, 1.0, 3.0):
            lhs = (1 + x) * binary_entropy(x / (1 + x))
            assert lhs == pytest.approx(thermal_entropy(x), rel=1e-12)


class TestShiftInvariance:
    """The bound does not change when H and E move by the same constant."""

    @pytest.mark.parametrize("shift", [-10.0, -0.5, 3.7, 100.0, 1e9, -1e9, -999999999.7, -1e12])
    def test_explicit_levels(self, shift):
        # A shifted spectrum prints exactly what its own levels lowered by
        # their ground print at E lowered the same way; at the large
        # shifts both subtractions are exact, so the two are one spectrum
        # and one energy.  Small shifts also match the levels before the
        # shift, to rounding.
        rng = np.random.default_rng(17)
        presets = sorted(PRESETS)
        for _ in range(40):
            levels = np.sort(rng.uniform(0.0, 5.0, size=int(rng.integers(2, 12))))
            levels -= levels[0]
            preset = presets[int(rng.integers(len(presets)))]
            eps = float(rng.uniform(0.01, 0.5))
            pure = bool(rng.random() < 0.5)
            energy = float(rng.uniform(0.0, 3.0))
            shifted = levels + shift
            moved = continuity_bound(preset, SpectrumModel.explicit(shifted), eps,
                                     energy + shift, pure=pure)
            lowered = continuity_bound(preset, SpectrumModel.explicit(shifted - shifted[0]), eps,
                                       (energy + shift) - shifted[0], pure=pure)
            assert moved.value == lowered.value
            if abs(shift) <= 100.0:
                base = continuity_bound(preset, SpectrumModel.explicit(levels), eps, energy,
                                        pure=pure)
                assert moved.value == pytest.approx(base.value, rel=1e-12)
        # 1e-3 below E0 is refused at every shift; a tolerance that grew
        # with |E0| accepted it at the shifts of 1e9 and 1e12.
        for model in (SpectrumModel.explicit(shifted), SpectrumModel.explicit(shifted - shifted[0])):
            with pytest.raises(ValidationError, match="below the ground energy"):
                continuity_bound(preset, model, eps, model.ground_energy - 1e-3, pure=pure)

    @pytest.mark.parametrize("freqs,max_excess,cases", [
        ((1.0,), 50.0, ((0.01, 0.02, False), (0.08, 1.0, False), (0.3, 2.0, False),
                        (0.5, 0.5, False), (0.3, 2.0, True), (0.5, 1.5, True), (0.08, 0.1, True))),
        ((1.0, 1.5), 2.0, ((0.01, 0.01, False), (0.08, 0.1, False), (0.3, 0.5, False),
                           (0.5, 1.0, False), (0.5, 0.2, True))),
    ], ids=["one-mode", "two-mode"])
    def test_oscillator_matches_its_levels_from_zero(self, freqs, max_excess, cases):
        # The oscillator's lowest 4000 levels, lowered by E0: at an F
        # argument at most max_excess above E0, the levels cut off carry
        # less than 1e-15 of Z.
        model = SpectrumModel.oscillator(freqs)
        ground = model.ground_energy
        levels = SpectrumModel.explicit(truncated_levels(model, 4000) - ground)
        for eps, excess, pure in cases:
            got = continuity_bound("mutual-info", model, eps, ground + excess, pure=pure)
            want = continuity_bound("mutual-info", levels, eps, excess, pure=pure)
            assert got.f_argument - ground <= max_excess + 1e-12
            assert got.value == pytest.approx(want.value, rel=1e-12)

    def test_logpower_reads_e_over_epsilon(self):
        model = SpectrumModel.log_power(3.0)
        for eps, pure in ((0.08, False), (0.3, True)):
            r = continuity_bound("entropy", model, eps, 1.0, pure=pure)
            assert r.f_argument == 1.0 / r.epsilon_effective


def _template(desc, delta, f_value):
    """delta (c- + c+) F + (1 + delta) (a + b) h2(delta / (1 + delta))."""
    slack = (1 + delta) * (desc.a_coeff + desc.b_coeff) * binary_entropy(delta / (1 + delta))
    return delta * (desc.c_minus + desc.c_plus) * f_value + slack


class TestReferenceTemplate:
    """Every evaluator against the template written out from the coefficients."""

    ENERGY = 1.5

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("model", [SINGLE_MODE, TWO_LEVEL], ids=["oscillator", "two-level"])
    def test_energy_constrained(self, preset, model):
        desc = PRESETS[preset]
        ground = model.ground_energy
        for eps, pure in ((0.01, False), (0.08, False), (0.5, False), (0.3, True)):
            eps_eff = 0.5 * eps * eps if pure else eps
            arg = ground + (self.ENERGY - ground) / eps_eff
            want = _template(desc, math.sqrt(2 * eps_eff), max_entropy(model, arg))
            got = continuity_bound(preset, model, eps, self.ENERGY, pure=pure)
            assert got.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_finite(self, preset):
        desc = PRESETS[preset]
        for dim, eps, pure in ((2, 0.01, False), (8, 0.3, False), (8, 1.0, False), (5, 0.9, True)):
            eps_eff = 0.5 * eps * eps if pure else eps
            want = _template(desc, eps_eff, math.log(dim))
            got = continuity_bound_finite(preset, dim, eps, pure=pure)
            assert got.value == pytest.approx(want, rel=1e-12)
