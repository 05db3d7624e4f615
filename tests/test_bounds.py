"""Continuity bound evaluators: presets, envelopes, the bound template."""
import dataclasses
import math
from functools import partial

import pytest

from entrobound.bounds import (
    BoundDescriptor,
    PRESETS,
    continuity_bound,
    continuity_bound_finite,
)
from entrobound.entropy import binary_entropy, thermal_entropy
from entrobound.errors import ValidationError
from entrobound.gibbs import SpectrumModel, max_entropy, oscillator_entropy_cap

SINGLE_MODE = SpectrumModel.oscillator((1.0,))
TWO_LEVEL = SpectrumModel.explicit((0.0, 1.0))
UNIT_CAP = partial(oscillator_entropy_cap, (1.0,))


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
    def test_oscillator_closed_form_frozen(self):
        # eps = 0.08, E = 1.5, unit mode: sqrt(2 eps) = 0.4,
        # cap = ln(E/eps + 1/2) + 1 = ln 19.25 + 1, additive = g(0.4).
        r = continuity_bound("entropy", UNIT_CAP, 0.08, 1.5)
        assert r.main_term == pytest.approx(1.5830044242935175, abs=1e-9)
        assert r.additive_term == pytest.approx(0.8375774240193601, abs=1e-9)
        assert r.value == pytest.approx(2.4205818483128776, abs=1e-9)
        assert r.f_argument == pytest.approx(18.75)

    def test_spectrum_backed_matches_exact_unit_mode(self):
        # F(E) = g(E - 1/2) for the unit oscillator, so the main term is
        # sqrt(2 eps) g(E/eps - 1/2) exactly.
        r = continuity_bound("entropy", SINGLE_MODE, 0.08, 1.5)
        assert r.main_term == pytest.approx(0.4 * thermal_entropy(18.25), rel=1e-12)

    def test_spectrum_never_exceeds_oscillator_cap(self):
        for eps in (0.01, 0.05, 0.1, 0.25, 0.5):
            exact = continuity_bound("entropy", SINGLE_MODE, eps, 2.0)
            cap = continuity_bound("entropy", UNIT_CAP, eps, 2.0)
            assert exact.value <= cap.value + 1e-12

    def test_value_is_sum_of_terms(self):
        r = continuity_bound("mutual-info", TWO_LEVEL, 0.2, 0.3)
        assert r.value == r.main_term + r.additive_term
        assert r.main_term == pytest.approx(2.0 * math.sqrt(0.4) * r.f_value, rel=1e-12)
        assert r.additive_term == pytest.approx(2.0 * thermal_entropy(math.sqrt(0.4)), rel=1e-12)

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
    @pytest.mark.parametrize("envelope", [TWO_LEVEL, UNIT_CAP], ids=["spectrum", "callable"])
    def test_rejects_non_finite_energy(self, envelope, energy):
        for eps in (0.0, 0.1):
            with pytest.raises(ValidationError, match="energy"):
                continuity_bound("entropy", envelope, eps, energy)

    def test_closed_form_cap_rejects_energy_below_zero_point(self):
        with pytest.raises(ValidationError, match="zero-point"):
            continuity_bound("entropy", UNIT_CAP, 0.5, 0.2)

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

    def test_matches_entropy_preset(self):
        # A callable envelope returning the solved F gives the spectrum result.
        def envelope(arg):
            return max_entropy(SINGLE_MODE, arg)

        for eps in (0.01, 0.08, 0.3, 0.5):
            via = continuity_bound("entropy", envelope, eps, 1.5)
            direct = continuity_bound("entropy", SINGLE_MODE, eps, 1.5)
            assert via == direct

    def test_matches_mutual_info_preset(self):
        def envelope(arg):
            return max_entropy(SINGLE_MODE, arg)

        for eps in (0.05, 0.25):
            for pure in (False, True):
                via = continuity_bound("mutual-info", envelope, eps, 1.5, pure=pure)
                direct = continuity_bound("mutual-info", SINGLE_MODE, eps, 1.5, pure=pure)
                assert via == direct


def _template(desc, delta, f_value):
    """delta (c- + c+) F + (1 + delta) (a + b) h2(delta / (1 + delta))."""
    slack = (1 + delta) * (desc.a_coeff + desc.b_coeff) * binary_entropy(delta / (1 + delta))
    return delta * (desc.c_minus + desc.c_plus) * f_value + slack


class TestReferenceTemplate:
    """Every evaluator against the template written out from the coefficients."""

    ENERGY = 1.5

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("envelope", [SINGLE_MODE, TWO_LEVEL, UNIT_CAP],
                             ids=["oscillator", "two-level", "closed-form"])
    def test_energy_constrained(self, preset, envelope):
        desc = PRESETS[preset]
        for eps, pure in ((0.01, False), (0.08, False), (0.5, False), (0.3, True)):
            eps_eff = 0.5 * eps * eps if pure else eps
            arg = self.ENERGY / eps_eff
            if isinstance(envelope, SpectrumModel):
                f_value = max_entropy(envelope, arg)
            else:
                f_value = oscillator_entropy_cap((1.0,), arg)
            want = _template(desc, math.sqrt(2 * eps_eff), f_value)
            got = continuity_bound(preset, envelope, eps, self.ENERGY, pure=pure)
            assert got.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_finite(self, preset):
        desc = PRESETS[preset]
        for dim, eps, pure in ((2, 0.01, False), (8, 0.3, False), (8, 1.0, False), (5, 0.9, True)):
            eps_eff = 0.5 * eps * eps if pure else eps
            want = _template(desc, eps_eff, math.log(dim))
            got = continuity_bound_finite(preset, dim, eps, pure=pure)
            assert got.value == pytest.approx(want, rel=1e-12)
