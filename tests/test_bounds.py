"""Continuity bound evaluators: presets, envelopes, the bound template."""
import dataclasses
import math

import numpy as np
import pytest

import entrobound.gibbs as gibbs_mod
from entrobound.bounds import (
    BoundDescriptor,
    BoundResult,
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
from entrobound.serialization import jsonable

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
        # A plain slotted record: its fields in this order, which jsonable
        # and `bound --json` print, and no instance dict.
        r = continuity_bound("entropy", TWO_LEVEL, 0.2, 0.3)
        fields = ("value", "main_term", "additive_term", "preset", "epsilon", "epsilon_effective",
                  "energy", "f_argument", "f_value", "pure")
        assert tuple(f.name for f in dataclasses.fields(BoundResult)) == fields
        assert tuple(jsonable(r)) == fields
        assert not hasattr(r, "__dict__")
        assert dataclasses.replace(r, value=1.0).value == 1.0

    def test_results_are_equal_when_their_fields_are(self):
        r = continuity_bound("entropy", SINGLE_MODE, 0.08, 1.5)
        assert r == continuity_bound("entropy", SINGLE_MODE, 0.08, 1.5)
        assert r == BoundResult(*(getattr(r, f.name) for f in dataclasses.fields(r)))
        assert r != dataclasses.replace(r, value=math.nextafter(r.value, math.inf))
        assert r != continuity_bound("entropy", SINGLE_MODE, 0.08, 1.5, pure=True)

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


# The spectra of BOUND_PINS: levels 0..15, the same levels lowered by 3.7,
# and one and three oscillator modes.
BOUND_SPECTRA = {
    "explicit16": SpectrumModel.explicit(range(16)),
    "shifted16": SpectrumModel.explicit([k - 3.7 for k in range(16)]),
    "mode": SINGLE_MODE,
    "modes3": SpectrumModel.oscillator((1.0, 1.5, 2.0)),
}
# (spectrum, preset, epsilon, E, pure, value, main_term, additive_term,
# f_argument, f_value) of continuity_bound, floats in hex, as the library
# printed them before the explicit probe, the explicit ln Z and BoundResult
# were reworked for speed.  Per spectrum six seeded queries, one per
# preset, pure at every second: epsilon log-uniform on [0.005, 0.5], E - E0
# uniform on [0.05, 4] (oscillators) or (E - E0)/eps_eff log-uniform on
# [0.02, 60] (explicit levels), the ranges of the perfbench envelope
# stream, so explicit rows both solve and take the shortcut at the mean
# level.  The last six rows take the ground branch (E at E0, or within the
# tolerance below it) and the shortcut.
BOUND_PINS = [
    ('explicit16', 'channel-mi', 0.007185567266713907, 0.0012503272957925626, False, '0x1.c2b56ef9eef63p-1', '0x1.e3c5e07aaf468p-4', '0x1.863cb2ea990d6p-1', '0x1.645ced83336edp-3', '0x1.f86f9da6eba1ep-2'),
    ('explicit16', 'ree', 0.012588864214681354, 0.0018593262612729771, True, '0x1.a471427f9de69p-4', '0x1.1dee744ef3720p-5', '0x1.157a0858242d9p-4', '0x1.776edb52c33dbp+4', '0x1.62e42fefa39efp+1'),
    ('explicit16', 'mutual-info', 0.024703094491933395, 0.7309159832439254, False, '0x1.322497d0c1983p+1', '0x1.3b88b0cb7a7cep+0', '0x1.28c07ed608b38p+0', '0x1.d96895a3c2ae8p+4', '0x1.62e42fefa39efp+1'),
    ('explicit16', 'holevo', 0.016721401509655568, 0.00012915971851660318, True, '0x1.b87dd81a390b6p-3', '0x1.6cec2a826fc27p-5', '0x1.5d42cd799d1acp-3', '0x1.d905bb37471fap-1', '0x1.54feb8ce7bb52p+0'),
    ('explicit16', 'entropy', 0.006460788556804855, 0.0032264085217301288, False, '0x1.e6f1941704486p-2', '0x1.bc3b0c0761914p-4', '0x1.77e2d1152be41p-2', '0x1.ff5e478add43ap-2', '0x1.e87ee8409f16ep-1'),
    ('explicit16', 'cond-entropy', 0.11638043508401211, 0.00014747611307662126, True, '0x1.974b03dff7ffep-2', '0x1.91c1a77dd1b26p-6', '0x1.7e2ee9681ae4cp-2', '0x1.64ca071f67f42p-6', '0x1.af83145ec63cap-4'),
    ('mode', 'holevo', 0.3888535405774665, 1.415388591347007, False, '0x1.8d2bbc0f7e495p+2', '0x1.cd5c435dfe2f9p+1', '0x1.4cfb34c0fe631p+1', '0x1.6d522d6448e25p+1', '0x1.0594227573940p+1'),
    ('mode', 'entropy', 0.22170762224898646, 1.5415580300217133, True, '0x1.a2330856ad4a8p+0', '0x1.0e123568ea392p+0', '0x1.2841a5db8622bp-1', '0x1.57087e9b66724p+5', '0x1.308904df61975p+2'),
    ('mode', 'cond-entropy', 0.0663321523983709, 0.6506787411904378, False, '0x1.211bb3aab7ab4p+1', '0x1.7792788a43d68p+0', '0x1.9549dd9657002p-1', '0x1.62c31be4ce84bp+1', '0x1.01c8c36541a34p+1'),
    ('mode', 'mutual-info', 0.1559502735625942, 3.9239562492046143, True, '0x1.7e3fa7b0e6a37p+1', '0x1.092d2ec9a9d8fp+1', '0x1.d449e39cf32a0p-1', '0x1.1a11d7f616753p+8', '0x1.a9190bc564ff9p+2'),
    ('mode', 'channel-mi', 0.2309692406941919, 4.466142750544777, False, '0x1.e1ed22298a53ep+2', '0x1.50d60c5b098ecp+2', '0x1.222e2b9d018a5p+1', '0x1.1abf6de890c9bp+4', '0x1.ef9839baf00a0p+1'),
    ('mode', 'ree', 0.48284967714574706, 1.5858689387010494, True, '0x1.42b54e4a6c813p+1', '0x1.95de92d3aea19p+0', '0x1.df18138254c1ap-1', '0x1.3a1498638c057p+3', '0x1.a44915fb0209ep+1'),
    ('modes3', 'channel-mi', 0.2786498666657223, 5.404396452595009, False, '0x1.7ec1d70e04600p+3', '0x1.3275d0371ece0p+3', '0x1.31301b5b96480p+1', '0x1.b23fca716be53p+3', '0x1.9a83fef369e2cp+2'),
    ('modes3', 'ree', 0.019025522789169195, 2.832539689687762, True, '0x1.0ee4625f34522p-1', '0x1.bcee243cfef70p-2', '0x1.836a8205a6b4dp-4', '0x1.929ed4bad3ef6p+11', '0x1.6d67ddcbcc43bp+4'),
    ('modes3', 'entropy', 0.02437008309588339, 2.5303808349568735, False, '0x1.004738ff92be8p+1', '0x1.6cd666cd9f77ap+0', '0x1.277016630c0adp-1', '0x1.b829fa69d4567p+3', '0x1.9d23886e393bap+2'),
    ('modes3', 'mutual-info', 0.006320054133810097, 4.827165675504304, True, '0x1.02b7929e4e22bp-1', '0x1.b6e75e4eb9822p-2', '0x1.3a1f1bb78b0d3p-4', '0x1.f814258c24239p+16', '0x1.0f4634cb90550p+5'),
    ('modes3', 'cond-entropy', 0.3861630998704257, 3.083615197676564, False, '0x1.99af702b8841ap+2', '0x1.4696a2ad5ba38p+2', '0x1.4c6335f8b2787p+0', '0x1.1a28596b00adcp+2', '0x1.739f024287f54p+1'),
    ('modes3', 'holevo', 0.07703707310108521, 2.6783049887061616, True, '0x1.529af4cfa4d80p+1', '0x1.0b966889522e0p+1', '0x1.1c1231194aa80p-1', '0x1.252d8c89c596fp+7', '0x1.b22fb138fe91ep+3'),
    ('shifted16', 'mutual-info', 0.01631628629178565, -3.184471665603692, False, '0x1.018b9875465d6p+1', '0x1.006fee053874fp+0', '0x1.02a742e55445cp+0', '0x1.be55c0cabf8b5p+4', '0x1.62e42fefa39efp+1'),
    ('shifted16', 'entropy', 0.3616857101541441, -3.6127670217720826, True, '0x1.5d53debb9d386p+0', '0x1.27174f962ba55p-1', '0x1.93906de10ecb6p-1', '-0x1.2ee3f0c0939f0p+1', '0x1.97f042146a56ep+0'),
    ('shifted16', 'ree', 0.12215347495370799, -3.665496136213752, False, '0x1.485c7160971e5p+0', '0x1.5638fc2c0004dp-2', '0x1.e59c64ab2e3a4p-1', '-0x1.b571d860f4439p+1', '0x1.5a2fe06141f71p-1'),
    ('shifted16', 'holevo', 0.02434509640862908, -3.699989612672511, True, '0x1.e6aecc377dd71p-3', '0x1.e895b2ba6e368p-8', '0x1.d76a1ea1aa656p-3', '-0x1.d51d05740fd13p+1', '0x1.39947ef7cef70p-3'),
    ('shifted16', 'cond-entropy', 0.06072204791620369, -3.6531905365443142, False, '0x1.9d9e903860074p+0', '0x1.b0b974123b8dfp-1', '0x1.8a83ac5e8480ap-1', '-0x1.76ed6065c8e75p+1', '0x1.366dfe97493e7p+0'),
    ('shifted16', 'channel-mi', 0.01777558754042238, -3.69998094605078, True, '0x1.8abb2e12c60ddp-3', '0x1.bdd5e15e56fb5p-7', '0x1.6eddcffce09e2p-3', '-0x1.ca2999704ffedp+1', '0x1.87e55747d8cbep-2'),
    ('explicit16', 'entropy', 0.1, 0.0, False, '0x1.ca271300b57b3p-1', '0x0.0p+0', '0x1.ca271300b57b3p-1', '0x0.0p+0', '0x0.0p+0'),
    ('shifted16', 'cond-entropy', 0.3, -3.7000000005, True, '0x1.678f541c4837cp-1', '0x0.0p+0', '0x1.678f541c4837cp-1', '-0x1.d99999999999ap+1', '0x0.0p+0'),
    ('mode', 'mutual-info', 0.05, 0.5, False, '0x1.7392f06b6abcap+0', '0x0.0p+0', '0x1.7392f06b6abcap+0', '0x1.0000000000000p-1', '0x0.0p+0'),
    ('modes3', 'holevo', 0.2, 2.2499999995, False, '0x1.16fd12e534164p+1', '0x0.0p+0', '0x1.16fd12e534164p+1', '0x1.2000000000000p+1', '0x0.0p+0'),
    ('explicit16', 'ree', 0.02, 0.8, False, '0x1.185e733dc49fcp+0', '0x1.1be9bff2e94bfp-1', '0x1.14d326889ff38p-1', '0x1.4000000000000p+5', '0x1.62e42fefa39efp+1'),
    ('shifted16', 'channel-mi', 0.4, -2.74, True, '0x1.f255394ef1409p+1', '0x1.1be9bff2e94bfp+1', '0x1.acd6f2b80fe94p+0', '0x1.0999999999998p+3', '0x1.62e42fefa39efp+1'),
]


@pytest.mark.parametrize(
    "name,preset,epsilon,energy,pure,value,main_term,additive_term,f_argument,f_value", BOUND_PINS)
def test_continuity_bound_pinned_bit_for_bit(name, preset, epsilon, energy, pure, value, main_term,
                                              additive_term, f_argument, f_value):
    r = continuity_bound(preset, BOUND_SPECTRA[name], epsilon, energy, pure=pure)
    assert (r.value.hex(), r.main_term.hex(), r.additive_term.hex(), r.f_argument.hex(),
            r.f_value.hex()) == (value, main_term, additive_term, f_argument, f_value)


def test_bound_pins_take_the_pinned_probes(monkeypatch):
    # gibbs.mean_energy and gibbs.log_partition calls of the BOUND_PINS
    # queries in order, on fresh models (no clamp-end mean kept), per
    # spectrum, as the library took them before the explicit probe and ln
    # Z were reworked; perfbench's gibbs.solve_probes.* read the same names.
    calls = []
    for name in ("mean_energy", "log_partition"):
        real = getattr(gibbs_mod, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(gibbs_mod, name, counting)
    fresh = {name: dataclasses.replace(model) for name, model in BOUND_SPECTRA.items()}
    counts = {}
    for name, preset, epsilon, energy, pure, *_ in BOUND_PINS:
        calls.clear()
        continuity_bound(preset, fresh[name], epsilon, energy, pure=pure)
        probes, log_zs = counts.get(name, (0, 0))
        counts[name] = (probes + calls.count("mean_energy"), log_zs + calls.count("log_partition"))
    # (mean_energy, log_partition): each spectrum has four to six solves;
    # the first oscillator solves of a fresh model also probe a clamp end.
    assert counts == {"explicit16": (9, 4), "shifted16": (10, 5), "mode": (8, 6), "modes3": (18, 6)}

