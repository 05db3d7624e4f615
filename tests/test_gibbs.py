"""Gibbs machinery: partition functions, inverse-temperature solves,
max-entropy envelopes, growth diagnostics."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, logsumexp, softmax

import entrobound.gibbs as gibbs_mod

from entrobound.entropy import binary_entropy, relative_entropy, thermal_entropy, von_neumann_entropy
from entrobound.errors import NumericalError, ValidationError
from entrobound.gibbs import (
    DEFAULT_LAMBDA_GRID,
    GROUND_TOL,
    LAMBDA_CAP,
    LAMBDA_FLOOR,
    SOLVE_RTOL,
    SpectrumModel,
    _logsumexp,
    _softmax,
    certified_growth_lower,
    entropy_growth_diagnostic,
    entropy_maximizer,
    gibbs_family_distance,
    gibbs_state,
    log_partition,
    max_entropy,
    mean_energy,
    oscillator_entropy_cap,
    solve_inverse_temperature,
    truncated_levels,
)
from entrobound.operators import DensityMatrix, HermitianOperator
from conftest import random_density

TWO_LEVEL = SpectrumModel.explicit((0.0, 1.0))
SINGLE_MODE = SpectrumModel.oscillator((1.0,))


class TestSpectrumModel:
    def test_explicit_sorts_levels(self):
        m = SpectrumModel.explicit((2.0, 0.0, 1.0))
        assert m.levels == (0.0, 1.0, 2.0)

    def test_explicit_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            SpectrumModel.explicit((0.0, math.nan))

    def test_oscillator_rejects_nonpositive_frequency(self):
        with pytest.raises(ValidationError):
            SpectrumModel.oscillator((1.0, 0.0))

    @pytest.mark.parametrize("kind,spectrum", [("explicit", {"levels": (0.0, 1.0)}),
                                               ("oscillator", {"frequencies": (1.0,)})])
    def test_truncation_is_log_power_only(self, kind, spectrum):
        with pytest.raises(ValidationError, match="truncation applies only to a log-power"):
            SpectrumModel(kind=kind, truncation=4096, **spectrum)

    def test_levels_may_come_as_an_array_or_a_generator(self):
        levels = (0.0, 1.0, 2.5)
        assert SpectrumModel.explicit(np.array(levels)) == SpectrumModel.explicit(levels)
        assert SpectrumModel.explicit(x for x in levels) == SpectrumModel.explicit(levels)

    def test_logpower_requires_q_above_one(self):
        with pytest.raises(ValidationError):
            SpectrumModel.log_power(1.0)

    def test_ground_energy(self):
        assert TWO_LEVEL.ground_energy == 0.0
        assert SpectrumModel.oscillator((1.0, 2.0)).ground_energy == 1.5
        assert SpectrumModel.log_power(2.0).ground_energy == 0.0

    def test_ground_multiplicity(self):
        assert SpectrumModel.explicit((0.0, 0.0, 1.0)).ground_multiplicity == 2
        # Excitations meet plain GROUND_TOL, whatever E0: 9.5e-7 above
        # 1e6 is not ground (scaled by |E0| it once was).
        assert SpectrumModel.explicit((1e6, 1e6 + 2**-20, 1e6 + 1)).ground_multiplicity == 1
        assert SpectrumModel.explicit((-1e6,) * 2 + (-1e6 + 1,)).ground_multiplicity == 2

    def test_level_array_is_one_read_only_copy_of_the_sorted_levels(self):
        m = SpectrumModel.explicit((2.0, 0.0, 1.0))
        assert m.level_array.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError):
            m.level_array[0] = 5.0
        # The array holds excitations, the sorted levels less E0.
        assert SpectrumModel.explicit((3.0, 1.5, 2.0)).level_array.tolist() == [0.0, 0.5, 1.5]
        # Not a field: equality, hashing and repr read the tuple only.
        same = SpectrumModel.explicit((0.0, 1.0, 2.0))
        assert same == m and hash(same) == hash(m) and "level_array" not in repr(m)
        assert SINGLE_MODE.level_array is None
        assert SpectrumModel.log_power(2.0).level_array is None

    @pytest.mark.parametrize("make,energy", [
        (lambda: SpectrumModel.explicit(range(16)), 2.0),
        (lambda: SpectrumModel.oscillator((1.0, 1.5, 2.0)), 4.0),
        (lambda: SpectrumModel.log_power(2.5), 3.0),
    ], ids=["explicit", "oscillator3", "logpower"])
    def test_kept_constants_stay_out_of_equality_hash_and_repr(self, make, energy):
        # A solve keeps E0, the Newton start and the clamp ends' means on
        # the model; an equal model that never solved must still match it.
        solved, fresh = make(), make()
        text = repr(fresh)
        solve_inverse_temperature(solved, energy)
        solve_inverse_temperature(solved, 1e9)
        assert solved._end_means
        assert solved == fresh and hash(solved) == hash(fresh)
        assert repr(solved) == repr(fresh) == text

    def test_truncated_levels_oscillator(self):
        got = truncated_levels(SINGLE_MODE, 4)
        assert np.allclose(got, [0.5, 1.5, 2.5, 3.5])

    def test_truncated_levels_multimode_matches_bruteforce(self):
        model = SpectrumModel.oscillator((1.0, math.sqrt(2)))
        want = sorted(
            (i + 0.5) * 1.0 + (j + 0.5) * math.sqrt(2) for i in range(40) for j in range(40)
        )[:25]
        assert np.allclose(truncated_levels(model, 25), want)

    def test_truncated_levels_logpower_starts_at_zero(self):
        got = truncated_levels(SpectrumModel.log_power(2.0), 3)
        assert np.allclose(got, [0.0, math.log(2) ** 2, math.log(3) ** 2])


class TestPartitionFunction:
    def test_explicit_matches_direct_sum(self, rng):
        # ln Z of H - E0: the levels summed from their ground.
        levels = tuple(np.sort(rng.uniform(0, 3, size=6)))
        model = SpectrumModel.explicit(levels)
        lam = 0.7
        expected = math.log(sum(math.exp(-lam * (e - levels[0])) for e in levels))
        assert log_partition(model, lam) == pytest.approx(expected, abs=1e-12)

    def test_oscillator_matches_geometric_closed_form(self):
        # ln Z of H is -ln(2 sinh(lam f / 2)) per mode, summed to infinity;
        # that of H - E0 adds lam f / 2 per mode.
        model = SpectrumModel.oscillator((1.0, 2.0))
        for lam in (0.9, 1e-3, 1e-6):
            exact = -sum(math.log(2 * math.sinh(lam * f / 2)) - lam * f / 2 for f in (1.0, 2.0))
            assert log_partition(model, lam) == pytest.approx(exact, rel=1e-12)

    def test_logpower_bounds_the_series_from_above(self):
        # ln Z_N + log1p(T_N / S_N) lies between the series summed far
        # past N and S_N plus the remainder integral
        # T_N = integral_N^inf exp(-lam ln(x)^2) dx
        #     = e^{1/(4 lam)} sqrt(pi / lam) / 2 erfc(sqrt(lam) (ln N - 1/(2 lam))).
        n = 200
        model = SpectrumModel.log_power(2.0, truncation=n)
        logs = np.log(np.arange(1, 2_000_001, dtype=float))
        for lam in (1.3, 0.3, 0.05):
            terms = np.exp(-lam * logs**2)
            s_n = math.fsum(terms[:n])
            t_n = (math.exp(0.25 / lam) * math.sqrt(math.pi / lam) / 2
                   * erfc(math.sqrt(lam) * (math.log(n) - 0.5 / lam)))
            value = log_partition(model, lam)
            assert value >= math.log(math.fsum(terms)) - 1e-12
            assert value <= math.log(s_n + t_n) + 1e-12

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValidationError):
            log_partition(TWO_LEVEL, 0.0)

    def test_short_truncation_stays_finite(self):
        # At lam = 1e-3 the tail past N = 50 is e^(6.7e13) times the series,
        # and past N = 4096 just as much: the integral carries both ln Z.
        value = log_partition(SpectrumModel.log_power(1.2, truncation=50), 0.001)
        assert math.isfinite(value)
        assert value == pytest.approx(log_partition(SpectrumModel.log_power(1.2), 0.001), rel=1e-12)


class TestMeanEnergy:
    def test_two_level_closed_form(self):
        lam = math.log(3.0)
        assert mean_energy(TWO_LEVEL, lam) == pytest.approx(0.25, abs=1e-14)

    def test_oscillator_closed_form(self):
        # The mean occupation: the mean energy of H - E0 at unit frequency.
        lam = 0.8
        expected = 1.0 / math.expm1(0.8)
        assert mean_energy(SINGLE_MODE, lam) == pytest.approx(expected, abs=1e-12)

    def test_matches_log_partition_derivative(self):
        # mean = -d ln Z / d lam, central difference at 1e-5 relative.  At
        # lam = 0.002 the log-power tail integral is 18 times its series.
        logpower = SpectrumModel.log_power(3.0)
        cases = [(model, lam) for model in (TWO_LEVEL, SINGLE_MODE, logpower)
                 for lam in (0.4, 1.1)] + [(logpower, 0.002)]
        for model, lam in cases:
            h = 1e-6 * lam
            up = log_partition(model, lam + h)
            down = log_partition(model, lam - h)
            fd = -(up - down) / (2 * h)
            got = mean_energy(model, lam)
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(got))

    def test_strictly_decreasing_in_lam(self):
        for model in (TWO_LEVEL, SINGLE_MODE, SpectrumModel.log_power(2.5)):
            grid = [mean_energy(model, lam) for lam in (0.3, 0.6, 1.2, 2.4)]
            assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_short_truncation_stays_finite(self):
        assert math.isfinite(mean_energy(SpectrumModel.log_power(1.2, truncation=50), 0.001))

    @pytest.mark.parametrize("truncation", [4096, 50])
    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    def test_floor_mean_is_finite_and_above_the_next_decade(self, q, truncation):
        # Both logs of the ratio share the integral's peak exponent, 3.5e78
        # at q = 1.1; rounded before it cancels, their difference reads 0.
        model = SpectrumModel.log_power(q, truncation=truncation)
        floor = mean_energy(model, LAMBDA_FLOOR)
        assert math.isfinite(floor)
        assert floor > mean_energy(model, 1e-7)
        if q == 1.1:
            assert floor == pytest.approx(3.5049e87, rel=1e-4)


class TestInverseTemperatureSolve:
    def test_two_level_frozen_oracle(self):
        sol = solve_inverse_temperature(TWO_LEVEL, 0.25)
        assert abs(sol.lam - math.log(3.0)) <= 1e-8
        assert abs(sol.f_value - binary_entropy(0.25)) <= 1e-8
        assert sol.flag is None

    def test_f_identity_holds(self, rng):
        # F = lam (E - E0) + ln Z(H - E0) within 1e-9 for every solution.
        for _ in range(10):
            levels = tuple(np.sort(rng.uniform(0, 4, size=5)))
            model = SpectrumModel.explicit(levels)
            energy = rng.uniform(levels[0] + 0.05, float(np.mean(levels)) - 0.05)
            sol = solve_inverse_temperature(model, energy)
            log_z = log_partition(model, sol.lam)
            assert abs(sol.f_value - (sol.lam * (energy - levels[0]) + log_z)) <= 1e-9

    def test_oscillator_frozen_oracle(self):
        sol = solve_inverse_temperature(SINGLE_MODE, 1.5)
        assert abs(sol.f_value - 2 * math.log(2)) <= 1e-12

    def test_lambda_floor_flag_at_high_energy(self):
        sol = solve_inverse_temperature(TWO_LEVEL, 0.5)
        assert sol.flag == "lambda_floor"
        assert sol.lam == LAMBDA_FLOOR

    def test_lambda_cap_flag_at_ground(self):
        sol = solve_inverse_temperature(TWO_LEVEL, 0.0)
        assert sol.flag == "lambda_cap"
        assert sol.lam == LAMBDA_CAP
        # Below E0, within the accepted tolerance, the solve still reports
        # the cap's lam x + ln Z, which max_entropy no longer reads.
        sol = solve_inverse_temperature(TWO_LEVEL, -1e-10)
        assert (sol.lam, sol.flag, sol.f_value) == (LAMBDA_CAP, "lambda_cap", LAMBDA_CAP * -1e-10)

    def test_rejects_energy_below_ground(self):
        with pytest.raises(ValidationError):
            solve_inverse_temperature(SINGLE_MODE, 0.3)

    @pytest.mark.parametrize("model", [TWO_LEVEL, SINGLE_MODE, SpectrumModel.log_power(2.0)],
                             ids=["explicit", "oscillator", "logpower"])
    @pytest.mark.parametrize("energy", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_energy(self, model, energy):
        with pytest.raises(ValidationError, match="not finite"):
            solve_inverse_temperature(model, energy)

    def test_logpower_solve(self):
        sol = solve_inverse_temperature(SpectrumModel.log_power(3.0), 2.0)
        assert abs(mean_energy(SpectrumModel.log_power(3.0), sol.lam) - 2.0) <= 1e-8


@st.composite
def explicit_spectra(draw):
    """2-32 levels with gaps in [0.05, 5], sometimes a doubly degenerate ground."""
    ground = draw(st.floats(-10.0, 10.0))
    gaps = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=30))
    levels = [ground] * (2 if draw(st.booleans()) else 1)
    for gap in gaps:
        levels.append(levels[-1] + gap)
    return SpectrumModel.explicit(levels)


oscillator_spectra = st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4).map(
    SpectrumModel.oscillator)
# Position of E strictly between the ground and the mean level.
fractions = st.floats(1e-3, 1.0 - 1e-3)


def mean_level(model):
    return float(np.mean(model.levels))


def assert_solves(model, energy):
    # mean_energy and ln Z are of H - E0, so they meet the excess x = E - E0.
    sol = solve_inverse_temperature(model, energy)
    excess = energy - model.ground_energy
    assert sol.flag is None
    assert abs(mean_energy(model, sol.lam) - excess) <= SOLVE_RTOL * max(1.0, abs(excess))
    assert sol.f_value == sol.lam * excess + log_partition(model, sol.lam)
    # F is the minimum over lam of lam x + ln Z(lam), so the solved F
    # lies below that sum 1e-4 relative either side of the solved lam.
    for lam in (sol.lam * (1.0 - 1e-4), sol.lam * (1.0 + 1e-4)):
        phi = lam * excess + log_partition(model, lam)
        assert sol.f_value <= phi + 1e-12 * abs(phi), lam
    return sol


def counting_probes(monkeypatch):
    """Count calls of gibbs.mean_energy, the name every solver probe goes through."""
    calls = []
    real = gibbs_mod.mean_energy

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(gibbs_mod, "mean_energy", counting)
    return calls


class TestNewtonSolve:
    @given(model=explicit_spectra(), t=fractions)
    @settings(max_examples=150, deadline=None)
    def test_explicit_meets_the_tolerance(self, model, t):
        ground = model.ground_energy
        assert_solves(model, ground + t * (mean_level(model) - ground))

    @given(model=oscillator_spectra, excess=st.floats(1e-3, 1e3))
    @settings(max_examples=150, deadline=None)
    def test_oscillator_meets_the_tolerance(self, model, excess):
        assert_solves(model, model.ground_energy + excess)

    @given(model=explicit_spectra(), t=fractions, shift=st.floats(-20.0, 20.0))
    @settings(max_examples=150, deadline=None)
    def test_shifting_levels_and_energy_together_keeps_lam_and_f(self, model, t, shift):
        # F's own shift invariance: lam and lam E + ln Z do not see a
        # constant added to H and to E alike.
        ground = model.ground_energy
        energy = ground + t * (mean_level(model) - ground)
        sol = assert_solves(model, energy)
        moved = SpectrumModel.explicit(tuple(x + shift for x in model.levels))
        other = assert_solves(moved, energy + shift)
        assert other.lam == pytest.approx(sol.lam, rel=1e-9, abs=0.0)
        assert other.f_value == pytest.approx(sol.f_value, rel=1e-12, abs=1e-12)

    def test_two_levels_at_a_quarter_give_ln_3(self):
        assert solve_inverse_temperature(TWO_LEVEL, 0.25).lam == pytest.approx(
            math.log(3.0), rel=1e-12, abs=0.0)

    @given(omega=st.floats(0.1, 10.0), occupation=st.floats(1e-4, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_one_mode_gives_the_bose_einstein_lam(self, omega, occupation):
        energy = omega * (occupation + 0.5)
        sol = solve_inverse_temperature(SpectrumModel.oscillator((omega,)), energy)
        assert sol.lam == pytest.approx(math.log1p(1.0 / occupation) / omega, rel=1e-12, abs=0.0)

    @given(model=st.one_of(explicit_spectra(), oscillator_spectra))
    @example(model=SpectrumModel.explicit((5e-324, 5e-324, 1.0)))
    @settings(max_examples=80, deadline=None)
    def test_clamp_flags(self, model):
        # At the ground x = 0 lies at or below the cap's mean excitation,
        # so the cap is reported; a subnormal ground once rounded below
        # the cap's mean energy, but its excitations start from an exact
        # 0.  At or above the mean level (explicit) or far above any probe
        # (oscillator) the floor is.
        ground = model.ground_energy
        top = mean_level(model) if model.kind == "explicit" else 1e9 * len(model.frequencies)
        for energy, lam, flag in ((ground, LAMBDA_CAP, "lambda_cap"),
                                  (top, LAMBDA_FLOOR, "lambda_floor")):
            sol = solve_inverse_temperature(model, energy)
            assert (sol.flag, sol.lam) == (flag, lam)
            assert sol.f_value == sol.lam * (energy - ground) + log_partition(model, sol.lam)

    def test_probes_go_through_module_mean_energy(self, monkeypatch):
        # perfbench's tracer counts gibbs.mean_energy calls per solve.
        calls = counting_probes(monkeypatch)
        solve_inverse_temperature(SpectrumModel.oscillator((1.0, 1.5, 2.0)), 4.0)
        assert len(calls) > 2

    def test_probe_count_guard(self, monkeypatch):
        # Bisection took 30-50 probes per solve on this grid; the Newton
        # iteration must not drift back there.  With both clamp ends
        # probed before every solve the grid took 446 probes in all;
        # probing an end only when the iterates reach it took 414, 164 of
        # them at an end; keeping each end's mean on the model takes 255,
        # 5 of them at an end.  The tolerance measured from E0,
        # SOLVE_RTOL max(1, E - E0) rather than max(1, E), cost the
        # three-mode oscillator one more probe at E = 2.65; its start
        # midway between the lowest- and mean-frequency forms saves 4.
        calls = counting_probes(monkeypatch)
        models = (SpectrumModel.explicit(range(16)), SpectrumModel.oscillator((1.0,)),
                  SpectrumModel.oscillator((1.0, 1.5, 2.0)))
        worst = {}
        total = 0
        for model in models:
            for energy in np.geomspace(0.02, 60.0, 60):
                if energy <= model.ground_energy:
                    continue
                calls.clear()
                solve_inverse_temperature(model, float(energy))
                worst[model] = max(worst.get(model, 0), len(calls))
                total += len(calls)
        assert len(worst) == 3
        assert max(worst.values()) <= 12, worst
        assert total <= 255

    def test_a_model_that_has_solved_takes_one_probe_per_single_mode_solve(self, monkeypatch):
        # The start solves one mode exactly; the clamp checks that follow
        # read the ends' means the first solve kept.  Probing both ends
        # at every solve took 3 probes.
        model = SpectrumModel.oscillator((1.0,))
        solve_inverse_temperature(model, 2.0)
        calls = counting_probes(monkeypatch)
        for energy in (0.75, 5.0, 1e3):
            calls.clear()
            assert solve_inverse_temperature(model, energy).flag is None
            assert len(calls) == 1, calls

    @pytest.mark.parametrize("model", [SpectrumModel.explicit(range(16)),
                                       SpectrumModel.oscillator((1.0, 1.5, 2.0))],
                             ids=["explicit", "oscillator3"])
    def test_interior_solve_probes_at_most_one_clamp_end(self, monkeypatch, model):
        # A probe with mean beyond the tolerance above E rules the floor
        # out, one beyond it below rules the cap out; the iteration checks
        # only an end left open.
        calls = counting_probes(monkeypatch)
        sol = solve_inverse_temperature(model, model.ground_energy + 1.0)
        assert sol.flag is None
        ends = [lam for lam in calls if lam in (LAMBDA_FLOOR, LAMBDA_CAP)]
        assert len(ends) <= 1

    @pytest.mark.parametrize("model,energy,lam", [
        (SpectrumModel.log_power(2.0), 1e16, LAMBDA_FLOOR),
        (SINGLE_MODE, 1e9, LAMBDA_FLOOR),
        (SpectrumModel.explicit((0.0, 1e-6)), 2.5e-7, LAMBDA_CAP),
    ], ids=["logpower", "oscillator", "explicit"])
    def test_an_iterate_on_a_clamp_end_is_not_probed_again(self, monkeypatch, model, energy, lam):
        # The start clamps onto the end, whose probe then decides the flag.
        calls = counting_probes(monkeypatch)
        assert solve_inverse_temperature(model, energy).lam == lam
        assert calls == [lam]


PINNED_SPECTRA = {
    "explicit16": SpectrumModel.explicit(range(16)),
    "degenerate": SpectrumModel.explicit((0.0, 0.0, 1.0, 2.5)),
    "single": SpectrumModel.explicit((1.0,)),
    "flat": SpectrumModel.explicit((1.0, 1.0)),
    # E one ulp above E0: a cap solve while the mean of H at lam = 8.2
    # rounded to the cap's; measured from E0 it solves at lam = 7.9.
    "exacthit": SpectrumModel.explicit((0.1,) * 5 + (5.0,)),
    "mode": SINGLE_MODE,
    "modes3": SpectrumModel.oscillator((1.0, 1.5, 2.0)),
    # Its cap's mean lies 4.5e-8 above E0, so E0 + 1e-9 is a cap solve.
    "slowmode": SpectrumModel.oscillator((1e-3,)),
    # E a rounding away from an end's computed mean, where a probe just
    # past E does not rule that end out (capround: in H's own energies;
    # measured from E0 it solves at lam = 18.5).
    "floorround": SpectrumModel.explicit((0.15, 0.02, 0.4)),
    "capround": SpectrumModel.explicit((-6.133430415757047,) * 3 + (-4.2870595574733,)),
}
# (spectrum, E, lam, flag, F) of solve_inverse_temperature, floats in hex, as
# printed when both clamp ends were probed before every Newton solve; the
# 15 rows that moved when the solve came to read x = E - E0 alone (all
# with E0 != 0), and two modes3 rows that moved when several oscillator
# modes came to start midway to their mean-frequency form, as printed
# since.  Per spectrum E runs over: the float
# below E0 (where the ground check allows it), E0, E0 + 1e-9,
# E0 + mean_energy(LAMBDA_FLOOR) and its two neighbours, a mid-range E,
# and an E above the mean level (explicit) or twice the floor's mean
# (oscillators).  The last two rows come from a scan of E
# next to the ends' computed means.
SOLVE_PINS = [
    ("explicit16", "-0x0.0000000000001p-1022", "0x1.3880000000000p+13", 'lambda_cap', "-0x0.0000000002710p-1022"),
    ("explicit16", "0x0.0p+0", "0x1.3880000000000p+13", 'lambda_cap', "0x0.0p+0"),
    ("explicit16", "0x1.12e0be826d695p-30", "0x1.4b927f3304b3bp+4", None, "0x1.7533eefb92209p-26"),
    ("explicit16", "0x1.dfffff1bd471dp+2", "0x1.5798ee583c0e3p-27", None, "0x1.62e42fefa39edp+1"),
    ("explicit16", "0x1.dfffff1bd471ep+2", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e42fefa39ecp+1"),
    ("explicit16", "0x1.dfffff1bd471fp+2", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e42fefa39ecp+1"),
    ("explicit16", "0x1.2000000000000p+1", "0x1.71b6b351feaf1p-2", None, "0x1.00657d8dabc8bp+1"),
    ("explicit16", "0x1.1000000000000p+3", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e430051d2dfp+1"),
    ("degenerate", "-0x0.0000000000001p-1022", "0x1.3880000000000p+13", 'lambda_cap', "0x1.62e42fefa39efp-1"),
    ("degenerate", "0x0.0p+0", "0x1.3880000000000p+13", 'lambda_cap', "0x1.62e42fefa39efp-1"),
    ("degenerate", "0x1.12e0be826d695p-30", "0x1.407b5db308b45p+4", None, "0x1.62e430a449574p-1"),
    ("degenerate", "0x1.bfffffa612f9ap-1", "0x1.5798eeb102e9bp-27", None, "0x1.62e42fefa39efp+0"),
    ("degenerate", "0x1.bfffffa612f9bp-1", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e42fefa39eep+0"),
    ("degenerate", "0x1.bfffffa612f9cp-1", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e42fefa39eep+0"),
    ("degenerate", "0x1.0cccccccccccdp-2", "0x1.d3053274fbd55p-1", None, "0x1.28443b1e84d1dp+0"),
    ("degenerate", "0x1.e000000000000p+0", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e4301a96bcbp+0"),
    ("single", "0x1.fffffffffffffp-1", "0x1.3880000000000p+13", 'lambda_cap', "-0x1.3880000000000p-40"),
    ("single", "0x1.0000000000000p+0", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x0.0p+0"),
    ("single", "0x1.000000044b830p+0", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.70ef566490a35p-57"),
    ("single", "0x1.0000000000001p+0", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.5798ee2308c3ap-79"),
    ("single", "0x1.0000000000000p+1", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.5798ee2308c3ap-27"),
    ("flat", "0x1.fffffffffffffp-1", "0x1.3880000000000p+13", 'lambda_cap', "0x1.62e42fefa12dfp-1"),
    ("flat", "0x1.0000000000000p+0", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e42fefa39efp-1"),
    ("flat", "0x1.000000044b830p+0", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e42fefa39efp-1"),
    ("flat", "0x1.0000000000001p+0", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e42fefa39efp-1"),
    ("flat", "0x1.0000000000000p+1", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.62e4304589da8p-1"),
    ("mode", "0x1.fffffffffffffp-2", "0x1.3880000000000p+13", 'lambda_cap', "-0x1.3880000000000p-41"),
    ("mode", "0x1.0000000000000p-1", "0x1.3880000000000p+13", 'lambda_cap', "0x0.0p+0"),
    ("mode", "0x1.000000089705fp-1", "0x1.4b927f3a9c38bp+4", None, "0x1.7533ee52a4063p-26"),
    ("mode", "0x1.7d783fffffffep+26", "0x1.5798ee2308c3bp-27", None, "0x1.36bb1bbb55515p+4"),
    ("mode", "0x1.7d783ffffffffp+26", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.36bb1bbb55515p+4"),
    ("mode", "0x1.7d78400000000p+26", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.36bb1bbb55515p+4"),
    ("mode", "0x1.8000000000000p+0", "0x1.62e42fefa39efp-1", None, "0x1.62e42fefa39efp+0"),
    ("mode", "0x1.7d783ffffffffp+27", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.46bb1bbb55515p+4"),
    ("exacthit", "0x1.999999999999bp-4", "0x1.fab949a4e97d9p+2", None, "0x1.9c041f7ed8d33p+0"),
    ("modes3", "0x1.1ffffffffffffp+1", "0x1.3880000000000p+13", 'lambda_cap', "-0x1.3880000000000p-38"),
    ("modes3", "0x1.2000000000000p+1", "0x1.3880000000000p+13", 'lambda_cap', "0x0.0p+0"),
    ("modes3", "0x1.2000000225c18p+1", "0x1.4b95577f136c2p+4", None, "0x1.753414c0c0033p-26"),
    ("modes3", "0x1.1e1a2ffffffffp+28", "0x1.5798ee2308c3cp-27", None, "0x1.c94eb45ba9789p+5"),
    ("modes3", "0x1.1e1a300000000p+28", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.c94eb45ba9788p+5"),
    ("modes3", "0x1.1e1a300000001p+28", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.c94eb45ba9789p+5"),
    ("modes3", "0x1.a000000000000p+1", "0x1.2810b09a93f5dp+0", None, "0x1.d522ffe4dc088p+0"),
    ("modes3", "0x1.1e1a300000000p+29", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.e14eb45ba9788p+5"),
    ("slowmode", "0x1.0624dd2f1a9fbp-11", "0x1.3880000000000p+13", 'lambda_cap', "0x1.7cd9d1eb4f521p-15"),
    ("slowmode", "0x1.0624dd2f1a9fcp-11", "0x1.3880000000000p+13", 'lambda_cap', "0x1.7cd9d1eb76621p-15"),
    ("slowmode", "0x1.0624ff8b32701p-11", "0x1.3880000000000p+13", 'lambda_cap', "0x1.d0bca80f09b21p-15"),
    ("slowmode", "0x1.7d783fffffffep+26", "0x1.5798ee2308c3bp-27", None, "0x1.a5414621954fep+4"),
    ("slowmode", "0x1.7d783ffffffffp+26", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.a5414621954fep+4"),
    ("slowmode", "0x1.7d78400000000p+26", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.a5414621954fep+4"),
    ("slowmode", "0x1.0020c49ba5e35p+0", "0x1.ffbe81f5dea8dp-1", None, "0x1.fa20da0d0b5b6p+2"),
    ("slowmode", "0x1.7d783ffffffffp+27", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.b5414621954fep+4"),
    ("floorround", "0x1.851eb84960399p-3", "0x1.5798ee2308c3ap-27", 'lambda_floor', "0x1.193ea7aad030ap+0"),
    ("capround", "-0x1.888a1fb9fdf6fp+2", "0x1.281f4c07c8434p+4", None, "0x1.193ea7aad0357p+0"),
]


@pytest.mark.parametrize("name,energy,lam,flag,f_value", SOLVE_PINS)
def test_exact_spectrum_solve_pinned_bit_for_bit(name, energy, lam, flag, f_value):
    sol = solve_inverse_temperature(PINNED_SPECTRA[name], float.fromhex(energy))
    assert (sol.lam.hex(), sol.flag, sol.f_value.hex()) == (lam, flag, f_value)


@pytest.mark.parametrize("name,energy,lam,flag,f_value", SOLVE_PINS)
def test_max_entropy_reads_the_pinned_f(name, energy, lam, flag, f_value):
    # max_entropy builds no GibbsSolution; its F is the solve's bit for
    # bit, ln(ground multiplicity) at or below E0 + GROUND_TOL, or ln d where
    # an explicit E reaches the mean level.  entropy_maximizer reports it.
    model = PINNED_SPECTRA[name]
    e = float.fromhex(energy)
    excess = e - model.ground_energy
    if excess <= GROUND_TOL:
        f_value = math.log(model.ground_multiplicity).hex()
    elif model.kind == "explicit" and excess >= model.mean_excitation:
        f_value = math.log(len(model.levels)).hex()
    assert max_entropy(model, e).hex() == f_value
    assert max_entropy(model, e) == entropy_maximizer(model, e).f_value


@pytest.mark.parametrize("name,energy,lam,flag,f_value", SOLVE_PINS)
def test_pinned_f_is_within_4_ulps_of_a_60_digit_reference(name, energy, lam, flag, f_value):
    # lam (E - E0) + ln Z(H - E0) at the pinned lam, in 60-digit arithmetic.
    model = PINNED_SPECTRA[name]
    with mpmath.workdps(60):
        lam = mpmath.mpf(float.fromhex(lam))
        if model.kind == "explicit":
            ground = mpmath.mpf(model.ground_energy)
            log_z = mpmath.log(mpmath.fsum(mpmath.exp(-lam * (mpmath.mpf(x) - ground))
                                           for x in model.levels))
        else:
            ground = mpmath.fsum(model.frequencies) / 2
            log_z = -mpmath.fsum(mpmath.log(-mpmath.expm1(-lam * f)) for f in model.frequencies)
        want = lam * (mpmath.mpf(float.fromhex(energy)) - ground) + log_z
        error = abs(mpmath.mpf(float.fromhex(f_value)) - want)
        assert error <= 4 * math.ulp(float(want)), float(error / math.ulp(float(want)))


# F of solve_inverse_temperature(log_power(q), E) for E in geomspace(0.5, 40, 10),
# as the bisection on the truncated series' mean printed it; None where it
# refused because the solution needed more than N = 4096 terms.
SERIES_MEAN_F = {
    2.5: (1.2493412938192554, 1.5153371766259087, 1.8189206729722025, 2.1667848308347324,
          2.567213822150147, 3.0304857162577035, 3.569365671198912, None, None, None),
    3.0: (1.2225158498018762, 1.445752409401452, 1.6949705072481747, 1.9741624164907456,
          2.2880059959117958, 2.6420614001124845, 3.0429774799072797, 3.498717842579384,
          4.018811604644468, None),
}


class TestLogPowerSolve:
    # lam and F of the Newton iteration, which takes the bracket's
    # geometric midpoint at every log-power step.
    @pytest.mark.parametrize("q,energy,lam,f_value", [
        (2.5, 3.0, "0x1.1fc2c503d7dedp-2", "0x1.376524d90d8ecp+1"),
        (2.5, 10.0, "0x1.f538ef04ff214p-4", "0x1.d463f5483d5e1p+1"),
        (3.0, 2.0, "0x1.316cddecc9896p-2", "0x1.edecc3fe6b21bp+0"),
        (3.0, 25.0, "0x1.77e2f4c19cd27p-5", "0x1.0270dd591666ap+2"),
    ])
    def test_pinned_bit_for_bit(self, q, energy, lam, f_value):
        model = SpectrumModel.log_power(q)
        sol = solve_inverse_temperature(model, energy)
        assert (sol.lam.hex(), sol.f_value.hex(), sol.flag) == (lam, f_value, None)
        assert max_entropy(model, energy).hex() == f_value

    @given(q=st.floats(1.5, 4.0), energy=st.floats(0.5, 1e6))
    @settings(max_examples=20, deadline=None)
    def test_meets_the_tolerance(self, q, energy):
        assert_solves(SpectrumModel.log_power(q), energy)

    @pytest.mark.parametrize("q", sorted(SERIES_MEAN_F))
    def test_every_energy_solves_and_kept_values_stay(self, q):
        model = SpectrumModel.log_power(q)
        for energy, before in zip(np.geomspace(0.5, 40.0, 10), SERIES_MEAN_F[q]):
            sol = assert_solves(model, float(energy))
            if before is not None:
                assert sol.f_value == pytest.approx(before, rel=1e-12, abs=0.0)

    def test_formerly_refused_energy_gets_a_certified_f(self):
        # E / eps = 37.5 needs terms past N = 4096.  Every truncation's ln Z
        # bounds a longer one's from above, so F does too.
        sol = assert_solves(SpectrumModel.log_power(2.5), 37.5)
        longer = solve_inverse_temperature(SpectrumModel.log_power(2.5, truncation=100_000), 37.5)
        assert longer.f_value <= sol.f_value <= longer.f_value + 1e-6

    @pytest.mark.parametrize("q", [2.5, 3.0])
    def test_probe_count_guard(self, monkeypatch, q):
        # The bisection took 29-37 probes per solve on this grid.
        calls = counting_probes(monkeypatch)
        for energy in np.geomspace(0.5, 40.0, 10):
            calls.clear()
            solve_inverse_temperature(SpectrumModel.log_power(q), float(energy))
            assert len(calls) <= 37, energy

    def test_probe_count_guard_at_high_energy(self, monkeypatch):
        # Midpoints in ln lam keep the count flat in E; the bisection's
        # arithmetic midpoints took 54 probes at E = 1e12.
        calls = counting_probes(monkeypatch)
        for energy in np.geomspace(1.0, 1e12, 12):
            calls.clear()
            solve_inverse_temperature(SpectrumModel.log_power(2.0), float(energy))
            assert len(calls) <= 40, energy

    @pytest.mark.parametrize("q,energy", [(2.0, 2.9e5), (2.5, 7.7e6), (3.0, 2.2e8), (2.5, 1e9)])
    def test_tail_led_solution_matches_a_long_truncation(self, q, energy):
        # The solve probes lam where the integral past N = 4096 exceeds
        # the series by more than e^500; the solve still lands, unclamped,
        # on the F of a series about 50 times longer.
        sol = assert_solves(SpectrumModel.log_power(q), energy)
        longer = solve_inverse_temperature(SpectrumModel.log_power(q, truncation=200_000), energy)
        assert sol.f_value == pytest.approx(longer.f_value, rel=1e-9, abs=0.0)

    def test_exponent_near_one_matches_a_long_truncation(self):
        # At q = 1.001 the integrand's exponent once cancelled to ~1e-8
        # relative, and quad refused the tail integral.
        sol = assert_solves(SpectrumModel.log_power(1.001), 1e8)
        longer = solve_inverse_temperature(SpectrumModel.log_power(1.001, truncation=200_000), 1e8)
        assert sol.f_value == pytest.approx(longer.f_value, rel=1e-12, abs=0.0)
        assert sol.f_value == pytest.approx(98176614.53247863, rel=1e-12)

    def test_variance_needs_an_exact_log_partition(self):
        with pytest.raises(ValidationError, match="exact ln Z"):
            mean_energy(SpectrumModel.log_power(3.0), 1.0, variance=True)


class TestMaxEntropy:
    def test_two_level_frozen(self):
        assert max_entropy(TWO_LEVEL, 0.25) == pytest.approx(binary_entropy(0.25), abs=1e-8)

    def test_explicit_saturates_at_log_dim(self):
        model = SpectrumModel.explicit((0.0, 1.0, 2.0))
        assert max_entropy(model, 1.0) == pytest.approx(math.log(3), abs=1e-12)
        assert max_entropy(model, 2.5) == pytest.approx(math.log(3), abs=1e-12)

    def test_ground_energy_gives_log_multiplicity(self):
        model = SpectrumModel.explicit((0.0, 0.0, 1.0))
        assert max_entropy(model, 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_oscillator_thermal_identity(self):
        # F(E) = g(E - 1/2) for a unit-frequency mode.
        for energy in (0.8, 1.5, 3.0):
            assert max_entropy(SINGLE_MODE, energy) == pytest.approx(
                thermal_entropy(energy - 0.5), abs=1e-8
            )

    def test_concave_nondecreasing_grid(self):
        grid = np.linspace(0.6, 6.0, 30)
        values = [max_entropy(SINGLE_MODE, float(e)) for e in grid]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-10)
        assert np.all(np.diff(diffs) <= 1e-8)

    def test_two_mode_additivity(self):
        two = SpectrumModel.oscillator((1.0, 1.0))
        for energy in (0.9, 1.5, 2.5):
            lhs = max_entropy(two, 2 * energy)
            rhs = 2 * max_entropy(SINGLE_MODE, energy)
            assert abs(lhs - rhs) <= 1e-8

    def test_oscillator_exact_far_past_any_truncation(self):
        # F(E) = g(E - 1/2), with g(x) = log1p(x) + x log1p(1/x) free of
        # the cancellation that costs thermal_entropy's direct form about
        # 1e-10 relative at x = 1e6.  Near the ground, lam E + ln Z of H
        # cancelled about lam E0 and lost 1.3e-8 relative at x = 1e-9.
        for energy in (0.5 + 1e-9, 0.5 + 1e-6, 0.5 + 1e-3, 1.5, 200.0, 4e4, 1e6):
            x = energy - 0.5
            exact = math.log1p(x) + x * math.log1p(1.0 / x)
            assert max_entropy(SINGLE_MODE, energy) == pytest.approx(exact, rel=1e-12)


class TestEntropyMaximizer:
    # A spectrum whose levels are all ground has its mean level at E0,
    # where max_entropy's ln(ground multiplicity) is ln d too.
    @pytest.mark.parametrize("levels, energies", [
        ((0.0, 1.0, 2.0), (1.0, 1.7, 50.0, math.inf)),
        ((1.0,), (1.0,)), ((1.0, 1.0), (1.0, 3.0)), ((-3.0, -3.0, -3.0), (-3.0,)),
    ])
    def test_uniform_state_at_or_above_the_mean_level(self, levels, energies):
        model = SpectrumModel.explicit(levels)
        for energy in energies:
            sol = entropy_maximizer(model, energy)
            assert sol.lam == 0.0
            assert sol.energy == float(np.mean(levels))
            assert sol.f_value == sol.log_z == math.log(len(levels)) == max_entropy(model, energy)
            assert sol.flag is None

    @pytest.mark.parametrize("model, energy, log_g", [
        (SpectrumModel.explicit((0.0, 0.0, 1.0)), 0.0, math.log(2.0)),
        (SpectrumModel.explicit((-3.0, 1.0)), -3.0 - 1e-13, 0.0),
        # Within the accepted tolerance below E0 too: max_entropy read the
        # cap's lam x + ln Z there, -1e-06 for TWO_LEVEL and
        # -1.0000000827e-06 for the unit mode.
        (TWO_LEVEL, -1e-10, 0.0),
        (SpectrumModel.explicit((0.0, 0.0, 1.0)), -5e-10, math.log(2.0)),
        (SpectrumModel.explicit((2.0, 2.0)), 2.0 - 1e-9, math.log(2.0)),
        (SINGLE_MODE, 0.5 - 1e-10, 0.0),
        (SpectrumModel.oscillator((1.0, 1.5, 2.0)), 2.25 - 1e-9, 0.0),
        (SINGLE_MODE, 0.5, 0.0),
        (SpectrumModel.log_power(2.5), 0.0, 0.0),
    ])
    def test_ground_limit_takes_no_solve(self, monkeypatch, model, energy, log_g):
        monkeypatch.setattr(gibbs_mod, "_newton_solve", None)
        assert entropy_maximizer(model, energy) == gibbs_mod.GibbsSolution(
            lam=LAMBDA_CAP, energy=model.ground_energy, f_value=log_g, log_z=log_g,
            flag="lambda_cap")
        assert max_entropy(model, energy) == log_g

    def test_solves_below_the_mean_level(self):
        model = SpectrumModel.explicit((0.0, 1.0, 2.0))
        assert entropy_maximizer(model, 0.5) == solve_inverse_temperature(model, 0.5)
        assert entropy_maximizer(SINGLE_MODE, 1.5) == solve_inverse_temperature(SINGLE_MODE, 1.5)

    @pytest.mark.parametrize("model, energy", [(SpectrumModel.explicit((0.0, 1.0, 2.0)), math.nan),
                                               (SINGLE_MODE, math.inf), (SINGLE_MODE, math.nan)])
    def test_non_finite_energy_is_refused(self, model, energy):
        # The explicit uniform shortcut takes E = inf, never nan.
        with pytest.raises(ValidationError):
            entropy_maximizer(model, energy)
        with pytest.raises(ValidationError):
            max_entropy(model, energy)


class TestOscillatorCap:
    def test_frozen_single_mode(self):
        assert oscillator_entropy_cap((1.0,), 1.5) == pytest.approx(
            math.log(2) + 1.0, abs=1e-12
        )

    def test_dominates_exact_envelope_on_grid(self):
        for energy in np.linspace(0.6, 10.0, 50):
            f = max_entropy(SINGLE_MODE, float(energy))
            cap = oscillator_entropy_cap((1.0,), float(energy))
            assert cap >= f - 1e-9

    def test_multimode_formula(self):
        freqs = (1.0, 2.0, 4.0)
        e0 = 3.5
        e_star = 2.0
        energy = 6.0
        expected = 3 * (math.log((energy + e0) / (3 * e_star)) + 1)
        assert oscillator_entropy_cap(freqs, energy) == pytest.approx(expected, abs=1e-12)

    def test_takes_the_frequencies_spectrum_model_takes(self):
        assert oscillator_entropy_cap(1.0, 1.5) == oscillator_entropy_cap((1.0,), 1.5)
        with pytest.raises(ValidationError, match="frequencies must be a list of numbers"):
            oscillator_entropy_cap("1", 1.5)

    def test_rejects_energy_at_or_below_zero_point(self):
        with pytest.raises(ValidationError):
            oscillator_entropy_cap((1.0,), 0.5)


class TestGibbsState:
    def test_two_level_frozen(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        state = gibbs_state(h, energy=0.25)
        assert np.allclose(state.matrix, np.diag([0.75, 0.25]), atol=1e-8)

    def test_lam_route_matches_softmax(self, rng):
        from conftest import random_hermitian

        h = random_hermitian(rng, 4)
        lam = 0.8
        w, v = np.linalg.eigh(h.matrix)
        p = np.exp(-lam * w)
        p /= p.sum()
        expected = (v * p) @ v.conj().T
        got = gibbs_state(h, lam=lam)
        assert np.allclose(got.matrix, expected, atol=1e-12)

    def test_requires_exactly_one_parameter(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError):
            gibbs_state(h)
        with pytest.raises(ValidationError):
            gibbs_state(h, lam=1.0, energy=0.25)


class TestGibbsFamilyDistance:
    def test_zero_on_gibbs_state(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        state = gibbs_state(h, lam=0.9)
        assert gibbs_family_distance(state, h) <= 1e-7

    def test_pure_excited_state_frozen(self):
        # F(1) - 0 = ln 2 for the two-level Hamiltonian diag(0, 1).
        h = HermitianOperator(np.diag([0.0, 1.0]))
        rho = DensityMatrix(np.diag([0.0, 1.0]))
        assert gibbs_family_distance(rho, h) == pytest.approx(math.log(2), abs=1e-8)

    def test_dual_formula_random_qutrit(self, rng):
        # F(Tr H rho) - H(rho) equals the relative entropy to the
        # energy-matched Gibbs state.
        from conftest import random_hermitian

        h = random_hermitian(rng, 3)
        shift = HermitianOperator(h.matrix - np.linalg.eigvalsh(h.matrix)[0] * np.eye(3))
        for _ in range(5):
            rho = random_density(rng, 3)
            e = float(np.real(np.trace(shift.matrix @ rho.matrix)))
            direct = relative_entropy(rho, gibbs_state(shift, energy=e))
            via_f = gibbs_family_distance(rho, shift)
            assert abs(direct - via_f) <= 1e-7

    def test_nonnegative(self, rng):
        h = HermitianOperator(np.diag([0.0, 0.7, 1.9, 2.4]))
        for _ in range(10):
            assert gibbs_family_distance(random_density(rng, 4), h) >= -1e-9


def _log_integral(q, lam, u0, power_weight=0.0):
    """ln of the comparison integral: the sum of _logpower_integral_parts."""
    return sum(gibbs_mod._logpower_integral_parts(q, lam, u0, power_weight))


class TestLogPowerIntegral:
    def test_quadratic_case_matches_erfc_closed_form(self):
        # integral_1^inf exp(-lam ln(x)^2) dx
        #   = e^{1/(4 lam)} sqrt(pi) / (2 sqrt(lam)) erfc(-1/(2 sqrt(lam))).
        for lam in (0.5, 0.2, 0.1, 0.05, 0.01):
            closed = (
                math.exp(0.25 / lam)
                * math.sqrt(math.pi)
                / (2 * math.sqrt(lam))
                * erfc(-0.5 / math.sqrt(lam))
            )
            got = math.exp(_log_integral(2.0, lam, 0.0))
            assert abs(got - closed) <= 1e-12 * closed

    def test_series_within_integral_bracket_q3(self):
        # The summand decreases in k, so Sigma in [I, I + 1].
        model = SpectrumModel.log_power(3.0)
        for lam in (0.5, 0.2, 0.1):
            series = math.exp(log_partition(model, lam))
            integral = math.exp(_log_integral(3.0, lam, 0.0))
            assert integral - 1e-9 <= series <= integral + 1.0 + 1e-9

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 2.5, 3.0, 5.0])
    def test_gauss_kronrod_matches_tight_scipy_quad(self, q, monkeypatch):
        # The same integrand, substitution and window, integrated point by
        # point by QUADPACK at epsrel 1e-13; some small-lam cases overflow
        # to +inf in both.
        from scipy.integrate import quad as scipy_quad

        def reference(func, a, b, args=()):
            def scalar(t):
                return float(func(np.array(t), *args))
            return scipy_quad(scalar, a, b, epsabs=0.0, epsrel=1e-13, limit=2000)[0]

        cases = [(lam, u0, weight) for lam in 10.0 ** np.arange(-8, 5, 2)
                 for u0 in (0.0, math.log(10), math.log(4096), math.log(1e6))
                 for weight in (0.0, q)]
        got = [_log_integral(q, float(lam), u0, weight)
               for lam, u0, weight in cases]
        monkeypatch.setattr(gibbs_mod, "quad", reference)
        with np.errstate(over="ignore"):
            want = [_log_integral(q, float(lam), u0, weight)
                    for lam, u0, weight in cases]
        for case, g, w in zip(cases, got, want):
            assert g == w or abs(g - w) <= 1e-12, case

    def test_interior_peak_at_tiny_lam_is_finite(self):
        # Computed, the gradient at the peak rounds to 1e-16 at lam = 1e-7,
        # far above the 5e-36 curvature scale; the width must stay 2e35.
        u0 = math.log(4096)
        values = [_log_integral(1.1, lam, u0) for lam in (1e-8, 1e-7, 1e-6)]
        assert all(math.isfinite(v) for v in values)
        assert values[0] > values[1] > values[2]
        assert values[1] == pytest.approx(3.50494e68, rel=1e-5)

    def test_overflowing_peak_reads_infinite(self):
        # At q = 1.01 the peak's u^q passes the largest float below
        # lam = 8.8e-4: ln Z and the mean read +inf there, finite above.
        model = SpectrumModel.log_power(1.01)
        for lam in (LAMBDA_FLOOR, 8.7e-4):
            assert log_partition(model, lam) == mean_energy(model, lam) == math.inf
        assert math.isfinite(log_partition(model, 8.8e-4))
        assert 1e308 < mean_energy(model, 8.8e-4) < math.inf

    def test_exhausted_panel_budget_raises(self, monkeypatch):
        monkeypatch.setattr(gibbs_mod, "QUAD_PANEL_BUDGET", 20)
        with pytest.raises(NumericalError, match=r"panels.*q=3\.0, lam=0\.5, u0=0\.0"):
            _log_integral(3.0, 0.5, 0.0)


class TestGrowthDiagnostics:
    def test_oscillator_consistent(self):
        report = entropy_growth_diagnostic(SINGLE_MODE, lambdas=DEFAULT_LAMBDA_GRID)
        assert report.verdict == "consistent"
        peak = max(range(len(report.lambda_g)), key=report.lambda_g.__getitem__)
        tail = report.lambda_g[peak:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert report.lambda_g[-1] <= 0.5 * report.lambda_g[peak]
        assert min(report.lambda_g) >= 0.0

    def test_logpower_q3_consistent(self):
        report = entropy_growth_diagnostic(SpectrumModel.log_power(3.0),
                                           lambdas=(0.5, 0.2, 0.1, 0.05, 0.02, 0.01))
        assert report.verdict == "consistent"

    def test_logpower_q2_inconsistent_with_certificate(self):
        report = entropy_growth_diagnostic(SpectrumModel.log_power(2.0), lambdas=(0.5, 0.2, 0.1))
        assert report.verdict == "inconsistent"
        assert report.certified_lower is not None
        assert report.certified_lower > 0.1

    def test_certified_lower_frozen_value(self):
        # lam (ln(sqrt(pi)/2) - ln(lam)/2 + 1/(4 lam)) at lam = 0.1.
        expected = 0.1 * (math.log(math.sqrt(math.pi) / 2) + 0.5 * math.log(10.0) + 2.5)
        assert certified_growth_lower(2.0, 0.1) == pytest.approx(expected, abs=1e-12)
        assert abs(expected - 0.353051) < 1e-6

    def test_certified_lower_none_above_two(self):
        assert certified_growth_lower(3.0, 0.1) is None

    def test_logpower_q_one_and_a_half_inconsistent(self):
        report = entropy_growth_diagnostic(SpectrumModel.log_power(1.5), lambdas=(0.5, 0.2, 0.1))
        assert report.verdict == "inconsistent"

    def test_short_truncation_reads_the_certified_measure(self):
        # At lam = 0.01 the integral past N = 100 is e^(1.5e3) times the
        # series; the diagnostic reads the same ln Z and mean as the solve.
        lambdas = (0.1, 0.01)
        model = SpectrumModel.log_power(1.5, truncation=100)
        report = entropy_growth_diagnostic(model, lambdas=lambdas)
        assert report.lambda_g == tuple(lam * log_partition(model, lam) for lam in lambdas)
        assert report.energies == tuple(mean_energy(model, lam) for lam in lambdas)
        assert report.verdict == "inconsistent"


class TestScipyFreeKernels:
    """The numpy logsumexp/softmax equal scipy.special's bit for bit."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(20261018)
        vectors = []
        for n in (2, 3, 7, 64, 1000):
            vectors.append(rng.normal(size=n) * rng.uniform(0.1, 1e3))
            tied = rng.normal(size=n)
            tied[rng.choice(n, size=max(2, n // 4), replace=False)] = tied.max() + 1.0
            vectors.append(tied)
            vectors.append(np.round(rng.uniform(-5, 5, size=n)))
        vectors.append(np.array([0.37]))
        vectors.append(np.array([-1234.5]))
        ks = np.arange(1, 4097, dtype=float)
        for q in (1.5, 2.0, 3.0):
            for lam in (1e-8, 0.01, 0.5, 1.0, 30.0):
                vectors.append(-lam * np.log(ks) ** q)
        return vectors

    def test_logsumexp_bit_equal(self):
        for a in self._inputs():
            assert _logsumexp(a) == float(logsumexp(a))

    def test_softmax_bit_equal(self):
        for a in self._inputs():
            assert np.array_equal(_softmax(a), softmax(a))

    def test_logsumexp_with_minus_inf_term_bit_equal(self):
        # mean_energy's numerator: ln(E_1) = ln(0) = -inf for the log-power ground.
        ks = np.arange(1, 4097, dtype=float)
        energies = np.log(ks) ** 3.0
        with np.errstate(divide="ignore"):
            a = -0.5 * energies + np.log(energies)
        assert _logsumexp(a) == float(logsumexp(a))

    @pytest.mark.parametrize("a", [
        [2.0, -1.0, 2.0, 0.5, 2.0], [-np.inf, 0.3, -np.inf, -2.0], [-np.inf, -np.inf],
        [np.inf, 1.0], [np.inf, np.inf, 0.0], [np.nan, 1.0], [0.37], [-np.inf], [np.inf],
        [np.nan],
    ], ids=["ties-at-max", "minus-inf-entries", "all-minus-inf", "plus-inf", "two-plus-inf",
            "nan", "length-1", "length-1-minus-inf", "length-1-plus-inf", "length-1-nan"])
    def test_edge_inputs_match_scipy(self, a):
        a = np.array(a)
        with np.errstate(all="ignore"):
            got, want = _softmax(a), softmax(a)
        assert np.array_equal(got, want, equal_nan=True)
        got, want = _logsumexp(a), float(logsumexp(a))
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestExplicitKernels:
    """Explicit ln Z and mean energy keep the bits of _logsumexp and _softmax without their shift."""

    @given(model=explicit_spectra(), lam=st.floats(1e-8, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_log_partition_is_logsumexp_bit_for_bit(self, model, lam):
        a = -lam * model.level_array
        assert log_partition(model, lam) == _logsumexp(a) == float(logsumexp(a))

    @given(model=explicit_spectra(), lam=st.floats(1e-8, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_mean_energy_is_the_softmax_mean_bit_for_bit(self, model, lam):
        x = model.level_array
        probs = _softmax(-lam * x)
        mean = float(probs @ x)
        assert mean_energy(model, lam) == mean
        assert mean_energy(model, lam, variance=True) == (mean, float(probs @ (x - mean) ** 2))

    @pytest.mark.parametrize("levels", [(0.0, 5e-324, 0.5, 1.0, 2.0), (-1e-310, 0.0, 0.0, 2.0)])
    @pytest.mark.parametrize("lam", [1e-8, 0.1, 0.3, 1.0, 1e4])
    def test_an_excitation_whose_exponent_underflows_counts_with_the_ground(self, levels, lam):
        # lam x rounds to -0.0 for x = 5e-324 below lam = 0.5, and for
        # x = 1e-310 nowhere on this grid: _logsumexp then counts that
        # term at the maximum with the ground, and ln Z does too.  Summed
        # as a term of its own it moved ln Z by an ulp at lam = 0.1 and 0.3.
        model = SpectrumModel.explicit(levels)
        a = -lam * model.level_array
        assert log_partition(model, lam) == _logsumexp(a) == float(logsumexp(a))


class TestLazyQuadrature:
    def test_logpower_envelope_goes_through_module_quad(self, monkeypatch):
        # perfbench's tracer wraps gibbs.quad to count log-power quadratures.
        calls = []
        real = gibbs_mod.quad

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(gibbs_mod, "quad", counting)
        value = max_entropy(SpectrumModel.log_power(3.0), 2.0)
        assert calls
        monkeypatch.undo()
        assert max_entropy(SpectrumModel.log_power(3.0), 2.0) == value
