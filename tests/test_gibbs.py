"""Gibbs machinery: partition functions, inverse-temperature solves,
max-entropy envelopes, growth diagnostics."""
import math

import numpy as np
import pytest
from scipy.special import erfc, logsumexp, softmax

import entrobound.gibbs as gibbs_mod

from entrobound.entropy import binary_entropy, relative_entropy, thermal_entropy, von_neumann_entropy
from entrobound.errors import NumericalError, ValidationError
from entrobound.gibbs import (
    DEFAULT_LAMBDA_GRID,
    LAMBDA_CAP,
    LAMBDA_FLOOR,
    SpectrumModel,
    _logsumexp,
    _softmax,
    certified_growth_lower,
    entropy_growth_diagnostic,
    entropy_maximizer,
    gibbs_family_distance,
    gibbs_state,
    log_partition,
    log_power_comparison_integral,
    log_power_growth_diagnostic,
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

    def test_logpower_requires_q_above_one(self):
        with pytest.raises(ValidationError):
            SpectrumModel.log_power(1.0)

    def test_ground_energy(self):
        assert TWO_LEVEL.ground_energy == 0.0
        assert SpectrumModel.oscillator((1.0, 2.0)).ground_energy == 1.5
        assert SpectrumModel.log_power(2.0).ground_energy == 0.0

    def test_ground_multiplicity(self):
        assert SpectrumModel.explicit((0.0, 0.0, 1.0)).ground_multiplicity == 2

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
        levels = tuple(np.sort(rng.uniform(0, 3, size=6)))
        model = SpectrumModel.explicit(levels)
        lam = 0.7
        expected = math.log(sum(math.exp(-lam * e) for e in levels))
        assert log_partition(model, lam) == pytest.approx(expected, abs=1e-12)

    def test_oscillator_matches_geometric_closed_form(self):
        # ln Z = -ln(2 sinh(lam f / 2)) per mode, summed to infinity.
        model = SpectrumModel.oscillator((1.0, 2.0))
        for lam in (0.9, 1e-3, 1e-6):
            exact = -sum(math.log(2 * math.sinh(lam * f / 2)) for f in (1.0, 2.0))
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

    def test_hopeless_truncation_fails_loudly(self):
        with pytest.raises(NumericalError):
            log_partition(SpectrumModel.log_power(1.2, truncation=50), 0.001)


class TestMeanEnergy:
    def test_two_level_closed_form(self):
        lam = math.log(3.0)
        assert mean_energy(TWO_LEVEL, lam) == pytest.approx(0.25, abs=1e-14)

    def test_oscillator_closed_form(self):
        lam = 0.8
        expected = 1.0 / math.expm1(0.8) + 0.5
        assert mean_energy(SINGLE_MODE, lam) == pytest.approx(expected, abs=1e-12)

    def test_matches_log_partition_derivative(self):
        # mean = -d ln Z / d lam, central difference at 1e-5 relative.
        for model in (TWO_LEVEL, SINGLE_MODE, SpectrumModel.log_power(3.0)):
            for lam in (0.4, 1.1):
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

    def test_hopeless_truncation_fails_loudly(self):
        with pytest.raises(NumericalError):
            mean_energy(SpectrumModel.log_power(1.2, truncation=50), 0.001)


class TestInverseTemperatureSolve:
    def test_two_level_frozen_oracle(self):
        sol = solve_inverse_temperature(TWO_LEVEL, 0.25)
        assert abs(sol.lam - math.log(3.0)) <= 1e-8
        assert abs(sol.f_value - binary_entropy(0.25)) <= 1e-8
        assert sol.flag is None

    def test_f_identity_holds(self, rng):
        # F = lam E + ln Z within 1e-9 for every solution.
        for _ in range(10):
            levels = tuple(np.sort(rng.uniform(0, 4, size=5)))
            model = SpectrumModel.explicit(levels)
            energy = rng.uniform(levels[0] + 0.05, float(np.mean(levels)) - 0.05)
            sol = solve_inverse_temperature(model, energy)
            log_z = log_partition(model, sol.lam)
            assert abs(sol.f_value - (sol.lam * energy + log_z)) <= 1e-9

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

    def test_rejects_energy_below_ground(self):
        with pytest.raises(ValidationError):
            solve_inverse_temperature(SINGLE_MODE, 0.3)

    def test_logpower_solve(self):
        sol = solve_inverse_temperature(SpectrumModel.log_power(3.0), 2.0)
        assert abs(mean_energy(SpectrumModel.log_power(3.0), sol.lam) - 2.0) <= 1e-8


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
        # 1e-10 relative at x = 1e6.
        for energy in (1.5, 200.0, 4e4, 1e6):
            x = energy - 0.5
            exact = math.log1p(x) + x * math.log1p(1.0 / x)
            assert max_entropy(SINGLE_MODE, energy) == pytest.approx(exact, rel=1e-12)


class TestEntropyMaximizer:
    def test_uniform_state_at_or_above_the_mean_level(self):
        model = SpectrumModel.explicit((0.0, 1.0, 2.0))
        for energy in (1.0, 1.7, 50.0):
            sol = entropy_maximizer(model, energy)
            assert sol.lam == 0.0
            assert sol.energy == 1.0
            assert sol.f_value == sol.log_z == math.log(3.0) == max_entropy(model, energy)
            assert sol.flag is None

    def test_solves_below_the_mean_level(self):
        model = SpectrumModel.explicit((0.0, 1.0, 2.0))
        assert entropy_maximizer(model, 0.5) == solve_inverse_temperature(model, 0.5)
        assert entropy_maximizer(SINGLE_MODE, 1.5) == solve_inverse_temperature(SINGLE_MODE, 1.5)


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
            got = log_power_comparison_integral(2.0, lam)
            assert abs(got - closed) <= 1e-12 * closed

    def test_series_within_integral_bracket_q3(self):
        # The summand decreases in k, so Sigma in [I, I + 1].
        model = SpectrumModel.log_power(3.0)
        for lam in (0.5, 0.2, 0.1):
            series = math.exp(log_partition(model, lam))
            integral = log_power_comparison_integral(3.0, lam)
            assert integral - 1e-9 <= series <= integral + 1.0 + 1e-9


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
        report = log_power_growth_diagnostic(3.0, lambdas=(0.5, 0.2, 0.1, 0.05, 0.02, 0.01))
        assert report.verdict == "consistent"

    def test_logpower_q2_inconsistent_with_certificate(self):
        report = log_power_growth_diagnostic(2.0, lambdas=(0.5, 0.2, 0.1))
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
        report = log_power_growth_diagnostic(1.5, lambdas=(0.5, 0.2, 0.1))
        assert report.verdict == "inconsistent"

    def test_short_truncation_switches_to_the_integral(self):
        # At lam = 0.01 a 100-term series is hopeless (log_partition
        # raises); the diagnostic reads the comparison integral instead.
        report = log_power_growth_diagnostic(1.5, lambdas=(0.1, 0.01), truncation=100)
        assert report.methods == ("integral", "integral")
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

    def test_logsumexp_non_finite_inputs_match(self):
        for a in ([-np.inf, -np.inf], [np.inf, 1.0], [np.nan, 1.0]):
            a = np.array(a)
            got, want = _logsumexp(a), float(logsumexp(a))
            assert got == want or (math.isnan(got) and math.isnan(want))


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
