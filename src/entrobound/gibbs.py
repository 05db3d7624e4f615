"""Gibbs states, constrained entropy maxima, and spectrum growth diagnostics.

A spectrum model describes the eigenvalues of a (possibly unbounded)
Hamiltonian.  The maximum entropy among states with mean energy <= E is
attained by the Gibbs state at the inverse temperature lam(E) solving
the mean-energy equation, and equals ``lam * E + ln Z(lam)``.

ln Z is exact for explicit levels and oscillator modes.  A log-power
series is summed to its truncation and its remainder bounded by the
comparison integral, so its ln Z is an upper bound, and so is every F
taken from it: F(E) <= lam E + ln Z(lam) at every lam > 0 (the Gibbs
variational bound), however far the solve converged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import von_neumann_entropy
from .errors import NumericalError, ValidationError
from .operators import DensityMatrix, HermitianOperator, eig_hermitian

LAMBDA_FLOOR = 1e-8
LAMBDA_CAP = 1e4
DEFAULT_TRUNCATION = 4096
SOLVE_RTOL = 1e-9
# Loud-failure threshold: a truncated value whose tail exceeds this
# fraction of the value cannot be trusted.
TAIL_FRACTION_LIMIT = 1e-6
GROUND_TOL = 1e-12

SPECTRUM_KINDS = ("explicit", "oscillator", "logpower")


@dataclass(frozen=True)
class SpectrumModel:
    """Eigenvalue model of a Hamiltonian.

    kind="explicit":   a finite, explicitly listed spectrum (levels).
    kind="oscillator": independent harmonic modes with energies
                       hbar_omega_i (k + 1/2) per mode.
    kind="logpower":   unbounded spectrum E_k = ln(k)**q for k >= 1,
                       summed to ``truncation`` terms (default
                       DEFAULT_TRUNCATION); no other kind takes one.
    """

    kind: str
    levels: tuple[float, ...] | None = None
    frequencies: tuple[float, ...] | None = None
    q: float | None = None
    truncation: int | None = None

    def __post_init__(self):
        if self.kind not in SPECTRUM_KINDS:
            raise ValidationError(f"SpectrumModel: unknown kind {self.kind!r}")
        if self.kind != "logpower":
            if self.truncation is not None:
                raise ValidationError(
                    f"SpectrumModel: truncation applies only to a log-power spectrum; "
                    f"an {self.kind} spectrum has an exact ln Z"
                )
        elif self.truncation is None:
            object.__setattr__(self, "truncation", DEFAULT_TRUNCATION)
        elif type(self.truncation) is not int or self.truncation < 2:
            raise ValidationError(
                f"SpectrumModel: truncation must be an integer >= 2, got {self.truncation!r}"
            )
        if self.kind == "explicit":
            if not self.levels:
                raise ValidationError("SpectrumModel: explicit kind needs levels")
            levels = tuple(sorted(float(x) for x in self.levels))
            if not all(math.isfinite(x) for x in levels):
                raise ValidationError("SpectrumModel: non-finite level")
            object.__setattr__(self, "levels", levels)
        elif self.kind == "oscillator":
            if not self.frequencies:
                raise ValidationError("SpectrumModel: oscillator kind needs frequencies")
            freqs = tuple(float(x) for x in self.frequencies)
            if any(f <= 0 or not math.isfinite(f) for f in freqs):
                raise ValidationError(f"SpectrumModel: frequencies must be positive, got {freqs}")
            object.__setattr__(self, "frequencies", freqs)
        else:
            if self.q is None or not math.isfinite(self.q) or self.q <= 1.0:
                raise ValidationError(
                    f"SpectrumModel: logpower exponent must satisfy q > 1, got {self.q!r}"
                )

    @classmethod
    def explicit(cls, levels) -> "SpectrumModel":
        return cls(kind="explicit", levels=tuple(levels))

    @classmethod
    def oscillator(cls, frequencies) -> "SpectrumModel":
        if np.isscalar(frequencies):
            frequencies = (frequencies,)
        return cls(kind="oscillator", frequencies=tuple(frequencies))

    @classmethod
    def log_power(cls, q: float, truncation: int = DEFAULT_TRUNCATION) -> "SpectrumModel":
        return cls(kind="logpower", q=float(q), truncation=truncation)

    @property
    def ground_energy(self) -> float:
        if self.kind == "explicit":
            return self.levels[0]
        if self.kind == "oscillator":
            return 0.5 * sum(self.frequencies)
        return 0.0

    @property
    def ground_multiplicity(self) -> int:
        if self.kind == "explicit":
            e0 = self.levels[0]
            scale = max(1.0, abs(e0))
            return sum(1 for x in self.levels if abs(x - e0) <= GROUND_TOL * scale)
        return 1


def truncated_levels(model: SpectrumModel, n: int) -> np.ndarray:
    """First ``n`` eigenvalues of the model, ascending.

    For explicit models n may not exceed the listed count.  Multimode
    oscillators enumerate sums of per-mode levels.
    """
    if n < 1:
        raise ValidationError("truncated_levels: n must be >= 1")
    if model.kind == "explicit":
        if n > len(model.levels):
            raise ValidationError(
                f"truncated_levels: requested {n} levels, model lists {len(model.levels)}"
            )
        return np.asarray(model.levels[:n])
    if model.kind == "oscillator":
        freqs = model.frequencies
        if len(freqs) == 1:
            return freqs[0] * (np.arange(n) + 0.5)
        # The lowest n sums of two sorted lists only involve the lowest
        # n entries of each, so modes merge pairwise at width n.
        sums = np.zeros(1)
        for f in freqs:
            mode = f * (np.arange(n) + 0.5)
            sums = np.add.outer(sums, mode).reshape(-1)
            sums.sort()
            sums = sums[:n]
        return sums
    ks = np.arange(1, n + 1, dtype=float)
    return np.log(ks) ** model.q


# ---------------------------------------------------------------------------
# numerical kernels
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray) -> float:
    """ln sum(exp(a)) over a 1-D array, in scipy.special.logsumexp's arithmetic.

    The terms equal to the maximum are counted, not exponentiated:
    ln(count) + max + log1p(rest / count), which keeps the values of
    scipy 1.17 bit for bit.  Non-finite results fall back to the direct
    sum, as scipy's do.
    """
    a_max = np.max(a)
    at_max = a == a_max
    count = np.sum(at_max, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max))
        out = np.log1p(rest / count) + np.log(count) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def _softmax(x: np.ndarray) -> np.ndarray:
    """exp(x) / sum(exp(x)), shifted by the maximum as scipy.special.softmax is."""
    e = np.exp(x - np.max(x))
    return e / np.sum(e)


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    Only log-power spectra integrate, so the other spectra (and the CLI's
    start-up) never pay for importing scipy.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


# ---------------------------------------------------------------------------
# log-power integral comparisons
# ---------------------------------------------------------------------------


def _logpower_log_integral(q: float, lam: float, u0: float, power_weight: float = 0.0) -> float:
    """ln of integral_{u0}^inf u^power_weight * exp(u - lam u^q) du.

    Equals ln of integral_{exp(u0)}^inf (ln x)^power_weight
    exp(-lam ln(x)^q) dx after x = e^u.  The max exponent is factored
    out so tiny lam (huge peaks) cannot overflow.
    """
    if lam <= 0:
        raise ValidationError("logpower integral: lam must be positive")
    u0 = max(u0, 0.0)
    u_peak = (1.0 / (lam * q)) ** (1.0 / (q - 1.0))

    def phi(u):
        return u - lam * u**q

    center = max(u0, u_peak)
    top = phi(center)
    # Natural width of exp(phi) near the center: curvature scale at an
    # interior peak, gradient scale when the peak lies left of u0.  The
    # substitution u = center + scale * t keeps the integrand O(1)-wide
    # so quadrature cannot step over a narrow spike.
    curv = lam * q * (q - 1.0) * center ** (q - 2.0)
    grad_c = 1.0 - lam * q * center ** (q - 1.0)
    scale = 1.0 / max(math.sqrt(curv), abs(grad_c))

    center_pow = center**q
    log_w_center = power_weight * math.log(center) if power_weight else 0.0

    def beyond_linear(x):
        # expm1(q*log1p(x)) - q*x without cancellation for tiny x.
        if abs(x) < 1e-5:
            return q * (q - 1.0) * x * x * (0.5 + (q - 2.0) * x / 6.0)
        return math.expm1(q * math.log1p(x)) - q * x

    def integrand(t, sign):
        # phi(center + d) - top = d*grad_c - lam*center^q*beyond_linear(d/center),
        # exact in exact arithmetic; avoids subtracting two huge phi values.
        d = sign * scale * t
        x = d / center
        if x <= -1.0:
            return 0.0
        expo = d * grad_c - lam * center_pow * beyond_linear(x)
        if power_weight:
            expo += power_weight * math.log1p(x)
        return math.exp(min(expo, 700.0))

    # Mass beyond 1e3 width units is below exp(-1e3) of the peak in the
    # gradient-limited case and far below that in the curvature-limited
    # case, so a finite window loses nothing and keeps quad stable.
    t_max = 1e3
    total, _ = quad(integrand, 0.0, t_max, args=(1.0,), limit=200)
    if center > u0:
        t_left = min((center - u0) / scale, t_max)
        part, _ = quad(integrand, 0.0, t_left, args=(-1.0,), limit=200)
        total += part
    if total <= 0.0:
        raise NumericalError(
            f"logpower integral: quadrature collapsed at q={q}, lam={lam!r}, u0={u0!r}"
        )
    return top + log_w_center + math.log(scale * total)


def log_power_comparison_integral(q: float, lam: float) -> float:
    """I(lam) = integral_1^inf exp(-lam ln(x)^q) dx.

    The series sum_{k>=1} exp(-lam ln(k)^q) lies in [I(lam), I(lam) + 1]
    because the integrand decreases in x.
    """
    return math.exp(_logpower_log_integral(q, lam, 0.0))


def _logpower_series(q: float, lam: float, n: int) -> tuple[float, float]:
    """(ln of truncated series, ln of tail upper bound)."""
    ks = np.arange(1, n + 1, dtype=float)
    expo = -lam * np.log(ks) ** q
    log_s = _logsumexp(expo)
    log_tail = _logpower_log_integral(q, lam, math.log(n))
    return log_s, log_tail


def certified_growth_lower(q: float, lam: float) -> float | None:
    """Certified lower bound on lam * ln Z(lam) for log-power spectra, q <= 2.

    Termwise, exp(-lam ln(k)^q) >= exp(-lam ln(k)^2) for k >= 3 when
    q <= 2, so Sigma_q >= Sigma_2 - 2 >= I_2(lam) - 2, and the Gaussian
    integral gives I_2(lam) >= (sqrt(pi)/2) lam^{-1/2} exp(1/(4 lam)).
    """
    if q > 2.0:
        return None
    ln_i2_lb = math.log(math.sqrt(math.pi) / 2.0) - 0.5 * math.log(lam) + 0.25 / lam
    if q == 2.0:
        return lam * ln_i2_lb
    # Sigma_q >= I_2 - 2; keep only a positive certified value.
    correction = math.log1p(-2.0 * math.exp(-ln_i2_lb)) if ln_i2_lb > math.log(2.0) + 1e-9 else None
    if correction is None:
        return None
    return lam * (ln_i2_lb + correction)


# ---------------------------------------------------------------------------
# partition function, mean energy
# ---------------------------------------------------------------------------


def log_partition(model: SpectrumModel, lam: float) -> float:
    """ln Z(lam), exact or (log-power) a certified upper bound.

    Explicit spectra sum their levels.  Oscillator modes use the closed
    form sum(-x/2 - ln(1 - e^-x)), x = lam * frequency.  Log-power
    spectra sum N = truncation terms, S_N, and add the comparison
    integral T_N of the remainder: ln S_N + log1p(T_N / S_N).  The
    summand decreases in k, so T_N bounds the remainder from above.
    """
    if lam <= 0:
        raise ValidationError(f"log_partition: lam={lam!r} must be positive")
    if model.kind == "explicit":
        return _logsumexp(-lam * np.asarray(model.levels))
    if model.kind == "oscillator":
        return sum(-0.5 * lam * f - _log1mexp(-lam * f) for f in model.frequencies)
    log_s, log_tail = _logpower_series(model.q, lam, model.truncation)
    gap = log_tail - log_s
    if gap > 500.0:
        raise NumericalError(
            f"log_partition: truncation {model.truncation} hopeless for "
            f"logpower(q={model.q}) at lam={lam!r}; omitted tail dwarfs the sum"
        )
    return log_s + math.log1p(math.exp(gap))


def _log1mexp(log_x: float) -> float:
    """ln(1 - exp(log_x)) for log_x < 0, stable near both ends."""
    if log_x >= 0.0:
        raise ValidationError("log1mexp: argument must be negative")
    if log_x > -math.log(2.0):
        return math.log(-math.expm1(log_x))
    return math.log1p(-math.exp(log_x))


def mean_energy(model: SpectrumModel, lam: float) -> float:
    """Mean energy of the Gibbs distribution at inverse temperature lam.

    Decreasing in lam.  Truncated models fail loudly when the omitted
    tail could shift the value by more than TAIL_FRACTION_LIMIT
    relatively.
    """
    if lam <= 0:
        raise ValidationError(f"mean_energy: lam={lam!r} must be positive")
    if model.kind == "explicit":
        levels = np.asarray(model.levels)
        return float(_softmax(-lam * levels) @ levels)
    if model.kind == "oscillator":
        total = 0.0
        for f in model.frequencies:
            x = lam * f
            occupation = 1.0 / math.expm1(x) if x < 700.0 else 0.0
            total += f * (occupation + 0.5)
        return total
    n = model.truncation
    q = model.q
    ks = np.arange(1, n + 1, dtype=float)
    energies = np.log(ks) ** q
    expo = -lam * energies
    log_den = _logsumexp(expo)
    with np.errstate(divide="ignore"):
        log_num = _logsumexp(expo + np.log(energies))
    log_num_tail = _logpower_log_integral(q, lam, math.log(n), power_weight=q)
    log_den_tail = _logpower_log_integral(q, lam, math.log(n))
    worst = max(log_num_tail - log_num, log_den_tail - log_den)
    if worst > 0.0:
        raise NumericalError(
            f"mean_energy: truncation {n} insufficient for logpower(q={q}) at "
            f"lam={lam!r}; omitted tail exceeds the retained sum"
        )
    rel_tail = math.exp(log_num_tail - log_num) + math.exp(log_den_tail - log_den)
    if rel_tail > TAIL_FRACTION_LIMIT:
        raise NumericalError(
            f"mean_energy: truncation {n} insufficient for logpower(q={q}) at lam={lam!r}; "
            f"relative tail {rel_tail:.3e} exceeds {TAIL_FRACTION_LIMIT}"
        )
    return math.exp(log_num - log_den)


# ---------------------------------------------------------------------------
# inverse-temperature solve and entropy maxima
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsSolution:
    """Solution of the constrained entropy maximum at mean energy E."""

    lam: float
    energy: float
    f_value: float
    log_z: float
    flag: str | None = None


def solve_inverse_temperature(model: SpectrumModel, energy: float) -> GibbsSolution:
    """Solve mean_energy(lam) = energy by bracketed bisection.

    lam is clamped to [LAMBDA_FLOOR, LAMBDA_CAP]; a clamped solve is
    flagged rather than silently accepted.  Terminates when
    |mean_energy(lam) - energy| <= SOLVE_RTOL * max(1, |energy|).
    """
    ground = model.ground_energy
    scale = max(1.0, abs(ground))
    if energy < ground - 1e-9 * scale:
        raise ValidationError(
            f"solve_inverse_temperature: energy {energy!r} below the ground energy {ground!r}"
        )
    tol = SOLVE_RTOL * max(1.0, abs(energy))

    def build(lam: float, flag: str | None) -> GibbsSolution:
        log_z = log_partition(model, lam)
        return GibbsSolution(
            lam=lam,
            energy=energy,
            f_value=lam * energy + log_z,
            log_z=log_z,
            flag=flag,
        )

    def probe(lam: float) -> float:
        # A truncated series whose omitted tail dominates cannot be
        # evaluated, but its true mean energy lies beyond the last
        # retained level, so for bracketing it counts as +inf.
        try:
            return mean_energy(model, lam)
        except NumericalError:
            return math.inf

    if probe(LAMBDA_FLOOR) <= energy:
        return build(LAMBDA_FLOOR, "lambda_floor")
    if mean_energy(model, LAMBDA_CAP) >= energy:
        return build(LAMBDA_CAP, "lambda_cap")
    lo, hi = LAMBDA_FLOOR, 1.0
    while hi < LAMBDA_CAP and probe(hi) > energy:
        lo = hi
        hi = min(hi * 2.0, LAMBDA_CAP)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        value = probe(mid)
        if abs(value - energy) <= tol:
            return build(mid, None)
        if value > energy:
            lo = mid
        else:
            hi = mid
    raise NumericalError(
        f"solve_inverse_temperature: bisection did not reach |mean - E| <= {tol!r}"
    )


def max_entropy(model: SpectrumModel, energy: float) -> float:
    """Largest entropy among states of mean energy <= E, in nats.

    lam E + ln Z(lam) at the solved lam: an upper bound at any lam > 0,
    exact when ln Z is.  At E equal to the ground energy the value is
    ln(ground multiplicity) (a boundary extrapolation).  For explicit
    spectra with E at or above the uniform mean the constraint is
    inactive and the value is ln(d).
    """
    ground = model.ground_energy
    scale = max(1.0, abs(ground))
    if energy < ground - 1e-9 * scale:
        raise ValidationError(f"max_entropy: energy {energy!r} below the ground energy {ground!r}")
    if abs(energy - ground) <= GROUND_TOL * scale:
        return math.log(model.ground_multiplicity)
    return entropy_maximizer(model, energy).f_value


def entropy_maximizer(model: SpectrumModel, energy: float) -> GibbsSolution:
    """The Gibbs solution whose F max_entropy reports for E above the ground.

    For an explicit spectrum at E at or above the mean level the
    constraint is inactive: the maximizer is the uniform state (lam = 0,
    mean energy the mean level, F = ln Z = ln d).  Otherwise it is
    solve_inverse_temperature(model, E).
    """
    if model.kind == "explicit":
        uniform = float(np.mean(model.levels))
        if energy >= uniform:
            log_d = math.log(len(model.levels))
            return GibbsSolution(lam=0.0, energy=uniform, f_value=log_d, log_z=log_d)
    return solve_inverse_temperature(model, energy)


def oscillator_entropy_cap(frequencies, energy: float) -> float:
    """Closed-form upper bound on the oscillator max entropy at energy E.

    ell ( ln((E + E0) / (ell Estar)) + 1 ) with E0 the zero-point energy
    and Estar the geometric mean frequency; valid for E > E0.
    """
    if np.isscalar(frequencies):
        frequencies = (frequencies,)
    freqs = tuple(float(f) for f in frequencies)
    if not freqs or any(f <= 0 for f in freqs):
        raise ValidationError(f"oscillator_entropy_cap: invalid frequencies {freqs!r}")
    ell = len(freqs)
    e0 = 0.5 * sum(freqs)
    if energy <= e0:
        raise ValidationError(
            f"oscillator_entropy_cap: energy {energy!r} must exceed the zero-point energy {e0!r}"
        )
    e_star = math.exp(sum(math.log(f) for f in freqs) / ell)
    return ell * (math.log((energy + e0) / (ell * e_star)) + 1.0)


def gibbs_state(
    hamiltonian: HermitianOperator, lam: float | None = None, energy: float | None = None
) -> DensityMatrix:
    """Gibbs state of a dense Hamiltonian, by inverse temperature or energy.

    Exactly one of ``lam`` and ``energy`` must be given.
    """
    if (lam is None) == (energy is None):
        raise ValidationError("gibbs_state: give exactly one of lam and energy")
    w, v = eig_hermitian(hamiltonian)
    if lam is None:
        model = SpectrumModel.explicit(tuple(w))
        lam = solve_inverse_temperature(model, energy).lam
    if lam <= 0:
        raise ValidationError(f"gibbs_state: lam={lam!r} must be positive")
    probs = _softmax(-lam * w)
    return DensityMatrix((v * probs) @ v.conj().T)


def gibbs_family_distance(
    rho: DensityMatrix, hamiltonian: HermitianOperator, model: SpectrumModel | None = None
) -> float:
    """Relative-entropy distance from rho to the Gibbs family of H.

    Equals max_entropy(Tr(H rho)) - H(rho), which coincides with
    H(rho || gibbs_state(H, energy=Tr(H rho))).  No bound preset covers
    it: the Gibbs family is not convex, so the `ree` coefficients do not
    hold for it (the `gibbs-red` quantity is the relative entropy of
    coherence instead).
    """
    if rho.dim != hamiltonian.dim:
        raise ValidationError(
            f"gibbs_family_distance: dims differ ({rho.dim} vs {hamiltonian.dim})"
        )
    if model is None:
        model = SpectrumModel.explicit(tuple(np.linalg.eigvalsh(hamiltonian.matrix)))
    e = float(np.real(np.trace(hamiltonian.matrix @ rho.matrix)))
    value = max_entropy(model, e) - von_neumann_entropy(rho)
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# growth diagnostics
# ---------------------------------------------------------------------------

DEFAULT_LAMBDA_GRID = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)


@dataclass(frozen=True)
class GrowthReport:
    """Trend of lam * ln Z(lam) as lam decreases toward 0.

    The product tends to 0 exactly when the max entropy grows slower
    than sqrt(E), which is what the continuity bounds need.  ``verdict``
    is "consistent", "inconsistent", or "inconclusive";
    ``certified_lower`` (when present) is a proven lower bound on the
    product at the smallest grid point.
    """

    kind: str
    lambdas: tuple[float, ...]
    lambda_g: tuple[float, ...]
    energies: tuple[float, ...]
    f_values: tuple[float, ...]
    f_over_sqrt_e: tuple[float, ...]
    methods: tuple[str, ...]
    verdict: str
    certified_lower: float | None = None
    notes: tuple[str, ...] = ()


def entropy_growth_diagnostic(model: SpectrumModel, lambdas=None) -> GrowthReport:
    """Evaluate lam * ln Z on a descending grid and classify the trend.

    Levels are measured from the ground energy, which keeps ln Z
    nonnegative and the product's decay toward zero readable; F values
    are unaffected by the shift.  Log-power models switch from the
    truncated series to the two-sided comparison integral once the
    series tail stops being negligible, so small lam stays honest
    without astronomically many terms.
    """
    grid = tuple(float(x) for x in (lambdas if lambdas is not None else DEFAULT_LAMBDA_GRID))
    if not grid or any(x <= 0 for x in grid):
        raise ValidationError("entropy_growth_diagnostic: lambda grid must be positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("entropy_growth_diagnostic: lambda grid must be strictly descending")

    ground = model.ground_energy
    lambda_g = []
    energies = []
    f_values = []
    methods = []
    notes = []
    for lam in grid:
        g_val, method = _g_estimate(model, lam)
        e_val = _mean_energy_estimate(model, lam, method)
        g_shifted = g_val + lam * ground
        e_shifted = e_val - ground
        lambda_g.append(lam * g_shifted)
        energies.append(e_shifted)
        f_values.append(lam * e_shifted + g_shifted)
        methods.append(method)

    certified = None
    if model.kind == "logpower":
        certified = certified_growth_lower(model.q, grid[-1])

    ratios = [f / math.sqrt(e) if e > 0 else math.inf for f, e in zip(f_values, energies)]
    # The product may rise to an interior peak before decaying (the
    # oscillator peaks near lam ~ 0.8), so the trend is judged past the
    # peak: strictly decreasing from there with the final value at most
    # half the peak.
    peak = max(range(len(lambda_g)), key=lambda_g.__getitem__)
    tail_vals = lambda_g[peak:]
    decaying = len(tail_vals) >= 3 and all(b < a for a, b in zip(tail_vals, tail_vals[1:]))
    if certified is not None and certified > 0.1:
        verdict = "inconsistent"
        notes.append(
            f"certified lower bound {certified:.4f} on lam*lnZ at lam={grid[-1]} exceeds 0.1"
        )
    elif decaying and lambda_g[-1] <= 0.5 * lambda_g[peak]:
        verdict = "consistent"
    else:
        verdict = "inconclusive"
        if not decaying:
            notes.append("lam*lnZ does not decay past its peak over the grid")

    return GrowthReport(
        kind=model.kind,
        lambdas=grid,
        lambda_g=tuple(lambda_g),
        energies=tuple(energies),
        f_values=tuple(f_values),
        f_over_sqrt_e=tuple(ratios),
        methods=tuple(methods),
        verdict=verdict,
        certified_lower=certified,
        notes=tuple(notes),
    )


def _g_estimate(model: SpectrumModel, lam: float) -> tuple[float, str]:
    if model.kind != "logpower":
        return log_partition(model, lam), "series"
    # The truncated series serves while its remainder is negligible.
    log_s, log_tail = _logpower_series(model.q, lam, model.truncation)
    if log_tail - log_s <= math.log(max(1e-9 * abs(log_s), 1e-12)):
        return log_s, "series"
    log_i = _logpower_log_integral(model.q, lam, 0.0)
    lower = log_i
    upper = math.log(math.exp(log_i) + 1.0) if log_i < 700 else log_i
    return 0.5 * (lower + upper), "integral"


def _mean_energy_estimate(model: SpectrumModel, lam: float, method: str) -> float:
    if method == "series":
        try:
            return mean_energy(model, lam)
        except NumericalError:
            pass
    log_num = _logpower_log_integral(model.q, lam, 0.0, power_weight=model.q)
    log_den = _logpower_log_integral(model.q, lam, 0.0)
    return math.exp(log_num - log_den)


def log_power_growth_diagnostic(q: float, lambdas=None, truncation: int = DEFAULT_TRUNCATION) -> GrowthReport:
    """Growth diagnostic for the log-power spectrum E_k = ln(k)**q."""
    model = SpectrumModel.log_power(q, truncation=truncation)
    return entropy_growth_diagnostic(model, lambdas)
