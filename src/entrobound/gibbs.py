"""Gibbs states, constrained entropy maxima, and spectrum growth diagnostics.

A spectrum model describes the eigenvalues of a (possibly unbounded)
Hamiltonian H with ground energy E0.  This layer computes with one
energy, the excess x = E - E0: ``log_partition`` and ``mean_energy`` are
ln Z and the mean energy of H - E0, an explicit model keeps its
excitations, and the oscillator forms have no zero-point term.  The
maximum entropy among states with mean energy <= E0 + x is
F = lam x + ln Z(lam) at the lam solving mean_energy(lam) = x, which no
constant added to H and E alike can change.  An absolute E enters only
at ``max_entropy``, ``solve_inverse_temperature``, ``entropy_maximizer``
and ``bounds.continuity_bound``, each converting it once by
``excess_energy``.  Every spectrum takes one safeguarded Newton solve on
lam; a log-power spectrum, which has no exact variance, takes the
bracket's geometric midpoint at every step.

ln Z is exact for explicit levels and oscillator modes.  A log-power
series is summed to its truncation and its remainder bounded by the
comparison integral, so its ln Z is an upper bound, and so is every F
taken from it: F <= lam x + ln Z(lam) at every lam > 0 (the Gibbs
variational bound), however far the solve converged.  That series plus
integral is the one measure a log-power spectrum has, finite at every
lam > 0 and any truncation: its mean energy is -d ln Z / d lam of the
same ln Z, so the solve, ``gibbs --lam``, ``gibbs --energy`` and the
growth diagnostic all read one function.  The integral is an adaptive
Gauss-Kronrod rule in numpy (``quad``), so no spectrum imports scipy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .entropy import von_neumann_entropy
from .errors import NumericalError, ValidationError, as_real
from .operators import DensityMatrix, HermitianOperator, eig_hermitian

LAMBDA_FLOOR = 1e-8
LAMBDA_CAP = 1e4
DEFAULT_TRUNCATION = 4096
SOLVE_RTOL = 1e-9
GROUND_TOL = 1e-12
BELOW_GROUND_TOL = 1e-9

# The fields each kind takes, the first of them required.
KIND_FIELDS = {"explicit": ("levels",), "oscillator": ("frequencies",),
               "logpower": ("q", "truncation")}
_KIND_NAMES = {"explicit": "an explicit", "oscillator": "an oscillator", "logpower": "a log-power"}


def _numbers(values, field: str) -> tuple[float, ...]:
    """A list field as floats; ValidationError for a str or a value that is no list."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise ValidationError(f"SpectrumModel: {field} must be a list of numbers, got {values!r}")
    return tuple(as_real(x, f"SpectrumModel: an entry of {field}") for x in values)


@dataclass(frozen=True)
class SpectrumModel:
    """Eigenvalue model of a Hamiltonian.

    kind="explicit":   a finite, explicitly listed spectrum (levels).
    kind="oscillator": independent harmonic modes with energies
                       hbar_omega_i (k + 1/2) per mode.
    kind="logpower":   unbounded spectrum E_k = ln(k)**q for k >= 1,
                       summed to ``truncation`` terms (default
                       DEFAULT_TRUNCATION).

    Each kind takes the fields KIND_FIELDS names, the first of them
    required, and refuses any other field it is given.  Values must be
    numbers (a str, bool or None is refused); a single number stands for
    a one-mode list of frequencies.

    An explicit model also keeps its excitations (sorted levels less E0)
    as one read-only array, ``level_array`` (None for the other kinds),
    which every mean-energy probe reads.  The constants the solve and ln Z
    read are kept the same way, outside the fields, so equality, hashing
    and repr see the fields only; each is computed when first read:
    ``ground_energy``, ``mean_excitation`` (the uniform state's, None
    unless explicit), ``_newton_start`` (the mode count and the gaps the
    start reads), ``_ground_split`` (what an explicit ln Z reads) and, in
    ``_end_means``, the mean energy at each clamp end.  A solve computes
    an end's mean only when it has to check that end, or when an iterate
    lands on it, and keeps it, so the clamp checks probe each end at most
    once per model.
    """

    kind: str
    levels: tuple[float, ...] | None = None
    frequencies: tuple[float, ...] | None = None
    q: float | None = None
    truncation: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KIND_FIELDS:
            raise ValidationError(f"SpectrumModel: unknown kind {self.kind!r}")
        takes = KIND_FIELDS[self.kind]
        for kind, names in KIND_FIELDS.items():
            for name in names:
                if kind != self.kind and getattr(self, name) is not None:
                    raise ValidationError(
                        f"SpectrumModel: {name} applies only to {_KIND_NAMES[kind]} spectrum; "
                        f"{_KIND_NAMES[self.kind]} spectrum takes "
                        + ", ".join(repr(n) for n in takes))
        if getattr(self, takes[0]) is None:
            raise ValidationError(
                f"SpectrumModel: {_KIND_NAMES[self.kind]} spectrum needs {takes[0]!r}")
        level_array = None
        if self.kind == "explicit":
            levels = tuple(sorted(_numbers(self.levels, "levels")))
            if not levels:
                raise ValidationError("SpectrumModel: an explicit spectrum needs levels")
            if not all(math.isfinite(x) for x in levels):
                raise ValidationError("SpectrumModel: non-finite level")
            object.__setattr__(self, "levels", levels)
            level_array = np.array(levels) - levels[0]
            level_array.flags.writeable = False
        elif self.kind == "oscillator":
            freqs = self.frequencies
            if np.isscalar(freqs) and not isinstance(freqs, (str, bytes)):
                freqs = (freqs,)
            freqs = _numbers(freqs, "frequencies")
            if not freqs:
                raise ValidationError("SpectrumModel: an oscillator spectrum needs frequencies")
            if any(f <= 0 or not math.isfinite(f) for f in freqs):
                raise ValidationError(f"SpectrumModel: frequencies must be positive, got {freqs}")
            object.__setattr__(self, "frequencies", freqs)
        else:
            q = as_real(self.q, "SpectrumModel: the logpower exponent q")
            if not math.isfinite(q) or q <= 1.0:
                raise ValidationError(
                    f"SpectrumModel: logpower exponent must satisfy q > 1, got {q!r}"
                )
            object.__setattr__(self, "q", q)
            if self.truncation is None:
                object.__setattr__(self, "truncation", DEFAULT_TRUNCATION)
            elif type(self.truncation) is not int or self.truncation < 2:
                raise ValidationError(
                    f"SpectrumModel: truncation must be an integer >= 2, got {self.truncation!r}"
                )
        # Not dataclass fields, so equality, hashing and repr see the tuple only.
        object.__setattr__(self, "level_array", level_array)
        object.__setattr__(self, "_end_means", {})

    @classmethod
    def explicit(cls, levels) -> "SpectrumModel":
        return cls(kind="explicit", levels=levels)

    @classmethod
    def oscillator(cls, frequencies) -> "SpectrumModel":
        return cls(kind="oscillator", frequencies=frequencies)

    @classmethod
    def log_power(cls, q: float, truncation: int = DEFAULT_TRUNCATION) -> "SpectrumModel":
        return cls(kind="logpower", q=q, truncation=truncation)

    @cached_property
    def ground_energy(self) -> float:
        if self.kind == "explicit":
            return self.levels[0]
        if self.kind == "oscillator":
            return 0.5 * sum(self.frequencies)
        return 0.0

    @cached_property
    def mean_excitation(self) -> float | None:
        """Mean excitation of the uniform state over explicit levels; None for the other kinds."""
        return float(self.level_array.mean()) if self.kind == "explicit" else None

    @cached_property
    def _newton_start(self) -> tuple[int, float | None, float | None]:
        """(modes, lowest excitation or None, mean frequency of several modes or None)."""
        if self.kind == "explicit":
            return 1, next((float(x) for x in self.level_array if x > 0.0), None), None
        if self.kind == "oscillator":
            freqs = self.frequencies
            return len(freqs), min(freqs), sum(freqs) / len(freqs) if len(freqs) > 1 else None
        return 1, math.log(2.0) ** self.q, None

    @cached_property
    def _ground_split(self) -> tuple[np.ndarray, np.float64, np.float64]:
        """(excitations with +inf at the ground entries, the ground count, its ln), explicit only."""
        ground = self.level_array == 0.0
        count = ground.sum(dtype=float)
        excited = np.where(ground, np.inf, self.level_array)
        excited.flags.writeable = False
        return excited, count, np.log(count)

    @property
    def ground_multiplicity(self) -> int:
        return int(np.count_nonzero(self.level_array <= GROUND_TOL)) if self.kind == "explicit" else 1


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
    scipy 1.17 bit for bit.  That sum is finite whenever the maximum is;
    an array whose maximum is not (all -inf, or an entry +inf or nan)
    takes the direct sum, as scipy's fallback does.
    """
    a_max = a.max()
    if not math.isfinite(a_max):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return float(np.log(np.exp(a).sum()))
    at_max = a == a_max
    count = at_max.sum(dtype=float)
    rest = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
    return float(np.log1p(rest / count) + np.log(count) + a_max)


def _softmax(x: np.ndarray) -> np.ndarray:
    """exp(x) / sum(exp(x)), shifted by the maximum as scipy.special.softmax is."""
    e = np.exp(x - x.max())
    return e / e.sum()


# QUADPACK qk15: the Kronrod nodes in (0, 1] with the centre last (their
# negatives complete the rule), the Kronrod weights, and the weights of
# the 7-point Gauss rule on every other node.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_GK_NODES = np.concatenate((np.negative(_XGK), _XGK[-2::-1]))
_GK_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1::2] = _WG + _WG[-2::-1]
# Columns: the Kronrod estimate and its difference from the Gauss estimate.
_GK_WEIGHTS = np.stack((_GK_KRONROD, _GK_KRONROD - _GK_GAUSS), axis=1)
# Initial panel edges past the lower limit, a doubling grid 1/4, 1/2, ..., 512.
_GK_GRID = 0.25 * 2.0 ** np.arange(12)
QUAD_RTOL = 1e-13
QUAD_PANEL_BUDGET = 2000


def quad(func, a: float, b: float, args=()) -> float:
    """Integral of func(t, *args) over [a, b] by adaptive Gauss-Kronrod 7/15.

    func takes an array of nodes and returns the integrand at each.  The
    panels start on a doubling grid a, a + 1/4, a + 1/2, a + 1, ..., a + 512
    below b, and every panel whose Kronrod and Gauss estimates differ by
    more than QUAD_RTOL of the running total is halved.  NumericalError
    when that needs more than QUAD_PANEL_BUDGET panels in all.
    """
    edges = np.concatenate(([a], a + _GK_GRID[a + _GK_GRID < b], [b]))
    lo, hi = edges[:-1], edges[1:]
    done = 0.0
    spent = 0
    while lo.size:
        spent += lo.size
        if spent > QUAD_PANEL_BUDGET:
            raise NumericalError(f"quad: {QUAD_PANEL_BUDGET} panels did not reach rtol {QUAD_RTOL}")
        half = 0.5 * (hi - lo)
        mid = lo + half
        kronrod, diff = (func(mid[:, None] + half[:, None] * _GK_NODES, *args) @ _GK_WEIGHTS).T * half
        rough = np.abs(diff) > QUAD_RTOL * abs(done + kronrod.sum())
        done += kronrod[~rough].sum()
        lo, hi = np.concatenate((lo[rough], mid[rough])), np.concatenate((mid[rough], hi[rough]))
    return float(done)


# ---------------------------------------------------------------------------
# log-power integral comparisons
# ---------------------------------------------------------------------------


# ln of the largest float, less a margin far above the rounding of the
# log-space peak exponent (about 1e-10 even at q = 1 + 1e-6).
_LOG_FLOAT_MAX = math.log(sys.float_info.max) - 1e-6


def _logpower_integral_parts(q: float, lam: float, u0: float,
                             power_weight: float) -> tuple[float, float]:
    """(top, rest) with top + rest = ln of integral_{u0}^inf u^power_weight exp(u - lam u^q) du.

    That is ln of integral_{exp(u0)}^inf (ln x)^power_weight
    exp(-lam ln(x)^q) dx after x = e^u.  top = max over u >= u0 of
    u - lam u^q is factored out so tiny lam (huge peaks) cannot
    overflow.  It does not depend on the power weight, so a ratio of two
    weights at the same (q, lam, u0) is exp(rest - rest'), free of the
    cancellation of two logs near top.
    Where the peak's u^q overflows a float (q near 1 at small lam), so
    does every mean energy there, and the integral is (inf, 0.0).
    """
    if lam <= 0:
        raise ValidationError("logpower integral: lam must be positive")
    u0 = max(u0, 0.0)
    if -math.log(lam * q) * q / (q - 1.0) > _LOG_FLOAT_MAX:
        return math.inf, 0.0
    u_peak = (1.0 / (lam * q)) ** (1.0 / (q - 1.0))

    def phi(u):
        return u - lam * u**q

    center = max(u0, u_peak)
    top = phi(center)
    # Natural width of exp(phi) near the center: curvature scale at an
    # interior peak, gradient scale when the peak lies left of u0.  The
    # substitution u = center + scale * t keeps the integrand O(1)-wide
    # so quadrature cannot step over a narrow spike.  The gradient at an
    # interior peak is 0; computed, it rounds to about 1e-16, which can
    # dwarf the curvature scale there (q = 1.1, lam = 1e-7: 5e-36).
    curv = lam * q * (q - 1.0) * center ** (q - 2.0)
    grad_c = 0.0 if center > u0 else 1.0 - lam * q * center ** (q - 1.0)
    scale = 1.0 / max(math.sqrt(curv), abs(grad_c))

    center_pow = center**q
    log_w_center = power_weight * math.log(center) if power_weight else 0.0

    def integrand(t, sign):
        # phi(center + d) - top = d*grad_c - lam*center^q*beyond_linear(d/center),
        # exact in exact arithmetic; avoids subtracting two huge phi values.
        # beyond_linear(x) = (1+x)^q - 1 - q*x, by its series for tiny x.
        # Written as (1+x) expm1((q-1) log1p(x)) - (q-1) x, which is the same
        # function: expm1(q log1p(x)) - q x cancels to ~1e-8 relative when
        # q - 1 is small, and quad then never meets its tolerance.
        d = sign * scale * t
        x = d / center
        with np.errstate(all="ignore"):
            log1p_x = np.log1p(x)
            beyond_linear = np.where(
                np.abs(x) < 1e-5,
                q * (q - 1.0) * x * x * (0.5 + (q - 2.0) * x / 6.0),
                (1.0 + x) * np.expm1((q - 1.0) * log1p_x) - (q - 1.0) * x,
            )
            expo = d * grad_c - lam * center_pow * beyond_linear
            if power_weight:
                expo += power_weight * log1p_x
            return np.where(x <= -1.0, 0.0, np.exp(np.minimum(expo, 700.0)))

    # Mass beyond 1e3 width units is below exp(-1e3) of the peak in the
    # gradient-limited case and far below that in the curvature-limited
    # case, so a finite window loses nothing and keeps quad stable.
    t_max = 1e3
    try:
        total = quad(integrand, 0.0, t_max, args=(1.0,))
        if center > u0:
            total += quad(integrand, 0.0, min((center - u0) / scale, t_max), args=(-1.0,))
    except NumericalError as exc:
        raise NumericalError(f"logpower integral: {exc} at q={q}, lam={lam!r}, u0={u0!r}") from None
    if total <= 0.0:
        raise NumericalError(
            f"logpower integral: quadrature collapsed at q={q}, lam={lam!r}, u0={u0!r}"
        )
    return top, log_w_center + math.log(scale * total)


def _logpower_log_measure(model: SpectrumModel, lam: float,
                          weighted: bool = False) -> tuple[float, float]:
    """ln(S_N + T_N) for a log-power spectrum, at power weight 0 or q, as (lead, rest).

    S_N sums exp(-lam E_k) over the N = truncation retained levels
    E_k = ln(k)^q, each term times E_k when ``weighted``; T_N is the
    comparison integral from ln N at power weight 0, or q when weighted.
    Unweighted, lead + rest is the certified ln Z; weighted it is
    ln(-dZ/dlam) of that same Z, so the two differ by ln of the
    measure's mean energy.  The larger of S_N and T_N leads and the other
    is log-added to it, which is finite at any ratio of the two: lead is
    ln S_N, or else the integral's peak exponent, which both power
    weights share, so a ratio of the two measures can cancel it exactly.
    """
    n = model.truncation
    energies = truncated_levels(model, n)
    log_terms = -lam * energies
    if weighted:
        with np.errstate(divide="ignore"):
            log_terms = log_terms + np.log(energies)
    log_s = _logsumexp(log_terms)
    top, rest = _logpower_integral_parts(model.q, lam, math.log(n), model.q if weighted else 0.0)
    gap = top + rest - log_s
    if gap <= 0.0:
        return log_s, math.log1p(math.exp(gap))
    return top, rest + math.log1p(math.exp(-gap))


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
    """ln Z(lam) of H - E0, exact or (log-power) a certified upper bound.

    Oscillator modes use the closed form -sum(ln(1 - e^-x)), x = lam *
    frequency.  Explicit spectra give _logsumexp(-lam x) bit for bit,
    without its max, ==, where and exp calls: its largest exponent is
    -0.0, at the ground entries, which it counts, so ln Z =
    log1p(rest / count) + ln(count).  The model keeps the ground count,
    its ln (numpy's, as _logsumexp's) and the excitations with +inf at
    the ground, whose terms sum to rest in _logsumexp's order.  Where lam
    times the lowest excitation underflows to 0, _logsumexp counts that
    term with the ground, so such a lam takes _logsumexp.  Log-power
    spectra sum N = truncation terms, S_N, and add the comparison
    integral T_N of the remainder: ln(S_N + T_N), the smaller log-added
    to the larger.  The summand decreases in k, so T_N bounds the
    remainder from above.
    """
    if lam <= 0:
        raise ValidationError(f"log_partition: lam={lam!r} must be positive")
    if model.kind == "oscillator":
        log_z = 0.0
        for f in model.frequencies:
            log_z -= _log1mexp(-lam * f)
        return log_z
    if model.kind == "explicit":
        gap = model._newton_start[1]
        if gap is not None and lam * gap == 0.0:
            return _logsumexp(-lam * model.level_array)
        excited, count, log_count = model._ground_split
        rest = np.exp(-lam * excited).sum()
        return float(np.log1p(rest / count) + log_count)
    lead, rest = _logpower_log_measure(model, lam)
    return lead + rest


_MINUS_LN2 = -math.log(2.0)


def _log1mexp(log_x: float) -> float:
    """ln(1 - exp(log_x)) for log_x < 0, stable near both ends."""
    if log_x >= 0.0:
        raise ValidationError("log1mexp: argument must be negative")
    if log_x > _MINUS_LN2:
        return math.log(-math.expm1(log_x))
    return math.log1p(-math.exp(log_x))


def mean_energy(model: SpectrumModel, lam: float, *, variance: bool = False):
    """Mean energy of H - E0 in the Gibbs state at inverse temperature lam.

    Equals -d ln Z / d lam of log_partition's ln Z, so it decreases in
    lam.  For a log-power spectrum that is the mean of the certified
    measure, the series plus its comparison integral, not of the
    truncated series.  With ``variance=True`` returns (mean, Var_lam(H)),
    for explicit and oscillator spectra only: Var is -d mean / d lam,
    the slope the Newton solve steps along.  Explicit weights are
    exp(-lam x) with no shift: the lowest excitation is exactly 0, so
    the shift by the largest exponent that _softmax applies is by -0.0,
    and leaving it out keeps its bits.
    """
    if lam <= 0:
        raise ValidationError(f"mean_energy: lam={lam!r} must be positive")
    if model.kind == "oscillator":
        total = 0.0
        spread = 0.0
        for f in model.frequencies:
            x = lam * f
            occupation = 1.0 / math.expm1(x) if x < 700.0 else 0.0
            total += f * occupation
            spread += f * f * occupation * (occupation + 1.0)
        return (total, spread) if variance else total
    if model.kind == "explicit":
        excitations = model.level_array
        weights = np.exp(-lam * excitations)
        probs = weights / weights.sum()
        mean = float(np.dot(probs, excitations))
        if variance:
            return mean, float(np.dot(probs, (excitations - mean) ** 2))
        return mean
    if variance:
        raise ValidationError("mean_energy: the variance needs an exact ln Z, not a log-power series")
    lead_num, rest_num = _logpower_log_measure(model, lam, weighted=True)
    lead, rest = _logpower_log_measure(model, lam)
    if lead_num == lead:
        # Both led by the integral's peak exponent (3.5e78 at q = 1.1 and
        # LAMBDA_FLOOR, where the ratio is 3.5e87): cancelled before
        # rounding.  An infinite one leaves an infinite mean.
        return math.exp(rest_num - rest) if lead < math.inf else math.inf
    return math.exp((lead_num + rest_num) - (lead + rest))


# ---------------------------------------------------------------------------
# inverse-temperature solve and entropy maxima
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsSolution:
    """The constrained entropy maximum at mean energy E of H; log_z is ln Z(lam) of H - E0."""

    lam: float
    energy: float
    f_value: float
    log_z: float
    flag: str | None = None


def excess_energy(model: SpectrumModel, energy: float, caller: str = "solve_inverse_temperature",
                  not_finite: str = "energy {!r} is not finite") -> float:
    """E - E0 for an energy E of H: the one conversion of an absolute energy.

    Refuses, naming ``caller``, a non-finite E and an E below E0 by more
    than BELOW_GROUND_TOL plus 4 ulps of E0, the rounding an E computed at
    E0 may carry.
    """
    if not math.isfinite(energy):
        raise ValidationError(f"{caller}: " + not_finite.format(energy))
    ground = model.ground_energy
    if energy < ground - (BELOW_GROUND_TOL + 4.0 * math.ulp(ground)):
        raise ValidationError(f"{caller}: energy {energy!r} below the ground energy {ground!r}")
    return energy - ground


def solve_inverse_temperature(model: SpectrumModel, energy: float) -> GibbsSolution:
    """Solve mean_energy(lam) = E - E0 for lam.

    lam is clamped to [LAMBDA_FLOOR, LAMBDA_CAP]; a clamped solve is
    flagged rather than silently accepted: "lambda_floor" when x = E - E0
    is at or above the floor's mean, else "lambda_cap" when it is at or
    below the cap's.  _newton_solve stops when |mean_energy(lam) - x| <=
    SOLVE_RTOL * max(1, |x|).  A log-power spectrum is solved on the mean
    of its certified measure, which is finite at every lam and
    truncation.  A clamped lam still gives an upper bound on F.
    excess_energy refuses a non-finite E and one below the ground.
    """
    excess = excess_energy(model, energy)
    lam, flag = _newton_solve(model, excess)
    log_z = log_partition(model, lam)
    return GibbsSolution(lam=lam, energy=energy, f_value=lam * excess + log_z,
                         log_z=log_z, flag=flag)


def _end_mean(model: SpectrumModel, end: float) -> float:
    """mean_energy at a clamp end, computed once per model and kept."""
    mean = model._end_means.get(end)
    if mean is None:
        mean = model._end_means[end] = mean_energy(model, end)
    return mean


def _clamp(model: SpectrumModel, excess: float, floor_open: bool,
           cap_open: bool) -> tuple[float, str] | None:
    """The clamp end that holds x, flagged, checking each open end, floor first; else None."""
    if floor_open and _end_mean(model, LAMBDA_FLOOR) <= excess:
        return LAMBDA_FLOOR, "lambda_floor"
    if cap_open and _end_mean(model, LAMBDA_CAP) >= excess:
        return LAMBDA_CAP, "lambda_cap"
    return None


def _newton_solve(model: SpectrumModel, excess: float) -> tuple[float, str | None]:
    """Safeguarded Newton ("rtsafe") for lam with mean_energy(lam) = x, the excess.

    Returns (lam, flag) as solve_inverse_temperature documents them.
    Solves g = ln(mean / x) = 0 in u = ln lam, dg/du = -lam Var / mean.
    For oscillators that form is close to linear at both ends: the mean
    goes as modes / lam for small lam and as exp(-gap lam) for large lam.
    An explicit mean tends to the mean excitation as lam -> 0, where g
    flattens in u, so explicit levels try the same step in lam first,
    lam (1 + du).  A log-power spectrum has no exact variance, so it
    takes no step.

    The bracket starts at [LAMBDA_FLOOR, LAMBDA_CAP], unchecked, and
    shrinks with every probe; without a step, or with one that leaves
    it, or with a mean or variance that underflows, the iteration takes
    the bracket's geometric midpoint instead.  The start
    ln(1 + modes gap / x) / gap, with gap the lowest excitation, solves a
    single mode exactly and tends to modes / x at high energy.  Several
    modes start midway to the same form at their mean frequency: as
    f / (e^(lam f) - 1) falls and is convex in f, the two lie either side
    of the solution.  The probe that meets the tolerance returns its own
    Newton step when that stays in the bracket.

    Since the mean decreases in lam, a probe whose mean lies above x by
    more than the tolerance rules the floor out, and one below it by more
    rules the cap out; nearer x, rounding could put the end's computed
    mean on either side.  Before it returns or takes a midpoint, the
    iteration checks each end not yet ruled out, floor first, and returns
    that end, flagged, if x lies past its mean, as the model keeps it
    (SpectrumModel._end_means).
    """
    tol = SOLVE_RTOL * max(1.0, abs(excess))
    above, below = excess + tol, excess - tol
    modes, gap, mean_gap = model._newton_start
    if excess <= 0.0 or gap is None:
        # At or below E0 a clamp holds unless the cap's mean rounds below
        # x, and then the cap is within that rounding of x.  Without an
        # excitation the mean is one value at both ends, so a clamp holds.
        return _clamp(model, excess, True, True) or (LAMBDA_CAP, None)
    explicit = model.kind == "explicit"
    exact = model.kind != "logpower"
    floor_out = cap_out = False
    lo, hi = LAMBDA_FLOOR, LAMBDA_CAP
    lam = math.log1p(modes * gap / excess) / gap
    if mean_gap is not None:
        lam = 0.5 * (lam + math.log1p(modes * mean_gap / excess) / mean_gap)
    lam = min(max(lam, lo), hi)
    for _ in range(200):
        if exact:
            mean, var = mean_energy(model, lam, variance=True)
        else:
            mean, var = mean_energy(model, lam), 0.0
        if lam == LAMBDA_FLOOR or lam == LAMBDA_CAP:
            model._end_means[lam] = mean
        converged = abs(mean - excess) <= tol
        if mean > excess:
            lo = lam
        else:
            hi = lam
        floor_out = floor_out or mean > above
        cap_out = cap_out or mean < below
        step = None
        if mean > 0.0 and var > 0.0:
            du = math.log(mean / excess) * mean / (lam * var)
            if explicit and lo < (s := lam * (1.0 + du)) < hi:
                step = s
            elif lo < (s := lam * math.exp(min(du, 700.0))) < hi:
                step = s
        if (converged or step is None) and not (floor_out and cap_out):
            if flagged := _clamp(model, excess, not floor_out, not cap_out):
                return flagged
            floor_out = cap_out = True
        if converged:
            # The last probe's own Newton step is free and squares the
            # error left within the tolerance, so lam does not depend on
            # where in the tolerance the iteration happened to land.
            return (lam if step is None else step), None
        lam = math.sqrt(lo * hi) if step is None else step
    # Out of iterations: an end left open may still hold x.
    if flagged := _clamp(model, excess, not floor_out, not cap_out):
        return flagged
    raise NumericalError(
        f"solve_inverse_temperature: Newton iteration did not reach |mean - x| <= {tol!r} "
        f"for the {model.kind} spectrum at x = E - E0 = {excess!r}"
    )


def max_entropy_at_excess(model: SpectrumModel, excess: float) -> float:
    """F(E0 + x), the largest entropy among states of mean energy <= E0 + x, in nats.

    lam x + ln Z(lam) at the solved lam, an upper bound at any lam > 0;
    ln(ground multiplicity) at x <= GROUND_TOL (a boundary
    extrapolation, also for an x that excess_energy accepts below 0,
    where lam x + ln Z at the cap would read below it); ln d for explicit
    levels at x at or above the mean excitation, where the constraint is
    inactive.
    """
    if excess <= GROUND_TOL:
        return math.log(model.ground_multiplicity)
    if model.kind == "explicit" and excess >= model.mean_excitation:
        return math.log(len(model.levels))
    lam, _ = _newton_solve(model, excess)
    return lam * excess + log_partition(model, lam)


def max_entropy(model: SpectrumModel, energy: float) -> float:
    """max_entropy_at_excess at E - E0 for an energy E of H (ln d at E = inf if explicit)."""
    if energy == math.inf and model.kind == "explicit":
        return math.log(len(model.levels))
    return max_entropy_at_excess(model, excess_energy(model, energy))


def entropy_maximizer(model: SpectrumModel, energy: float) -> GibbsSolution:
    """The Gibbs state whose F max_entropy reports at E, with that state's mean energy.

    The uniform state (lam = 0, F = ln Z = ln d, the mean level) for
    explicit levels at E at or above the mean level, unless E is a ground
    not every level shares.  At E0 (E - E0 <= GROUND_TOL, also for an E
    that excess_energy accepts below E0) the ground limit, with no solve:
    lam at LAMBDA_CAP, flagged "lambda_cap", mean energy E0 and
    F = ln Z(H - E0) = ln(ground multiplicity).  Else
    solve_inverse_temperature(model, E); a clamped solve reports the mean
    energy of the state at its clamped lam, which misses E.
    """
    explicit = model.kind == "explicit"
    excess = math.inf if explicit and energy == math.inf else excess_energy(model, energy)
    at_ground = excess <= GROUND_TOL
    ground = model.ground_energy
    if explicit and excess >= model.mean_excitation and (
            not at_ground or model.ground_multiplicity == len(model.levels)):
        log_d = math.log(len(model.levels))
        return GibbsSolution(lam=0.0, energy=ground + model.mean_excitation,
                             f_value=log_d, log_z=log_d)
    if at_ground:
        log_g = math.log(model.ground_multiplicity)
        return GibbsSolution(lam=LAMBDA_CAP, energy=ground, f_value=log_g, log_z=log_g,
                             flag="lambda_cap")
    sol = solve_inverse_temperature(model, energy)
    if sol.flag is None:
        return sol
    return replace(sol, energy=ground + _end_mean(model, sol.lam))


def oscillator_entropy_cap(frequencies, energy: float) -> float:
    """Closed-form upper bound on the oscillator max entropy at energy E.

    ell ( ln((E + E0) / (ell Estar)) + 1 ) with E0 the zero-point energy
    and Estar the geometric mean frequency; valid for E > E0.  The
    frequencies are those SpectrumModel.oscillator takes.
    """
    model = SpectrumModel.oscillator(frequencies)
    freqs = model.frequencies
    ell = len(freqs)
    e0 = model.ground_energy
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
    coherence instead).  It stays here, outside the package namespace,
    as a known-bad witness for mixing checks.
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
    verdict: str
    certified_lower: float | None = None
    notes: tuple[str, ...] = ()


def entropy_growth_diagnostic(model: SpectrumModel, lambdas=None) -> GrowthReport:
    """Evaluate lam * ln Z on a descending grid and classify the trend.

    ln Z and the mean energy are log_partition's and mean_energy's, of
    H - E0, which keeps ln Z nonnegative and the product's decay toward
    zero readable; a log-power model reads the certified
    series-plus-integral measure at every lam, however short its
    truncation.
    """
    grid = tuple(float(x) for x in (lambdas if lambdas is not None else DEFAULT_LAMBDA_GRID))
    if not grid or any(x <= 0 for x in grid):
        raise ValidationError("entropy_growth_diagnostic: lambda grid must be positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("entropy_growth_diagnostic: lambda grid must be strictly descending")

    lambda_g = []
    energies = []
    f_values = []
    notes = []
    for lam in grid:
        log_z = log_partition(model, lam)
        excess = mean_energy(model, lam)
        lambda_g.append(lam * log_z)
        energies.append(excess)
        f_values.append(lam * excess + log_z)

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
        verdict=verdict,
        certified_lower=certified,
        notes=tuple(notes),
    )
