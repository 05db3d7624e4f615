"""Energy-constrained continuity bound evaluators.

A preset descriptor packages the four coefficients of an almost-local
entropic quantity f on states with an energy constraint on subsystem B:

  * growth control:   -c_minus * F(E) <= f <= c_plus * F(E), with F an
    upper envelope of the constrained entropy maximum of B;
  * mixing control:   -a * h2(p) <= f(mix) - [p f + (1-p) f] <= b * h2(p).

Every bound is one template in a step delta and an envelope value F:

  |f(rho) - f(sigma)| <= (c_minus + c_plus) delta F + (a + b) g(delta)

with g the bosonic entropy function.  ``continuity_bound`` takes
delta = sqrt(2 eps) and F(E / eps) from an envelope, for trace distance
eps <= 1/2 and energy <= E; ``continuity_bound_finite`` takes
delta = eps and F = ln dim_B, for eps <= 1.  The pure-state variants
substitute eps -> eps^2 / 2.  All outputs are nats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .entropy import thermal_entropy
from .errors import ValidationError
from .gibbs import SpectrumModel, max_entropy

# F is called through this name: perfbench/tracing.py wraps
# bounds.max_entropy_with_tail, so the name stays in this module.
max_entropy_with_tail = max_entropy

EPSILON_MAX = 0.5

# Either a spectrum, whose F is max_entropy, or a closed-form cap E -> F
# such as partial(oscillator_entropy_cap, freqs).
Envelope = Union[SpectrumModel, Callable[[float], float]]


@dataclass(frozen=True)
class BoundDescriptor:
    """Coefficients of one almost-local quantity."""

    name: str
    c_minus: float
    c_plus: float
    a_coeff: float
    b_coeff: float

    def __post_init__(self):
        for label in ("c_minus", "c_plus", "a_coeff", "b_coeff"):
            value = getattr(self, label)
            if value < 0 or not math.isfinite(value):
                raise ValidationError(f"BoundDescriptor: {label}={value!r} must be >= 0")

    @property
    def g_multiplier(self) -> float:
        """Weight of g(delta): (1 + x) h2(x / (1 + x)) = g(x) turns a + b into it."""
        return self.a_coeff + self.b_coeff


PRESETS: dict[str, BoundDescriptor] = {
    # Entropy of the constrained subsystem: concave (slack h2 above),
    # nonnegative, and at most the constrained maximum.
    "entropy": BoundDescriptor("entropy", 0.0, 1.0, 0.0, 1.0),
    # Conditional entropy H(A|B) with the constraint on B: bounded by
    # the B maximum on both sides, concave with slack h2.
    "cond-entropy": BoundDescriptor("cond-entropy", 1.0, 1.0, 0.0, 1.0),
    # Mutual information I(A:B) inside a system with constrained part:
    # nonnegative, at most twice the constrained maximum, almost affine
    # with slack h2 on both sides.
    "mutual-info": BoundDescriptor("mutual-info", 0.0, 2.0, 1.0, 1.0),
    # Relative-entropy distance to a closed convex set containing a
    # Gibbs family: convex (slack h2 below), between 0 and the maximum.
    "ree": BoundDescriptor("ree", 0.0, 1.0, 1.0, 0.0),
    # Mutual information of a channel output with the input reference.
    "channel-mi": BoundDescriptor("channel-mi", 0.0, 2.0, 1.0, 1.0),
    # Holevo quantity of a channel output ensemble, epsilon measured by
    # the ordered ensemble distance of the inputs.
    "holevo": BoundDescriptor("holevo", 0.0, 2.0, 1.0, 1.0),
}


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound with its decomposition and provenance echo."""

    value: float
    main_term: float
    additive_term: float
    preset: str
    epsilon: float
    epsilon_effective: float
    energy: float | None
    f_argument: float | None
    f_value: float | None
    pure: bool


def _descriptor(preset) -> BoundDescriptor:
    if isinstance(preset, BoundDescriptor):
        return preset
    try:
        return PRESETS[preset]
    except KeyError:
        raise ValidationError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def _effective_epsilon(epsilon: float, pure: bool, finite: bool = False) -> float:
    """Check epsilon against [0, 1/2] ([0, 1] for the finite form); apply eps^2 / 2 if pure."""
    limit, span, where = ((1.0, "1", "continuity_bound_finite: ") if finite
                          else (EPSILON_MAX, "1/2", ""))
    if not 0.0 <= epsilon <= limit + 1e-12:
        raise ValidationError(f"{where}epsilon={epsilon!r} outside [0, {span}]")
    return 0.5 * epsilon * epsilon if pure else epsilon


def _assemble(desc, epsilon, eps_eff, pure, energy, delta=None, f_argument=None,
              f_value=None) -> BoundResult:
    """(c- + c+) delta F + (a + b) g(delta); delta None is the epsilon = 0 limit 0."""
    if delta is None:
        return BoundResult(0.0, 0.0, 0.0, desc.name, epsilon, 0.0, energy, None, None, pure)
    main = (desc.c_minus + desc.c_plus) * delta * f_value
    additive = desc.g_multiplier * thermal_entropy(delta)
    return BoundResult(main + additive, main, additive, desc.name, epsilon, eps_eff, energy,
                       f_argument, f_value, pure)


def continuity_bound(preset, envelope: Envelope, epsilon: float, energy: float,
                     pure: bool = False) -> BoundResult:
    """Energy-constrained bound (c- + c+) sqrt(2e) F(E/e) + (a + b) g(sqrt(2e)).

    ``envelope`` is a SpectrumModel (F from max_entropy, an upper bound)
    or a callable E -> F.  ``epsilon = 0`` returns the continuous
    extension 0.
    """
    desc = _descriptor(preset)
    eps_eff = _effective_epsilon(epsilon, pure)
    if not math.isfinite(energy):
        raise ValidationError(f"continuity_bound: energy={energy!r} must be finite")
    if eps_eff == 0.0:
        return _assemble(desc, epsilon, eps_eff, pure, energy)
    f_arg = energy / eps_eff
    if isinstance(envelope, SpectrumModel):
        f_value = max_entropy_with_tail(envelope, f_arg)
    else:
        f_value = envelope(f_arg)
    return _assemble(desc, epsilon, eps_eff, pure, energy,
                     math.sqrt(2.0 * eps_eff), f_arg, f_value)


def continuity_bound_finite(preset, dim_b: int, epsilon: float, pure: bool = False) -> BoundResult:
    """Dimension-backed bound (c- + c+) eps ln(dim_B) + (a + b) g(eps).

    Valid for epsilon in [0, 1] (no square-root step here).
    """
    desc = _descriptor(preset)
    if dim_b < 1:
        raise ValidationError(f"continuity_bound_finite: dim_b={dim_b!r} must be >= 1")
    eps_eff = _effective_epsilon(epsilon, pure, finite=True)
    if eps_eff == 0.0:
        return _assemble(desc, epsilon, eps_eff, pure, None)
    return _assemble(desc, epsilon, eps_eff, pure, None, eps_eff, None, math.log(dim_b))
