"""Energy-constrained continuity bound evaluators.

A preset descriptor packages the four coefficients of an almost-local
entropic quantity f on states with an energy constraint on subsystem B:

  * growth control:   -c_minus * F(E) <= f <= c_plus * F(E), with F an
    upper envelope of the constrained entropy maximum of B;
  * mixing control:   -a * h2(p) <= f(mix) - [p f + (1-p) f] <= b * h2(p).

Every bound is one template in a step delta and an envelope value F:

  |f(rho) - f(sigma)| <= (c_minus + c_plus) delta F + (a + b) g(delta)

with g the bosonic entropy function.  ``continuity_bound`` takes
delta = sqrt(2 eps) and F = max_entropy of a spectrum at
E0 + (E - E0) / eps, for trace distance eps <= 1/2 and energy <= E:
the template's F(E / eps), taken for the spectrum and E both lowered by
its ground energy E0.  ``continuity_bound_finite`` takes delta = eps and
F = ln dim_B, for eps <= 1.  The pure-state variants
substitute eps -> eps^2 / 2.  All outputs are nats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import thermal_entropy
from .errors import ValidationError
from .gibbs import SpectrumModel, excess_energy, max_entropy_at_excess

# F is called through this name: perfbench/tracing.py wraps
# bounds.max_entropy_with_tail, so the name stays in this module.
max_entropy_with_tail = max_entropy_at_excess

EPSILON_MAX = 0.5


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
    # Conditional entropy H(A|B) with the constraint on A:
    # -H(A) <= H(A|B) <= H(A) (Araki-Lieb, subadditivity) bounds it by the
    # A maximum on both sides; concave with slack h2.
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
    # Holevo quantity chi of the sampled ensemble (the sweep applies no
    # channel), epsilon measured by the ordered ensemble distance.
    "holevo": BoundDescriptor("holevo", 0.0, 2.0, 1.0, 1.0),
}


# Slotted, as SweepRow is: a query stream may keep every result it gets.
# Not frozen: a frozen dataclass's __init__ sets each field through
# object.__setattr__, which costs about a fifth of a cheap query.
@dataclass(slots=True)
class BoundResult:
    """One evaluated bound with its decomposition and provenance echo, as a plain record.

    Equal when their fields are; not hashable, and nothing assigns a field
    after it is built.
    """

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


def continuity_bound(preset, model: SpectrumModel, epsilon: float, energy: float,
                     pure: bool = False) -> BoundResult:
    """Energy-constrained bound (c- + c+) sqrt(2e) F(E0 + (E - E0)/e) + (a + b) g(sqrt(2e)).

    F is max_entropy_at_excess of ``model`` at (E - E0)/e, an upper bound
    on the entropy maximum, with E0 its ground energy, so shifting H and
    E by one constant leaves the bound unchanged.  E below E0 is refused;
    at E = E0, F is ln(ground multiplicity).  An argument E0 + (E - E0)/e
    that overflows to inf is refused.  ``epsilon = 0`` returns the continuous extension 0.
    """
    desc = _descriptor(preset)
    eps_eff = _effective_epsilon(epsilon, pure)
    excess = excess_energy(model, energy, "continuity_bound", "energy={!r} must be finite")
    if eps_eff == 0.0:
        return _assemble(desc, epsilon, eps_eff, pure, energy)
    # An E within the tolerance below E0 reads F at E0.
    f_excess = max(excess, 0.0) / eps_eff
    f_arg = model.ground_energy + f_excess
    if not math.isfinite(f_arg):
        raise ValidationError(
            f"continuity_bound: F's argument E0 + (E - E0)/epsilon overflows at energy "
            f"{energy!r} and epsilon {epsilon!r}; lower the energy or raise epsilon")
    f_value = max_entropy_with_tail(model, f_excess)
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
