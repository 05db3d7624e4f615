"""Empirical certification harness: bound sweeps and mixing-slack checks.

A sweep draws random state pairs that satisfy the energy constraint and
the trace-distance budget of one preset, evaluates the quantity on both
states, and records the margin between the advertised bound and the
observed difference.  Rows are generated from per-trial seed sequences
keyed by (seed, epsilon_index, trial), so output is byte-identical
across runs.

Each quantity is one row of QUANTITIES: its bound preset, where the
energy constraint sits, its default sweep, and builders for f and the
pair draw.  Sweeps, laa-check and the command line all read that table.

A row whose margin lies below MARGIN_TOL is a violation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import PRESETS, continuity_bound
from .channels import CHANNEL_ZOO_SPECS, channel_mi, make_channel
from .ensembles import Ensemble, ordered_distance
from .entropy import (
    binary_entropy,
    conditional_entropy,
    holevo_chi,
    mutual_information,
    relative_entropy,
    relative_entropy_of_coherence,
    von_neumann_entropy,
)
from .errors import NumericalError, ValidationError
from .gibbs import SpectrumModel, solve_inverse_temperature
from .operators import (
    DensityMatrix,
    SubsystemShape,
    partial_trace,
    trace_norm,
)
from .serialization import canonical_json, sha256_hex, write_csv

RETRY_BUDGET = 10_000
MARGIN_TOL = -1e-9
ANCHOR_FRACTION = 0.75
BOUNDARY_FRACTION = 0.99
DEFAULT_EPSILONS = (0.01, 0.05, 0.1, 0.25, 0.5)
SAMPLERS = ("mixed", "boundary", "pure")
# States per ensemble in a holevo sweep.
ENSEMBLE_SIZE = 4

CSV_COLUMNS = (
    "trial",
    "epsilon",
    "E",
    "f_rho",
    "f_sigma",
    "abs_diff",
    "bound",
    "margin",
)


# Functional builders: (dims, constrained levels, channel) -> f.  The
# functionals are looked up in this module when called, never bound here.

def _on_first_factor(dims, f):
    """f of the first factor's marginal; f itself on a single factor."""
    if len(dims) == 1:
        return f
    shape = SubsystemShape(dims)
    return lambda rho: f(partial_trace(rho, shape, keep=(0,)))


def _entropy(dims, levels, channel):
    return _on_first_factor(dims, lambda rho: von_neumann_entropy(rho))


def _cond_entropy(dims, levels, channel):
    shape = SubsystemShape(dims)
    return lambda rho: conditional_entropy(rho, shape)


def _mutual_info(dims, levels, channel):
    # I(A : rest), with every factor after the first grouped into one.
    shape = SubsystemShape((dims[0], int(np.prod(dims[1:]))))
    return lambda rho: mutual_information(rho, shape)


def _relative_entropy(dims, levels, channel):
    return lambda rho, omega: relative_entropy(rho, omega)


def _coherence(dims, levels, channel):
    # The distance to the Gibbs family itself is no `ree` quantity: that
    # family is not convex.  The states diagonal in the energy basis are.
    return lambda rho: relative_entropy_of_coherence(rho, levels)


def _channel_mi(dims, levels, channel):
    # A pure sweep draws purifications and feeds the channel their input marginal.
    return _on_first_factor(dims, lambda rho: channel_mi(channel, rho))


def _holevo(dims, levels, channel):
    return lambda ens: holevo_chi(ens)


# Pair builders: (lifted, energy, anchor, lam, sampler) -> draw(rng, eps).
# Like the functionals, the samplers are looked up here when a pair is drawn.

def _state_pairs(lifted, energy, anchor, lam, sampler):
    return lambda rng, eps: sample_state_pair(rng, lifted, energy, eps, sampler, anchor, lam)


def _ensemble_pairs(lifted, energy, anchor, lam, sampler):
    return lambda rng, eps: _sample_ensemble_pair(rng, lifted, energy, eps, anchor, ENSEMBLE_SIZE)


# The samplers each pair builder takes: ensembles are drawn by mixing only.
PAIR_SAMPLERS = {_state_pairs: SAMPLERS, _ensemble_pairs: ("mixed",)}


def _ree_reference(rng, dim, rho, sigma):
    """Per-trial reference state for laa-check of the relative entropy.

    It is rank deficient in a fifth of the draws, so both the finite
    branch and the everything-infinite branch are exercised.
    """
    deficient = rng.uniform() < 0.2
    omega = random_density_matrix(rng, dim)
    if deficient:
        vals, vecs = np.linalg.eigh(omega.matrix)
        vals = vals.copy()
        vals[0] = 0.0
        vals /= vals.sum()
        omega = DensityMatrix((vecs * vals) @ vecs.conj().T)
        if rng.uniform() < 0.5:
            # Project both states into the reference support so the
            # finite branch is exercised with a singular reference too.
            proj = vecs[:, 1:] @ vecs[:, 1:].conj().T
            rho, sigma = (
                DensityMatrix(proj @ x.matrix @ proj / np.trace(proj @ x.matrix @ proj).real)
                for x in (rho, sigma)
            )
    return rho, sigma, (omega,)


@dataclass(frozen=True)
class Quantity:
    """One row of the registry: bound preset, constraint and functional.

    The energy constraint sits on the factors whose indices lie in the
    slice ``axes`` = (start, stop); a basis state's level is the sum of its
    indices over those factors.  ``factors`` is the (min, max) factor
    count a sweep accepts, max None for no limit; ``laa_factors`` is the
    count laa-check takes, None when it does not check the quantity.
    ``energy`` is the default sweep energy, None when the quantity is not
    swept.  A sweep bounds with F of its own constraint levels, the
    spectrum its states are drawn on.  ``pure_dims`` replaces ``dims``
    when the pure sampler draws the states; f traces out its extra
    factors.  ``channel`` is the default channel of a channel quantity;
    ``pair`` builds the sweep draw, whose samplers PAIR_SAMPLERS names;
    ``reference`` draws extra per-trial arguments of f in laa-check.
    """

    preset: str
    build: object
    dims: tuple = (8,)
    pure_dims: tuple | None = None
    factors: tuple = (1, 1)
    laa_factors: int | None = None
    axes: tuple = (0, 1)
    energy: float | None = None
    channel: tuple | None = None
    pair: object = _state_pairs
    reference: object = None


QUANTITIES = {
    "entropy": Quantity("entropy", _entropy, dims=(16,), pure_dims=(16, 2), factors=(1, None),
                        laa_factors=1, energy=2.0),
    "cond-entropy": Quantity("cond-entropy", _cond_entropy, dims=(4, 4), factors=(2, 2),
                             laa_factors=2, energy=1.5),
    "mutual-info": Quantity("mutual-info", _mutual_info, dims=(2, 2, 4), factors=(2, None),
                            laa_factors=2, axes=(1, None), energy=2.0),
    "ree": Quantity("ree", _relative_entropy, laa_factors=1, reference=_ree_reference),
    "gibbs-red": Quantity("ree", _coherence, dims=(8,), laa_factors=1, energy=3.0),
    "channel-mi": Quantity("channel-mi", _channel_mi, dims=(16,), pure_dims=(16, 2),
                           factors=(1, None), energy=2.0, channel=("attenuator", (0.8,))),
    "holevo": Quantity("holevo", _holevo, dims=(8,), energy=3.0, pair=_ensemble_pairs),
}

SWEEP_FAMILIES = tuple(name for name, q in QUANTITIES.items() if q.energy is not None)
# laa-check seeds its generator with the index in this tuple: keep the order.
LAA_QUANTITIES = tuple(name for name, q in QUANTITIES.items() if q.laa_factors is not None)


def _check_factors(what: str, dims: tuple, lo: int, hi: int | None):
    if len(dims) < lo or (hi is not None and len(dims) > hi):
        count = lo if hi == lo else f"at least {lo}"
        raise ValidationError(f"{what} takes {count} factor(s), got dims {dims}")
    for d in dims:
        if d < 1:
            raise ValidationError(f"{what} needs factor dims >= 1, got dim {d} in dims {dims}")


def _constraint(q: Quantity, dims: tuple) -> tuple[tuple, tuple]:
    """Constrained factor indices and the levels of their joint basis."""
    axes = tuple(range(len(dims)))[slice(*q.axes)]
    levels = tuple(float(sum(idx)) for idx in np.ndindex(*(dims[ax] for ax in axes)))
    return axes, levels


@dataclass(frozen=True)
class SweepConfig:
    """One verification sweep, fully resolved on construction.

    ``energy=None``, ``dims=()`` and, for a channel family,
    ``channel=None`` take the family's QUANTITIES defaults: its
    ``energy``, its ``dims`` (``pure_dims`` under the pure sampler) and
    its ``channel``.  So a sweep given its defaults and one given them
    explicitly are equal, and have one digest.  Under the pure sampler
    the sweep bounds with the pure-state variant (``pure``).
    """

    family: str
    seed: int
    energy: float | None = None
    trials: int = 200
    epsilons: tuple = DEFAULT_EPSILONS
    sampler: str = "mixed"
    dims: tuple = ()
    channel: tuple | None = None

    def __post_init__(self):
        if self.family not in SWEEP_FAMILIES:
            raise ValidationError(
                f"unknown sweep family {self.family!r}; available: {', '.join(SWEEP_FAMILIES)}"
            )
        q = QUANTITIES[self.family]
        samplers = PAIR_SAMPLERS[q.pair]
        if self.sampler not in samplers:
            raise ValidationError(f"{self.family} sweeps take the sampler(s) "
                                  f"{', '.join(samplers)}; got {self.sampler!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        energy = q.energy if self.energy is None else float(self.energy)
        if not math.isfinite(energy):
            raise ValidationError(f"sweep energy {energy!r} must be finite")
        object.__setattr__(self, "energy", energy)
        if self.channel is not None and q.channel is None:
            raise ValidationError(
                f"channel applies only to channel sweeps; {self.family} sweeps have no channel"
            )
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValidationError("epsilons must be nonempty")
        for e in eps:
            if not 0.0 < e <= 0.5:
                raise ValidationError(f"sweep epsilon {e!r} outside (0, 1/2]")
        object.__setattr__(self, "epsilons", eps)
        dims = tuple(int(d) for d in self.dims)
        if dims:
            _check_factors(f"a {self.family} sweep", dims, *q.factors)
            if self.pure and q.pure_dims and len(dims) < len(q.pure_dims):
                ancilla = dims + q.pure_dims[len(dims):]
                raise ValidationError(
                    f"a pure {self.family} sweep needs an ancilla factor that f traces out, "
                    f"as in dims {ancilla}; on dims {dims} f is 0 for every pure state"
                )
        else:
            dims = q.pure_dims if self.pure and q.pure_dims else q.dims
        object.__setattr__(self, "dims", dims)
        if q.channel is not None:
            kind, params = q.channel if self.channel is None else self.channel
            object.__setattr__(self, "channel", (str(kind), tuple(float(p) for p in params)))

    @property
    def pure(self) -> bool:
        """The sweep bounds with the pure-state variant: its sampler is pure."""
        return self.sampler == "pure"


# Slotted: a sweep keeps every row, and slots cut a row from 152 to 104 bytes.
@dataclass(frozen=True, slots=True)
class SweepRow:
    trial: int
    epsilon: float
    energy: float
    f_rho: float
    f_sigma: float
    abs_diff: float
    bound: float
    margin: float


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    rows: tuple
    violations: tuple
    config_digest: str

    def to_csv(self, stream):
        comments = (
            "entrobound sweep format 2",
            f"config-sha256: {self.config_digest}",
        )
        write_csv(stream, comments, CSV_COLUMNS, [
            (r.trial, r.epsilon, r.energy, r.f_rho, r.f_sigma,
             r.abs_diff, r.bound, r.margin)
            for r in self.rows
        ])


@dataclass(frozen=True)
class FamilyWiring:
    """A resolved sweep: the one spectrum it draws on and bounds with, f
    and ``draw(rng, eps) -> (first, second, distance)``.
    """

    model: SpectrumModel
    f: object = field(repr=False)
    draw: object = field(repr=False)


def _lift_levels(dims, constraint_axes, base_levels) -> np.ndarray:
    shape = [dims[ax] if ax in constraint_axes else 1 for ax in range(len(dims))]
    base = np.asarray(base_levels, dtype=float).reshape(shape)
    return np.ascontiguousarray(np.broadcast_to(base, dims).reshape(-1))


def resolve_wiring(config: SweepConfig) -> FamilyWiring:
    """Resolve a sweep: its channel, spectrum, anchor, f and draw."""
    q = QUANTITIES[config.family]
    axes, base = _constraint(q, config.dims)
    channel = None
    if config.channel is not None:
        kind, params = config.channel
        channel = make_channel(kind, config.dims[0], params)
    model = SpectrumModel.explicit(base)
    if config.energy <= model.ground_energy:
        raise ValidationError(
            f"sweep energy {config.energy} must exceed the ground level {model.ground_energy}"
        )
    lifted = _lift_levels(config.dims, axes, base)
    lam = _anchor_lambda(model, config.energy)
    anchor_p = _anchor_probabilities(lifted, lam)
    anchor = (anchor_p, float(anchor_p @ lifted))
    return FamilyWiring(
        model=model,
        f=q.build(config.dims, base, channel),
        draw=q.pair(lifted, config.energy, anchor, lam, config.sampler),
    )


def config_digest(config: SweepConfig) -> str:
    """Hash of the resolved configuration, its constraint axes and levels.

    ``ensemble_size`` stays in the payload, at ENSEMBLE_SIZE, so that
    digests keep their values.
    """
    axes, base = _constraint(QUANTITIES[config.family], config.dims)
    payload = {
        "family": config.family,
        "energy": config.energy,
        "seed": config.seed,
        "trials": config.trials,
        "epsilons": list(config.epsilons),
        "sampler": config.sampler,
        "pure": config.pure,
        "dims": list(config.dims),
        "constraint_axes": list(axes),
        "base_levels": list(base),
        "channel": None if config.channel is None else
            [config.channel[0], list(config.channel[1])],
        "ensemble_size": ENSEMBLE_SIZE,
    }
    return sha256_hex(canonical_json(payload))


class _Budget:
    """Counts rejected draws so a stuck sampler fails loudly."""

    def __init__(self, limit: int = RETRY_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise NumericalError(
                f"sampler rejection budget exhausted ({self.limit} draws)"
            )


def random_density_matrix(rng, dim: int) -> DensityMatrix:
    """Hilbert-Schmidt random full-rank state."""
    return DensityMatrix(_hilbert_schmidt_draw(rng, dim))


def _hilbert_schmidt_draw(rng, dim: int) -> np.ndarray:
    """The matrix of random_density_matrix(rng, dim), unvalidated: G G^dag / Tr."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _diag_energy(matrix: np.ndarray, lifted: np.ndarray) -> float:
    return float(np.real(np.diagonal(matrix) @ lifted))


def _anchor_lambda(model: SpectrumModel, energy: float) -> float:
    """Inverse temperature of the Gibbs state of the constraint levels at
    ground + ANCHOR_FRACTION (energy - ground): the mixed and boundary
    samplers' anchor and the pure sampler's damping.
    """
    ground = model.ground_energy
    target = ground + ANCHOR_FRACTION * (energy - ground)
    return solve_inverse_temperature(model, target).lam


def _anchor_probabilities(lifted: np.ndarray, lam: float) -> np.ndarray:
    """Diagonal Gibbs anchor at inverse temperature lam on the lifted levels."""
    weights = np.exp(-lam * (lifted - lifted.min()))
    return weights / weights.sum()


def _feasible_mixed(rng, lifted, energy, anchor_p, anchor_e, budget, band=None):
    """One energy-feasible mixed state via anchor mixing.

    ``band=(lo, hi)`` restricts the final energy to a window, used by the
    boundary sampler.  Mixing keeps energies affine, so the window can be
    hit exactly once a raw draw with enough energy appears.
    """
    dim = len(lifted)
    while True:
        budget.spend()
        # Only the mixture below is validated; the draw is a state by construction.
        raw = _hilbert_schmidt_draw(rng, dim)
        e_raw = _diag_energy(raw, lifted)
        if band is None:
            t_max = 1.0 if e_raw <= energy else (energy - anchor_e) / (e_raw - anchor_e)
            t = t_max * rng.uniform(0.15, 1.0)
        else:
            lo, hi = band
            if e_raw < hi:
                continue
            t_lo = max(0.0, (lo - anchor_e) / (e_raw - anchor_e))
            t_hi = (hi - anchor_e) / (e_raw - anchor_e)
            t = rng.uniform(t_lo, t_hi)
        return DensityMatrix((1.0 - t) * np.diag(anchor_p) + t * raw)


def _feasible_pure_vector(rng, lifted, energy, damping, budget):
    dim = len(lifted)
    weights = np.exp(-0.5 * damping * (lifted - lifted.min()))
    while True:
        budget.spend()
        v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * weights
        v /= np.linalg.norm(v)
        e = float(np.real(lifted @ (np.abs(v) ** 2)))
        if e <= energy:
            return v


def sample_state_pair(rng, lifted, energy, epsilon, sampler, anchor=None, damping=None):
    """Draw (rho, sigma, distance) obeying the energy cap and distance budget.

    mixed: anchor mixing keeps both states below the cap; the pair
    distance is exact because sigma interpolates toward a third state.
    boundary: same, with both energies forced into the top band.
    pure: damped Gaussian vectors with the second state rotated by a
    controlled angle, so the trace distance is sin(angle) exactly.
    """
    budget = _Budget()
    if sampler == "pure":
        u = _feasible_pure_vector(rng, lifted, energy, damping, budget)
        sin_a = epsilon * rng.uniform(0.3, 1.0)
        cos_a = math.sqrt(1.0 - sin_a * sin_a)
        while True:
            budget.spend()
            w = _feasible_pure_vector(rng, lifted, energy, damping, budget)
            w = w - (u.conj() @ w) * u
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                continue
            w /= norm
            v = cos_a * u + sin_a * w
            e_v = float(np.real(lifted @ (np.abs(v) ** 2)))
            if e_v <= energy:
                break
        rho = DensityMatrix(np.outer(u, u.conj()))
        sigma = DensityMatrix(np.outer(v, v.conj()))
        return rho, sigma, sin_a
    anchor_p, anchor_e = anchor
    band = None
    if sampler == "boundary":
        band = (BOUNDARY_FRACTION * energy, energy)
    rho = _feasible_mixed(rng, lifted, energy, anchor_p, anchor_e, budget, band)
    nu = _feasible_mixed(rng, lifted, energy, anchor_p, anchor_e, budget, band)
    unit = 0.5 * trace_norm(nu.matrix - rho.matrix)
    if unit < 1e-14:
        return rho, rho, 0.0
    s = min(1.0, epsilon * rng.uniform(0.3, 1.0) / unit)
    sigma = DensityMatrix((1.0 - s) * rho.matrix + s * nu.matrix)
    distance = 0.5 * trace_norm(sigma.matrix - rho.matrix)
    if distance > epsilon * (1 + 1e-9):
        raise NumericalError(
            f"pair sampler produced distance {distance} above budget {epsilon}"
        )
    return rho, sigma, distance


def _sample_ensemble_pair(rng, lifted, energy, epsilon, anchor, size):
    """Two ensembles with ordered distance at most epsilon by construction.

    The budget is split between a weight perturbation and per-state
    mixing; the triangle inequality of the ordered distance turns the
    two caps into a cap on the total.
    """
    anchor_p, anchor_e = anchor
    budget = _Budget()
    weights = rng.dirichlet(np.ones(size))
    states = []
    nus = []
    for _ in range(size):
        states.append(_feasible_mixed(rng, lifted, energy, anchor_p, anchor_e, budget))
        nus.append(_feasible_mixed(rng, lifted, energy, anchor_p, anchor_e, budget))
    total = epsilon * rng.uniform(0.3, 1.0)
    if rng.uniform() < 0.5:
        weight_cap, state_cap = 0.3 * total, 0.7 * total
    else:
        weight_cap, state_cap = 0.0, total
    new_weights = weights
    if weight_cap > 0.0:
        xi = rng.standard_normal(size)
        xi -= xi.mean()
        l1 = 0.5 * np.abs(xi).sum()
        if l1 > 0:
            xi *= weight_cap / l1
            floor = weights + xi
            if floor.min() < 0:
                shrink = min(
                    weights[i] / abs(xi[i]) for i in range(size) if xi[i] < 0
                )
                xi *= 0.99 * shrink
            new_weights = weights + xi
            new_weights /= new_weights.sum()
    caps = rng.uniform(0.0, 1.0, size)
    unit = np.array([
        0.5 * trace_norm(nus[i].matrix - states[i].matrix) for i in range(size)
    ])
    scale_den = float(np.sum(new_weights * caps * unit))
    alpha = 0.0 if scale_den <= 0 else state_cap / scale_den
    sigmas = []
    for i in range(size):
        s_i = min(1.0, alpha * caps[i])
        sigmas.append(DensityMatrix(
            (1.0 - s_i) * states[i].matrix + s_i * nus[i].matrix
        ))
    first = Ensemble(tuple(weights), tuple(states))
    second = Ensemble(tuple(float(w) for w in new_weights), tuple(sigmas))
    dist = ordered_distance(first, second)
    if dist > epsilon * (1 + 1e-9):
        raise NumericalError(
            f"ensemble sampler produced distance {dist} above budget {epsilon}"
        )
    return first, second, dist


def _trial_rng(seed: int, eps_idx: int, trial: int):
    return np.random.default_rng(np.random.SeedSequence((seed, eps_idx, trial)))


def run_sweep(config: SweepConfig) -> SweepReport:
    """Execute a sweep; returns every row plus the violating subset.

    One bound per epsilon, then per trial one ``wiring.draw``, f twice
    and one row, whatever the family and sampler.
    """
    wiring = resolve_wiring(config)
    preset = QUANTITIES[config.family].preset
    rows = []
    for eps_idx, eps in enumerate(config.epsilons):
        bound = continuity_bound(preset, wiring.model, eps, config.energy, pure=config.pure).value
        for trial in range(config.trials):
            first, second, _ = wiring.draw(_trial_rng(config.seed, eps_idx, trial), eps)
            f_rho, f_sigma = wiring.f(first), wiring.f(second)
            diff = abs(f_rho - f_sigma)
            rows.append(SweepRow(trial, eps, config.energy, f_rho, f_sigma, diff,
                                 bound, bound - diff))
    return SweepReport(
        config=config,
        rows=tuple(rows),
        violations=tuple(row for row in rows if row.margin < MARGIN_TOL),
        config_digest=config_digest(config),
    )


def default_sweep_suite(seed: int = 20240801, trials: int = 200) -> list[SweepConfig]:
    """The standard certification battery, each sweep at its default energy.

    Every family but channel-mi, then channel-mi across the channel zoo,
    then the pure variant of every family that takes the pure sampler.
    Sweep k of the battery is seeded with seed + k.
    """
    plain = [(family, {}) for family in SWEEP_FAMILIES if family != "channel-mi"]
    zoo = [("channel-mi", {"channel": spec}) for spec in CHANNEL_ZOO_SPECS]
    pure = [(family, {"sampler": "pure"})
            for family in SWEEP_FAMILIES if "pure" in PAIR_SAMPLERS[QUANTITIES[family].pair]]
    return [
        SweepConfig(family=family, seed=seed + k, trials=trials, **kw)
        for k, (family, kw) in enumerate(plain + zoo + pure)
    ]


@dataclass(frozen=True)
class LaaReport:
    """Worst mixing slacks observed over random (rho, sigma, p) triples.

    Both slacks are inequalities rewritten as quantities that must be
    nonnegative, so a negative worst value signals a violation.
    """

    quantity: str
    dims: tuple
    trials: int
    seed: int
    worst_lower: float
    worst_upper: float
    infinite_pairs: int


def laa_check(quantity: str, dims, trials: int, seed: int) -> LaaReport:
    """Empirically test the two-sided mixing inequality of one quantity.

    The slacks use the (a, b) coefficients of the quantity's bound preset
    and the same functional its sweeps evaluate.
    """
    if quantity not in LAA_QUANTITIES:
        raise ValidationError(
            f"unknown quantity {quantity!r}; available: {', '.join(LAA_QUANTITIES)}"
        )
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    q = QUANTITIES[quantity]
    dims = tuple(int(d) for d in dims)
    _check_factors(f"laa-check of {quantity}", dims, q.laa_factors, q.laa_factors)
    desc = PRESETS[q.preset]
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, LAA_QUANTITIES.index(quantity)))
    )
    total = int(np.prod(dims))
    f = q.build(dims, _constraint(q, dims)[1], None)

    worst_lower = math.inf
    worst_upper = math.inf
    infinite_pairs = 0
    for _ in range(trials):
        p = rng.uniform(0.01, 0.99)
        rho = random_density_matrix(rng, total)
        sigma = random_density_matrix(rng, total)
        extra = ()
        if q.reference is not None:
            rho, sigma, extra = q.reference(rng, total, rho, sigma)
        mix = DensityMatrix(p * rho.matrix + (1.0 - p) * sigma.matrix)
        f_mix, f_r, f_s = (f(x, *extra) for x in (mix, rho, sigma))
        if math.isinf(f_mix) or math.isinf(f_r) or math.isinf(f_s):
            if math.isinf(f_mix) != (math.isinf(f_r) or math.isinf(f_s)):
                raise NumericalError(
                    "inconsistent infinite branch: mixture and components disagree"
                )
            infinite_pairs += 1
            continue
        avg = p * f_r + (1.0 - p) * f_s
        h2 = binary_entropy(p)
        worst_lower = min(worst_lower, f_mix - (avg - desc.a_coeff * h2))
        worst_upper = min(worst_upper, (avg + desc.b_coeff * h2) - f_mix)
    return LaaReport(
        quantity=quantity,
        dims=dims,
        trials=trials,
        seed=seed,
        worst_lower=worst_lower,
        worst_upper=worst_upper,
        infinite_pairs=infinite_pairs,
    )
