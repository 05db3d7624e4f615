"""Ensembles of quantum states and distances between them.

Two metrics are provided: the ordered distance treats ensembles as
ordered tuples (zero-padding the shorter one), while the transport
distance optimizes a coupling of the weight vectors with trace-distance
costs and is invariant under splitting a state into equal copies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, as_real
from .operators import DensityMatrix, tensor, trace_norm

WEIGHT_TOL = 1e-10
MARGINAL_TOL = 1e-9
# Exact LP solves are only attempted up to this many states per side.
TRANSPORT_SIZE_CAP = 12


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted finite collection of equal-dimension density matrices."""

    weights: tuple[float, ...]
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        weights = tuple(as_real(w, "Ensemble: each weight") for w in self.weights)
        states = tuple(self.states)
        if len(weights) != len(states) or not states:
            raise ValidationError("Ensemble: weights and states must be equal-length and nonempty")
        if any(w < -1e-12 for w in weights):
            raise ValidationError(f"Ensemble: negative weight in {weights}")
        total = sum(weights)
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValidationError(f"Ensemble: weights sum to {total!r}, not 1")
        dim = states[0].dim
        if any(st.dim != dim for st in states):
            raise ValidationError("Ensemble: states have mixed dimensions")
        weights = tuple(max(w, 0.0) for w in weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)

    def average(self) -> DensityMatrix:
        return DensityMatrix(sum(p * st.matrix for p, st in zip(self.weights, self.states)))


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling of two weight vectors: row sums mu, column sums nu."""

    matrix: np.ndarray
    row_weights: tuple[float, ...]
    col_weights: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(f"TransportPlan: expected a 2-d array, got shape {arr.shape}")
        if np.any(arr < -MARGINAL_TOL):
            raise ValidationError("TransportPlan: negative mass")
        rows = np.asarray(self.row_weights, dtype=float)
        cols = np.asarray(self.col_weights, dtype=float)
        if arr.shape != (rows.size, cols.size):
            raise ValidationError("TransportPlan: shape does not match the weight vectors")
        if np.max(np.abs(arr.sum(axis=1) - rows)) > MARGINAL_TOL:
            raise ValidationError("TransportPlan: row marginals violated")
        if np.max(np.abs(arr.sum(axis=0) - cols)) > MARGINAL_TOL:
            raise ValidationError("TransportPlan: column marginals violated")
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "row_weights", tuple(rows))
        object.__setattr__(self, "col_weights", tuple(cols))


def ordered_distance(mu: Ensemble, nu: Ensemble) -> float:
    """Ordered ensemble distance (1/2) sum_i || p_i rho_i - q_i sigma_i ||_1.

    The shorter ensemble is zero-padded, so unmatched entries contribute
    half their weight.
    """
    if mu.dim != nu.dim:
        raise ValidationError(f"ordered_distance: dims differ ({mu.dim} vs {nu.dim})")
    n = max(len(mu), len(nu))
    zero = np.zeros((mu.dim, mu.dim), dtype=complex)
    total = 0.0
    for i in range(n):
        a = mu.weights[i] * mu.states[i].matrix if i < len(mu) else zero
        b = nu.weights[i] * nu.states[i].matrix if i < len(nu) else zero
        total += 0.5 * trace_norm(a - b)
    return total


def _trace_distance_costs(mu: Ensemble, nu: Ensemble) -> np.ndarray:
    cost = np.empty((len(mu), len(nu)))
    for i, a in enumerate(mu.states):
        for j, b in enumerate(nu.states):
            cost[i, j] = 0.5 * trace_norm(a.matrix - b.matrix)
    return cost


def transport_plan(mu: Ensemble, nu: Ensemble) -> tuple[float, TransportPlan]:
    """Optimal coupling of the two weight vectors under trace-distance cost.

    Solved exactly as a transportation LP; instances larger than
    TRANSPORT_SIZE_CAP per side are rejected rather than approximated.
    """
    if mu.dim != nu.dim:
        raise ValidationError(f"transport_plan: dims differ ({mu.dim} vs {nu.dim})")
    m, n = len(mu), len(nu)
    if m > TRANSPORT_SIZE_CAP or n > TRANSPORT_SIZE_CAP:
        raise ValidationError(
            f"transport_plan: instance {m}x{n} exceeds the exact-solve cap "
            f"{TRANSPORT_SIZE_CAP}x{TRANSPORT_SIZE_CAP}"
        )
    cost = _trace_distance_costs(mu, nu)
    p = np.asarray(mu.weights)
    q = np.asarray(nu.weights)
    # Equality constraints: row sums = p, column sums = q.  One row is
    # redundant (both sides sum to 1) but HiGHS copes with that.
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([p, q])
    # Imported here: scipy is slow to import and only this LP needs it.
    from scipy.optimize import linprog

    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise NumericalError(f"transport_plan: LP solve failed: {res.message}")
    plan = TransportPlan(res.x.reshape(m, n), tuple(p), tuple(q))
    return float(res.fun), plan


def transport_distance(mu: Ensemble, nu: Ensemble) -> float:
    """Splitting-invariant ensemble distance (optimal transport value)."""
    value, _ = transport_plan(mu, nu)
    return max(value, 0.0)


def qc_state(ensemble: Ensemble) -> DensityMatrix:
    """Classical-quantum state sum_i p_i rho_i (x) |i><i|, label second."""
    n = len(ensemble)
    d = ensemble.dim
    out = np.zeros((d * n, d * n), dtype=complex)
    for i, (p, st) in enumerate(zip(ensemble.weights, ensemble.states)):
        flag = np.zeros((n, n))
        flag[i, i] = 1.0
        out += p * tensor(st.matrix, flag)
    return DensityMatrix(out)


def split_ensemble(ensemble: Ensemble, index: int, pieces: int) -> Ensemble:
    """Replace entry ``index`` by ``pieces`` equal copies (a splitting)."""
    if pieces < 1:
        raise ValidationError("split_ensemble: pieces must be >= 1")
    if not 0 <= index < len(ensemble):
        raise ValidationError(f"split_ensemble: index {index} out of range")
    weights = []
    states = []
    for i, (p, st) in enumerate(zip(ensemble.weights, ensemble.states)):
        if i == index:
            weights.extend([p / pieces] * pieces)
            states.extend([st] * pieces)
        else:
            weights.append(p)
            states.append(st)
    return Ensemble(tuple(weights), tuple(states))
