"""Entropic functionals on density matrices.

Every quantity is returned in nats.  Relative entropy returns math.inf
(an explicit value, never an exception) when the support of the first
argument leaks out of the support of the second.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .operators import (
    EIGENVALUE_CUTOFF,
    SUPPORT_OVERLAP_TOL,
    DensityMatrix,
    SubsystemShape,
    partial_trace,
)


def _eta(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=float)
    mask = x > 0.0
    out[mask] = -x[mask] * np.log(x[mask])
    return out


def binary_entropy(p: float) -> float:
    """h2(p) = -p ln p - (1-p) ln(1-p) on [0, 1], in nats."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValidationError(f"binary_entropy: p={p!r} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    return float(_eta(np.array([p, 1.0 - p])).sum())


def thermal_entropy(x: float) -> float:
    """g(x) = (x+1) ln(x+1) - x ln x for x >= 0, in nats.

    This is the entropy of a single bosonic mode with mean occupation x;
    it also equals (1+x) h2(x / (1+x)).  From x = 1 on it is evaluated as
    log1p(x) + x log1p(1/x): the two terms of the defining form cancel at
    large x (1.3e-10 relative at x = 1e6).  Below 1 both of those terms
    are nonnegative, and 1/x could overflow, so the defining form serves.
    """
    if x < -1e-12:
        raise ValidationError(f"thermal_entropy: x={x!r} negative")
    x = max(x, 0.0)
    if x == 0.0:
        return 0.0
    if x >= 1.0:
        return math.log1p(x) + x * math.log1p(1.0 / x)
    return float((x + 1.0) * math.log1p(x) - x * math.log(x))


def spectrum_entropy(w: np.ndarray) -> float:
    """-sum w ln w in nats over the eigenvalues above the spectral cutoff."""
    cut = EIGENVALUE_CUTOFF * float(np.max(np.abs(w))) if w.size else 0.0
    w = w[w > cut]
    # Every kept eigenvalue is > 0, so ln needs no mask.  Negating each term,
    # not the sum, keeps a pure state's entropy +0.0, as the masked form had it.
    return float(np.sum(-w * np.log(w)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """H(rho) = -Tr rho ln rho in nats, from the spectrum rho keeps."""
    return spectrum_entropy(rho.spectrum)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """H(rho || sigma) = Tr rho (ln rho - ln sigma), or +inf.

    Returns math.inf when an eigenvector of rho carried by an eigenvalue
    above the spectral cutoff has squared overlap above
    SUPPORT_OVERLAP_TOL with the numerical kernel of sigma.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"relative_entropy: dims differ ({rho.dim} vs {sigma.dim})")
    wr, vr = np.linalg.eigh(rho.matrix)
    ws, vs = np.linalg.eigh(sigma.matrix)
    cut_r = EIGENVALUE_CUTOFF * float(np.max(np.abs(wr)))
    cut_s = EIGENVALUE_CUTOFF * float(np.max(np.abs(ws)))
    sup_r = wr > cut_r
    sup_s = ws > cut_s
    vr_s = vr[:, sup_r]
    wr_s = wr[sup_r]
    if not np.all(sup_s):
        ker = vs[:, ~sup_s]
        leak = np.sum(np.abs(ker.conj().T @ vr_s) ** 2, axis=0)
        if np.any(leak > SUPPORT_OVERLAP_TOL):
            return math.inf
    overlaps = np.abs(vs[:, sup_s].conj().T @ vr_s) ** 2  # [j_sigma, i_rho]
    value = float(np.sum(wr_s * np.log(wr_s)))
    value -= float(wr_s @ (overlaps.T @ np.log(ws[sup_s])))
    return max(value, 0.0)


def relative_entropy_of_coherence(rho: DensityMatrix, levels) -> float:
    """C_r(rho) = H(Delta rho) - H(rho) = H(rho || Delta rho), in nats.

    Delta pinches rho onto the eigenspaces of diag(levels): it keeps the
    entries between basis states of equal level.  C_r is the
    relative-entropy distance to the states that commute with
    diag(levels), a closed convex set holding its Gibbs family.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.shape != (rho.dim,):
        raise ValidationError(
            f"relative_entropy_of_coherence: {levels.size} levels for dim {rho.dim}"
        )
    pinched = np.where(levels[:, None] == levels[None, :], rho.matrix, 0.0)
    return von_neumann_entropy(DensityMatrix(pinched)) - von_neumann_entropy(rho)


def _bipartite_entropies(rho_ab: DensityMatrix, shape, what: str) -> tuple[float, float, float]:
    """(H(A), H(B), H(AB)) of a two-factor state."""
    sh = shape if isinstance(shape, SubsystemShape) else SubsystemShape(tuple(shape))
    if len(sh.dims) != 2:
        raise ValidationError(f"{what}: expected 2 factors, got {sh.dims}")
    sh.check_matches(rho_ab.dim)
    h_a = von_neumann_entropy(partial_trace(rho_ab, sh, (0,)))
    h_b = von_neumann_entropy(partial_trace(rho_ab, sh, (1,)))
    return h_a, h_b, von_neumann_entropy(rho_ab)


def mutual_information(rho_ab: DensityMatrix, shape) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) of a bipartite state, in nats."""
    h_a, h_b, h_ab = _bipartite_entropies(rho_ab, shape, "mutual_information")
    return h_a + h_b - h_ab


def conditional_entropy(rho_ab: DensityMatrix, shape) -> float:
    """H(A|B) written as H(A) - I(A:B), the form that extends to infinite B."""
    h_a, h_b, h_ab = _bipartite_entropies(rho_ab, shape, "conditional_entropy")
    return h_a - (h_a + h_b - h_ab)


def holevo_chi(ensemble) -> float:
    """Holevo quantity chi = sum_i p_i H(rho_i || rho_bar), in nats."""
    rho_bar = ensemble.average()
    total = 0.0
    for p, st in zip(ensemble.weights, ensemble.states):
        if p <= 0.0:
            continue
        total += p * relative_entropy(st, rho_bar)
    return total
