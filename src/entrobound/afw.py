"""Purified mixing decomposition in the Alicki-Fannes-Winter style.

Given close energy-constrained states rho and sigma, joint purifications
phi and psi are chosen with a real overlap c, and the rank-two
difference |phi><phi| - |psi><psi| splits into the Jordan parts
delta |gamma_+><gamma_+| and delta |gamma_-><gamma_-|,
delta = sqrt(1 - c^2), with the unit vectors gamma_+/- in closed form.
Their projectors obey the exact mixing identity

    (1+delta)^-1 (|phi><phi| + delta |gamma_-><gamma_-|)
        = (1+delta)^-1 (|psi><psi| + delta |gamma_+><gamma_+|)

and the energies of their marginals tau_+/- are controlled by
E0 + (1+c) (E - E0) / delta^2, with E0 the ground energy of H, so the
control moves with H + const.  When a target epsilon is supplied, the
overlap is detuned to sqrt(1 - 2 epsilon) so delta = sqrt(2 epsilon)
exactly and the coarse control E0 + (E - E0) / epsilon is the F argument
of ``continuity_bound``.  The Jordan parts stay vectors: nothing larger
than d x d is decomposed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    PureStateVector,
    aligned_purifications,
    trace_norm,
)

DELTA_MIN = 1e-10
ENERGY_TOL = 1e-8
MIXING_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AfwCertificate:
    """All pieces of one purified mixing decomposition, ready to audit.

    ``gamma_plus`` and ``gamma_minus`` are the unit Jordan vectors on
    system (x) reference; ``tau_plus`` and ``tau_minus`` are the system
    marginals of their projectors.
    """

    overlap: float
    delta: float
    epsilon_used: float
    energy_limit: float
    phi: PureStateVector
    psi: PureStateVector
    gamma_plus: PureStateVector
    gamma_minus: PureStateVector
    tau_plus: DensityMatrix
    tau_minus: DensityMatrix
    energy_tau_plus: float
    energy_tau_minus: float
    energy_bound_exact: float
    energy_bound_coarse: float
    mixing_residual: float


def _jordan_pair(phi: PureStateVector,
                 psi: PureStateVector) -> tuple[float, float, np.ndarray, np.ndarray]:
    """``(c, delta, gamma_plus, gamma_minus)`` of |phi><phi| - |psi><psi|.

    psi is re-phased so c = <phi|psi> is real nonnegative, and
    psi = c phi + delta psi_perp with delta = |psi - c phi| = sqrt(1 - c^2).
    In the basis (phi, psi_perp) the difference is delta times the
    reflection [[cos a, sin a], [sin a, -cos a]], a = atan2(-c, delta),
    whose +1 and -1 eigenvectors are (cos a/2, sin a/2) and
    (-sin a/2, cos a/2).  Exact at c = 0 (a = 0); only identical pairs,
    delta <= DELTA_MIN, are refused.
    """
    raw = complex(np.vdot(phi.vector, psi.vector))
    c = abs(raw)
    psi_vec = psi.vector * (raw.conjugate() / c) if c > 0 else psi.vector
    perp = psi_vec - c * phi.vector
    delta = float(np.linalg.norm(perp))
    if delta <= DELTA_MIN:
        raise ValidationError(f"afw_decompose: states are numerically identical (overlap {c!r})")
    perp = perp / delta
    half = 0.5 * math.atan2(-c, delta)
    cos_h, sin_h = math.cos(half), math.sin(half)
    return c, delta, cos_h * phi.vector + sin_h * perp, cos_h * perp - sin_h * phi.vector


def _system_marginal(gamma: np.ndarray, dim: int) -> DensityMatrix:
    """Tr_reference |gamma><gamma| = M M^dag, with M the vector as a dim x dim matrix."""
    m = gamma.reshape(dim, dim)
    return DensityMatrix(m @ m.conj().T)


def afw_decompose(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    hamiltonian: HermitianOperator,
    energy_limit: float,
    epsilon: float | None = None,
) -> AfwCertificate:
    """Build the purified mixing decomposition of (rho, sigma).

    Both states must have energy Tr(H .) <= energy_limit.  With
    ``epsilon`` given (in (0, 1/2], at least the trace distance), the
    purified distance is pinned to sqrt(2 epsilon); with ``epsilon``
    omitted the Uhlmann-optimal pair is used and epsilon_used is
    reported as delta^2 / 2.  States with orthogonal supports decompose
    too (delta = 1).
    """
    d = rho.dim
    if sigma.dim != d or hamiltonian.dim != d:
        raise ValidationError("afw_decompose: rho, sigma, hamiltonian dims must agree")
    h = hamiltonian.matrix
    e_rho = float(np.real(np.trace(h @ rho.matrix)))
    e_sigma = float(np.real(np.trace(h @ sigma.matrix)))
    scale = max(1.0, abs(energy_limit))
    if e_rho > energy_limit + ENERGY_TOL * scale or e_sigma > energy_limit + ENERGY_TOL * scale:
        raise ValidationError(
            f"afw_decompose: state energies ({e_rho:.6g}, {e_sigma:.6g}) exceed the "
            f"limit {energy_limit!r}"
        )
    dist = 0.5 * trace_norm(rho.matrix - sigma.matrix)
    if epsilon is None:
        # The trace distance detects coincident inputs reliably; the
        # purified delta inflates machine noise through sqrt(1 - c^2).
        if dist <= DELTA_MIN:
            raise ValidationError(
                "afw_decompose: states are numerically identical; nothing to decompose"
            )
        phi, psi, _ = aligned_purifications(rho, sigma)
    else:
        if not 0.0 < epsilon <= 0.5 + 1e-12:
            raise ValidationError(f"afw_decompose: epsilon={epsilon!r} outside (0, 1/2]")
        if dist > epsilon + 1e-9:
            raise ValidationError(
                f"afw_decompose: trace distance {dist:.6g} exceeds epsilon={epsilon!r}"
            )
        target = math.sqrt(max(0.0, 1.0 - 2.0 * epsilon))
        phi, psi, _ = aligned_purifications(rho, sigma, overlap=target)

    overlap, delta, gamma_plus, gamma_minus = _jordan_pair(phi, psi)
    epsilon_used = 0.5 * delta * delta if epsilon is None else float(epsilon)
    # Both sides of the mixing identity from outer products: rank two at
    # most, so nothing here needs a decomposition.
    omega = (np.outer(phi.vector, phi.vector.conj())
             + delta * np.outer(gamma_minus, gamma_minus.conj())) / (1.0 + delta)
    omega_other = (np.outer(psi.vector, psi.vector.conj())
                   + delta * np.outer(gamma_plus, gamma_plus.conj())) / (1.0 + delta)
    mixing_residual = float(np.max(np.abs(omega - omega_other)))
    if mixing_residual > MIXING_RESIDUAL_TOL:
        raise NumericalError(f"afw_decompose: mixing identity residual {mixing_residual:.3e}")
    tau_plus = _system_marginal(gamma_plus, d)
    tau_minus = _system_marginal(gamma_minus, d)
    # The control E0 + (1 + c) (E - E0) / delta^2 is that of H - E0, read
    # back on H.  The coarse one, c = 1 and delta^2 = 2 eps, is
    # E0 + (E - E0) / eps, bit for bit the F argument of
    # ``continuity_bound`` for the same spectrum, E and eps.
    ground = float(np.linalg.eigvalsh(h)[0])
    excess = max(energy_limit - ground, 0.0)
    return AfwCertificate(
        overlap=overlap,
        delta=delta,
        epsilon_used=epsilon_used,
        energy_limit=float(energy_limit),
        phi=phi,
        psi=psi,
        gamma_plus=PureStateVector(gamma_plus),
        gamma_minus=PureStateVector(gamma_minus),
        tau_plus=tau_plus,
        tau_minus=tau_minus,
        energy_tau_plus=float(np.real(np.trace(h @ tau_plus.matrix))),
        energy_tau_minus=float(np.real(np.trace(h @ tau_minus.matrix))),
        energy_bound_exact=ground + (1.0 + overlap) * excess / (delta * delta),
        energy_bound_coarse=ground + excess / epsilon_used,
        mixing_residual=mixing_residual,
    )
