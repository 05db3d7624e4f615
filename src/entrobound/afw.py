"""Purified mixing decomposition in the Alicki-Fannes-Winter style.

Given close energy-constrained states rho and sigma, joint purifications
phi and psi are chosen with a real overlap c, and the rank-two
difference |phi><phi| - |psi><psi| splits into the Jordan parts
delta |gamma_+><gamma_+| and delta |gamma_-><gamma_-|,
delta = sqrt(1 - c^2), with the unit vectors gamma_+/- of
``jordan_vectors`` in closed form.  The normalized parts
tau_hat_plus/minus = |gamma_+/-><gamma_+/-| obey the exact mixing identity

    (1+delta)^-1 (|phi><phi| + delta tau_hat_minus)
        = (1+delta)^-1 (|psi><psi| + delta tau_hat_plus)

and their energies are controlled by E0 + (1+c) (E - E0) / delta^2, with
E0 the ground energy of H, so the control moves with H + const.  When a
target epsilon is supplied, the overlap is detuned to sqrt(1 - 2 epsilon)
so delta = sqrt(2 epsilon) exactly and the coarse control
E0 + (E - E0) / epsilon is the F argument of ``continuity_bound``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .gibbs import SpectrumModel
from .operators import (
    DensityMatrix,
    HermitianOperator,
    PureStateVector,
    aligned_purifications,
    partial_trace,
    trace_norm,
)

DELTA_MIN = 1e-10
ENERGY_TOL = 1e-8
MIXING_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AfwCertificate:
    """All pieces of one purified mixing decomposition, ready to audit."""

    overlap: float
    delta: float
    epsilon_used: float
    energy_limit: float
    phi: PureStateVector
    psi: PureStateVector
    tau_hat_plus: DensityMatrix
    tau_hat_minus: DensityMatrix
    tau_plus: DensityMatrix
    tau_minus: DensityMatrix
    omega_star: DensityMatrix
    energy_tau_plus: float
    energy_tau_minus: float
    energy_bound_exact: float
    energy_bound_coarse: float
    mixing_residual: float


def _marginal_energy(vec: np.ndarray, h: np.ndarray, dim: int) -> float:
    mat = vec.reshape(dim, dim)
    return float(np.real(np.einsum("ij,ik,kj->", mat.conj(), h, mat)))


def _energy_control(hamiltonian: HermitianOperator, energy_limit: float, overlap: float,
                    delta_sq: float) -> float:
    """E0 + (1 + c) (E - E0) / delta^2, E0 the ground energy of H.

    This is the control (1 + c) E / delta^2 of H - E0, read back on H.  At
    c = 1 and delta^2 = 2 eps it is E0 + (E - E0) / eps, bit for bit the
    F argument of ``continuity_bound`` for the same spectrum, E and eps.
    """
    ground = SpectrumModel.explicit(np.linalg.eigvalsh(hamiltonian.matrix)).ground_energy
    return ground + (1.0 + overlap) * max(energy_limit - ground, 0.0) / delta_sq


def _jordan_pair(phi: PureStateVector, psi: PureStateVector,
                 where: str) -> tuple[float, float, np.ndarray, np.ndarray]:
    """``(c, delta, gamma_plus, gamma_minus)`` of |phi><phi| - |psi><psi|.

    psi is re-phased so c = <phi|psi> is real nonnegative, and
    psi = c phi + delta psi_perp with delta = |psi - c phi| = sqrt(1 - c^2).
    In the basis (phi, psi_perp) the difference is delta times the
    reflection [[cos a, sin a], [sin a, -cos a]], a = atan2(-c, delta),
    whose +1 and -1 eigenvectors are (cos a/2, sin a/2) and
    (-sin a/2, cos a/2).  Exact at c = 0 (a = 0); only identical pairs,
    delta <= DELTA_MIN, are refused.
    """
    if phi.dim != psi.dim:
        raise ValidationError(f"{where}: dims differ ({phi.dim} vs {psi.dim})")
    raw = complex(np.vdot(phi.vector, psi.vector))
    c = abs(raw)
    psi_vec = psi.vector * (raw.conjugate() / c) if c > 0 else psi.vector
    perp = psi_vec - c * phi.vector
    delta = float(np.linalg.norm(perp))
    if delta <= DELTA_MIN:
        raise ValidationError(f"{where}: states are numerically identical (overlap {c!r})")
    perp = perp / delta
    half = 0.5 * math.atan2(-c, delta)
    cos_h, sin_h = math.cos(half), math.sin(half)
    return c, delta, cos_h * phi.vector + sin_h * perp, cos_h * perp - sin_h * phi.vector


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

    overlap, delta, gamma_plus, gamma_minus = _jordan_pair(phi, psi, "afw_decompose")
    epsilon_used = 0.5 * delta * delta if epsilon is None else float(epsilon)
    tau_hat_plus = PureStateVector(gamma_plus).density()
    tau_hat_minus = PureStateVector(gamma_minus).density()
    rho_hat = np.outer(phi.vector, phi.vector.conj())
    sigma_hat = np.outer(psi.vector, psi.vector.conj())
    omega = (rho_hat + delta * tau_hat_minus.matrix) / (1.0 + delta)
    omega_other = (sigma_hat + delta * tau_hat_plus.matrix) / (1.0 + delta)
    mixing_residual = float(np.max(np.abs(omega - omega_other)))
    if mixing_residual > MIXING_RESIDUAL_TOL:
        raise NumericalError(f"afw_decompose: mixing identity residual {mixing_residual:.3e}")
    shape = (d, d)
    tau_plus = partial_trace(tau_hat_plus, shape, (0,))
    tau_minus = partial_trace(tau_hat_minus, shape, (0,))
    e_plus = float(np.real(np.trace(h @ tau_plus.matrix)))
    e_minus = float(np.real(np.trace(h @ tau_minus.matrix)))
    return AfwCertificate(
        overlap=overlap,
        delta=delta,
        epsilon_used=epsilon_used,
        energy_limit=float(energy_limit),
        phi=phi,
        psi=psi,
        tau_hat_plus=tau_hat_plus,
        tau_hat_minus=tau_hat_minus,
        tau_plus=tau_plus,
        tau_minus=tau_minus,
        omega_star=DensityMatrix(omega),
        energy_tau_plus=e_plus,
        energy_tau_minus=e_minus,
        energy_bound_exact=_energy_control(hamiltonian, energy_limit, overlap, delta * delta),
        energy_bound_coarse=_energy_control(hamiltonian, energy_limit, 1.0, 2.0 * epsilon_used),
        mixing_residual=mixing_residual,
    )


def jordan_vectors(phi: PureStateVector, psi: PureStateVector) -> tuple[PureStateVector, PureStateVector]:
    """Closed-form unit eigenvectors of |phi><phi| - |psi><psi|.

    Returns (gamma_plus, gamma_minus) with eigenvalues +delta and
    -delta, delta = sqrt(1 - c^2), c = |<phi|psi>|, in the half-angle
    form of ``_jordan_pair``.  Orthogonal pairs give (phi, psi);
    identical pairs (delta <= DELTA_MIN) are refused.
    """
    _, _, gamma_plus, gamma_minus = _jordan_pair(phi, psi, "jordan_vectors")
    return PureStateVector(gamma_plus), PureStateVector(gamma_minus)


def energy_estimate(
    phi: PureStateVector,
    psi: PureStateVector,
    hamiltonian: HermitianOperator,
    energy_limit: float,
) -> float:
    """Energy control E0 + (1 + c) (E - E0) / delta^2 for the decomposition of (phi, psi).

    E0 is the ground energy of H.  Both marginals must have energy
    <= energy_limit; the value bounds Tr(H tau) for both normalized
    Jordan parts and never exceeds E0 + 2 (E - E0) / delta^2.
    """
    d = hamiltonian.dim
    if phi.dim != d * d or psi.dim != d * d:
        raise ValidationError(
            f"energy_estimate: purification dims {phi.dim}, {psi.dim} do not match "
            f"hamiltonian dim {d} squared"
        )
    h = hamiltonian.matrix
    scale = max(1.0, abs(energy_limit))
    for name, vec in (("phi", phi.vector), ("psi", psi.vector)):
        e = _marginal_energy(vec, h, d)
        if e > energy_limit + ENERGY_TOL * scale:
            raise ValidationError(
                f"energy_estimate: marginal energy of {name} ({e:.6g}) exceeds {energy_limit!r}"
            )
    c, delta, _, _ = _jordan_pair(phi, psi, "energy_estimate")
    return _energy_control(hamiltonian, energy_limit, c, delta * delta)
