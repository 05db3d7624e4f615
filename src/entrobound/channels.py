"""Quantum channels in Kraus form and channel information quantities.

Channels map a d_in-dimensional system to a d_out-dimensional one via
rho -> sum_k K_k rho K_k^dag with sum_k K_k^dag K_k = I.  The
Stinespring isometry orders the output as (system, environment), in
keeping with the first-factor-major convention of the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
# mutual_information is not called here; perfbench/tracing.py wraps
# channels.mutual_information, so the name stays importable from this module.
from .entropy import holevo_chi, mutual_information, von_neumann_entropy  # noqa: F401
from .errors import ValidationError
from .operators import DensityMatrix, SubsystemShape, purify

KRAUS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple
    name: str = "channel"

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValidationError("Channel: need at least one Kraus operator")
        mats = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        object.__setattr__(self, "kraus", mats)
        shape = mats[0].shape
        if len(shape) != 2:
            raise ValidationError("Channel: Kraus operators must be matrices")
        for k in mats[1:]:
            if k.shape != shape:
                raise ValidationError(
                    f"Channel: mixed Kraus shapes {k.shape} vs {shape}"
                )
        total = sum(k.conj().T @ k for k in mats)
        defect = np.abs(total - np.eye(shape[1])).max()
        if defect > KRAUS_TOL:
            raise ValidationError(
                f"Channel {self.name!r}: sum K^dag K deviates from identity by {defect:.3e}"
            )

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def apply_channel(channel: Channel, rho: DensityMatrix) -> DensityMatrix:
    if rho.dim != channel.dim_in:
        raise ValidationError(
            f"apply_channel: state dim {rho.dim} != channel input dim {channel.dim_in}"
        )
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for k in channel.kraus:
        out += k @ rho.matrix @ k.conj().T
    return DensityMatrix(out)


def apply_local(channel: Channel, rho: DensityMatrix, shape: SubsystemShape, which: int) -> DensityMatrix:
    """Apply the channel to one tensor factor of a multipartite state."""
    shape.check_matches(rho.dim)
    n = len(shape.dims)
    if not 0 <= which < n:
        raise ValidationError(f"apply_local: factor index {which} outside 0..{n - 1}")
    if shape.dims[which] != channel.dim_in:
        raise ValidationError(
            f"apply_local: factor dim {shape.dims[which]} != channel input dim {channel.dim_in}"
        )
    tensor_shape = shape.dims + shape.dims
    block = rho.matrix.reshape(tensor_shape)
    out = None
    for k in channel.kraus:
        # Contract K on the row index of the chosen factor, K* on the
        # column index, restoring the axis order afterwards.
        term = np.tensordot(k, block, axes=([1], [which]))
        term = np.moveaxis(term, 0, which)
        term = np.tensordot(term, k.conj(), axes=([n + which], [1]))
        term = np.moveaxis(term, -1, n + which)
        out = term if out is None else out + term
    new_dims = list(shape.dims)
    new_dims[which] = channel.dim_out
    total = int(np.prod(new_dims))
    return DensityMatrix(out.reshape(total, total))


def stinespring(channel: Channel) -> np.ndarray:
    """Isometry V with V rho V^dag = sum_k (K_k rho K_l^dag) x |k><l|.

    The environment sits in the second tensor slot, so tracing out the
    last factor of V rho V^dag recovers the channel output.
    """
    n_env = len(channel.kraus)
    v = np.zeros((channel.dim_out * n_env, channel.dim_in), dtype=complex)
    for idx, k in enumerate(channel.kraus):
        unit = np.zeros((n_env, 1), dtype=complex)
        unit[idx, 0] = 1.0
        v += np.kron(k, unit)
    return v


def channel_mi(channel: Channel, rho: DensityMatrix) -> float:
    """Mutual information I(B:R) between channel output B and an input reference R.

    The input is purified with the reference R in the second slot.  The
    channel's Stinespring output is pure over (B, E, R), so
    I(B:R) = H(R) + H(B) - H(E), with H(R) = H(rho) and H(B) = H(N(rho)).
    The environment state rho_E[k, l] = <K_l sqrt(rho), K_k sqrt(rho)> is
    the Gram matrix of the Kraus-applied purification, and the joint
    (B, R) state has the same nonzero spectrum.  H(E) is taken from the
    smaller of the two: n_kraus x n_kraus, or (dim_out * dim_ref) squared
    when the channel has more Kraus operators than that.
    """
    if rho.dim != channel.dim_in:
        raise ValidationError(
            f"channel_mi: state dim {rho.dim} != channel input dim {channel.dim_in}"
        )
    psi_mat = purify(rho).vector.reshape(rho.dim, rho.dim)
    # vs[k] = K_k psi_mat, one (dim_out, dim_ref) block per Kraus operator.
    vs = np.stack([k @ psi_mat for k in channel.kraus])
    n_kraus = vs.shape[0]
    # N(rho) = sum_k vs[k] vs[k]^dag, from the blocks already formed.
    per_output = vs.transpose(1, 0, 2).reshape(channel.dim_out, -1)
    rho_b = DensityMatrix(per_output @ per_output.conj().T)
    flat = vs.reshape(n_kraus, -1)
    # The environment's Gram matrix, or the joint (B, R) state when that is smaller.
    env = flat @ flat.conj().T if n_kraus <= flat.shape[1] else flat.T @ flat.conj()
    return (von_neumann_entropy(rho) + von_neumann_entropy(rho_b)
            - von_neumann_entropy(DensityMatrix(env)))


def output_holevo(channel: Channel, ensemble: Ensemble) -> float:
    """Holevo quantity of the channel output ensemble."""
    outputs = [apply_channel(channel, s) for s in ensemble.states]
    return holevo_chi(Ensemble(ensemble.weights, tuple(outputs)))


def identity_channel(dim: int) -> Channel:
    return Channel((np.eye(dim, dtype=complex),), name="identity")


def dephasing_channel(p: float, dim: int) -> Channel:
    """Keep the state with weight 1 - p, project to the basis with weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"dephasing_channel: p={p!r} outside [0, 1]")
    kraus = [math.sqrt(1.0 - p) * np.eye(dim, dtype=complex)]
    for i in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[i, i] = math.sqrt(p)
        kraus.append(k)
    return Channel(tuple(kraus), name=f"dephasing({p})")


def depolarizing_channel(p: float, dim: int) -> Channel:
    """Mix toward the maximally mixed state with weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing_channel: p={p!r} outside [0, 1]")
    kraus = [math.sqrt(1.0 - p) * np.eye(dim, dtype=complex)]
    scale = math.sqrt(p / dim)
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = scale
            kraus.append(k)
    return Channel(tuple(kraus), name=f"depolarizing({p})")


def attenuator_channel(transmissivity: float, dim: int) -> Channel:
    """Truncated beam-splitter loss with number-state Kraus operators.

    Kraus operator k lowers the excitation number by k with binomial
    amplitudes; the family is exactly trace preserving on the truncated
    space since the binomial weights sum to one level by level.
    """
    eta = transmissivity
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"attenuator_channel: transmissivity={eta!r} outside [0, 1]")
    kraus = []
    for k in range(dim):
        mat = np.zeros((dim, dim), dtype=complex)
        for n in range(k, dim):
            amp = math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k
            mat[n - k, n] = math.sqrt(amp)
        kraus.append(mat)
    return Channel(tuple(kraus), name=f"attenuator({eta})")


def amplitude_damping_channel(gamma: float, dim: int) -> Channel:
    """Decay toward the ground level with rate gamma per excitation."""
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"amplitude_damping_channel: gamma={gamma!r} outside [0, 1]")
    base = attenuator_channel(1.0 - gamma, dim)
    return Channel(base.kraus, name=f"amplitude-damping({gamma})")


CHANNEL_ZOO_SPECS = (
    ("identity", ()),
    ("dephasing", (0.3,)),
    ("depolarizing", (0.25,)),
    ("amplitude-damping", (0.35,)),
    ("attenuator", (0.8,)),
)


def make_channel(kind: str, dim: int, params=()) -> Channel:
    """Construct a named channel; used by the CLI and the sweep harness."""
    builders = {
        "identity": lambda: identity_channel(dim),
        "dephasing": lambda: dephasing_channel(params[0], dim),
        "depolarizing": lambda: depolarizing_channel(params[0], dim),
        "amplitude-damping": lambda: amplitude_damping_channel(params[0], dim),
        "attenuator": lambda: attenuator_channel(params[0], dim),
    }
    if kind not in builders:
        raise ValidationError(
            f"unknown channel kind {kind!r}; available: {', '.join(sorted(builders))}"
        )
    return builders[kind]()


def channel_zoo(dim: int) -> list[Channel]:
    """The five standard channels exercised by the verification sweeps."""
    return [make_channel(kind, dim, params) for kind, params in CHANNEL_ZOO_SPECS]
