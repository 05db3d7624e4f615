"""Quantum channels in Kraus form and channel information quantities.

Channels map a d_in-dimensional system to a d_out-dimensional one via
rho -> sum_k K_k rho K_k^dag with sum_k K_k^dag K_k = I.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensembles import Ensemble
# mutual_information is not called here; perfbench/tracing.py wraps
# channels.mutual_information, so the name stays importable from this module.
from .entropy import holevo_chi, mutual_information, spectrum_entropy, von_neumann_entropy  # noqa: F401
from .errors import ValidationError
from .operators import (
    EIGENVALUE_CUTOFF,
    POSITIVITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    SubsystemShape,
    purify,
)

KRAUS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map given by Kraus operators.

    The channel keeps read-only copies of the Kraus operators it was
    given, so ``choi_split``, computed from them once, cannot go stale.
    """

    kraus: tuple
    name: str = "channel"

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValidationError("Channel: need at least one Kraus operator")
        mats = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        shape = mats[0].shape
        if len(shape) != 2:
            raise ValidationError("Channel: Kraus operators must be matrices")
        for k in mats[1:]:
            if k.shape != shape:
                raise ValidationError(
                    f"Channel: mixed Kraus shapes {k.shape} vs {shape}"
                )
        # One read-only copy; the Kraus operators are views into it.
        stack = np.array(mats)
        stack.flags.writeable = False
        object.__setattr__(self, "kraus", tuple(stack))
        rows = stack.reshape(-1, shape[1])
        total = rows.conj().T @ rows
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

    @cached_property
    def choi_split(self) -> tuple[float, np.ndarray]:
        """``(c_min, v)`` with Choi matrix C = c_min I + sum_c vec(v[c]) vec(v[c])^dag.

        C = sum_k vec(K_k) vec(K_k)^dag = F F^dag with F = flat^T, the n
        vectorized Kraus operators as columns, so C shares its nonzero
        eigenvalues mu with the n x n Gram matrix F^dag F, and F e is an
        eigenvector of C with norm^2 mu for each Gram eigenvector e.  c_min
        is the smallest eigenvalue of C, Gram eigenvalue mu[n - D] when
        n >= D = dim_out * dim_in (else C is rank-deficient), or 0 when it
        is at most EIGENVALUE_CUTOFF times the largest; the read-only stack
        ``v`` holds the F e above that floor as (dim_out, dim_in) operators
        scaled by sqrt((mu - c_min) / mu), so
        N(rho) = c_min Tr(rho) I + sum_c v[c] rho v[c]^dag.  Computed on
        first use, then kept; a constructor that knows the split in closed
        form sets it instead (``depolarizing_channel``).
        """
        flat = np.stack(self.kraus).reshape(len(self.kraus), -1)
        n, d_choi = flat.shape
        mu, e = np.linalg.eigh(flat.conj() @ flat.T)
        cut = EIGENVALUE_CUTOFF * mu[-1]
        c_min = float(mu[n - d_choi]) if n >= d_choi and mu[n - d_choi] > cut else 0.0
        keep = mu - c_min > cut
        v = (e[:, keep] * np.sqrt((mu[keep] - c_min) / mu[keep])).T @ flat
        v = v.reshape(-1, self.dim_out, self.dim_in)
        v.flags.writeable = False
        return c_min, v

    @cached_property
    def choi_adjoints(self) -> tuple[np.ndarray, np.ndarray]:
        """``choi_split``'s vectors V_c, adjoined for ``channel_mi``'s two products.

        ``(out, env)``: ``out`` stacks the V_c^dag into a
        (k * dim_in, dim_out) column, and ``env`` is the
        (dim_out * dim_in, k) matrix whose column c is conj(vec(V_c)).
        With A_c = V_c rho, N(rho) = [A_1 ... A_k] out and
        N^c(rho) = [vec(A_1) ... vec(A_k)]^T env.
        """
        _, v = self.choi_split
        out = v.conj().transpose(0, 2, 1).reshape(-1, self.dim_out)
        env = v.reshape(len(v), -1).conj().T
        out.flags.writeable = False
        env.flags.writeable = False
        return out, env


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


def channel_mi(channel: Channel, rho: DensityMatrix) -> float:
    """Mutual information I(B:R) between channel output B and an input reference R.

    A purification of rho sent through the channel's Stinespring isometry
    is pure over (B, E, R), so I(B:R) = H(R) + H(B) - H(BR) with
    H(R) = H(rho) and H(BR) = H(E).  With the Choi split
    C = c_min I + V V^dag (``Channel.choi_split``), the k vectors V_c form
    a Kraus set of the channel minus its floor.  When c_min = 0 that is
    the whole channel, and both outputs come from rho itself:
    B = N(rho) = sum_c V_c rho V_c^dag and E = N^c(rho), the complementary
    channel's k x k output N^c(rho)_{cc'} = Tr(V_c rho V_c'^dag), so
    I(B:R) = H(rho) + H(N(rho)) - H(N^c(rho)).  When c_min > 0 the input
    is purified as X = U sqrt(Lambda), with R in rho's eigenbasis, and
    with blocks B_c = V_c X, N(rho) = c_min I + sum_c B_c B_c^dag; the
    joint state is c_min (I_B x Lambda) + W W^dag, W holding the
    vectorized blocks, and ``_floored_joint_spectrum`` takes its spectrum
    from a matrix of size min(k, dim_out) * dim_in.  Which side runs is a
    property of the channel; at d = 16 only depolarizing has c_min > 0,
    and no 256 x 256 matrix is decomposed after the split.
    """
    if rho.dim != channel.dim_in:
        raise ValidationError(
            f"channel_mi: state dim {rho.dim} != channel input dim {channel.dim_in}"
        )
    c_min, v = channel.choi_split
    k, d_out = len(v), channel.dim_out
    if c_min == 0.0:
        out, env = channel.choi_adjoints
        # Rows c * d_out + i of a hold the blocks A_c = V_c rho.
        a = v.reshape(-1, rho.dim) @ rho.matrix
        rho_b = DensityMatrix(a.reshape(k, d_out, -1).transpose(1, 0, 2).reshape(d_out, -1) @ out)
        rho_e = DensityMatrix(a.reshape(k, -1) @ env)
        return von_neumann_entropy(rho) + von_neumann_entropy(rho_b) - von_neumann_entropy(rho_e)
    x = purify(rho).vector.reshape(rho.dim, rho.dim)
    # blocks[c] = V_c X, one (dim_out, dim_ref) block per Choi vector.
    blocks = v @ x
    per_output = blocks.transpose(1, 0, 2).reshape(d_out, -1)
    rho_b = DensityMatrix(per_output @ per_output.conj().T + c_min * np.eye(d_out))
    lam = np.sum(np.abs(x) ** 2, axis=0)
    h_joint = spectrum_entropy(_floored_joint_spectrum(c_min, lam, blocks))
    return von_neumann_entropy(rho) + von_neumann_entropy(rho_b) - h_joint


def _floored_joint_spectrum(c_min: float, lam: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Spectrum of J = c_min (I_B x diag(lam)) + sum_c vec(B_c) vec(B_c)^dag.

    For each reference index r, Q_r R_r is the QR factorization of the
    r-th columns of the blocks (a dim_out x k matrix); Q_r has
    m = min(dim_out, k) orthonormal columns.  The span of the Q_r x |r>
    holds every vec(B_c) and is invariant under the diagonal term, so it
    is invariant under J, where J has coordinates
    diag(c_min lam_r) + R R^dag (R stacks the R_r).  On its complement J
    is the diagonal term alone: c_min lam_r, dim_out - m times for each r.
    The result passes DensityMatrix's trace and positivity checks.
    """
    k, d_out, d_ref = blocks.shape
    r = np.linalg.qr(blocks.transpose(2, 1, 0), mode="r")
    m = r.shape[1]
    w_hat = r.reshape(d_ref * m, k)
    reduced = w_hat @ w_hat.conj().T + np.diag(c_min * np.repeat(lam, m))
    spectrum = np.concatenate([np.linalg.eigvalsh(reduced),
                               np.repeat(c_min * lam, d_out - m)])
    tr = float(np.sum(spectrum))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"channel_mi: joint trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
    wmin = float(np.min(spectrum))
    if wmin < -POSITIVITY_TOL:
        raise ValidationError(f"channel_mi: joint state has negative eigenvalue {wmin:.3e}")
    return spectrum


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
    """Mix toward the maximally mixed state with weight p.

    The Kraus operators are sqrt(1 - p) I and sqrt(p / dim) |i><j|, so the
    Choi matrix is (1 - p) vec(I) vec(I)^dag + (p / dim) I: the channel
    carries its ``choi_split`` in closed form and never decomposes the
    dim^2 x dim^2 Choi matrix.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing_channel: p={p!r} outside [0, 1]")
    kraus = [math.sqrt(1.0 - p) * np.eye(dim, dtype=complex)]
    scale = math.sqrt(p / dim)
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = scale
            kraus.append(k)
    channel = Channel(tuple(kraus), name=f"depolarizing({p})")
    if dim > 1:
        object.__setattr__(channel, "choi_split", _depolarizing_split(p, dim))
    return channel


def _depolarizing_split(p: float, dim: int) -> tuple[float, np.ndarray]:
    """``Channel.choi_split`` of the depolarizing channel.

    The Choi eigenvalues are (1 - p) dim + p / dim on vec(I) / sqrt(dim)
    and p / dim on its complement, which is empty when dim = 1 (hence
    dim > 1); the floor and the cutoff follow the numerical rule.
    """
    top = (1.0 - p) * dim + p / dim
    cut = EIGENVALUE_CUTOFF * top
    c_min = p / dim if p / dim > cut else 0.0
    if top - c_min > cut:
        v = math.sqrt((top - c_min) / dim) * np.eye(dim, dtype=complex)[None]
    else:
        v = np.zeros((0, dim, dim), dtype=complex)
    v.flags.writeable = False
    return c_min, v


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


# kind -> (constructor taking (*params, dim), parameter names)
_KINDS = {
    "identity": (identity_channel, ()),
    "dephasing": (dephasing_channel, ("p",)),
    "depolarizing": (depolarizing_channel, ("p",)),
    "amplitude-damping": (amplitude_damping_channel, ("gamma",)),
    "attenuator": (attenuator_channel, ("transmissivity",)),
}


def make_channel(kind: str, dim: int, params=()) -> Channel:
    """Construct a named channel; used by the CLI and the sweep harness.

    The kind and its parameter count are checked before anything is built.
    """
    if kind not in _KINDS:
        raise ValidationError(
            f"unknown channel kind {kind!r}; available: {', '.join(sorted(_KINDS))}"
        )
    build, names = _KINDS[kind]
    params = tuple(params)
    if len(params) != len(names):
        shown = f" ({', '.join(names)})" if names else ""
        raise ValidationError(
            f"channel {kind!r} takes {len(names)} parameter(s){shown}, got {len(params)}"
        )
    return build(*params, dim)


def channel_zoo(dim: int) -> list[Channel]:
    """The five standard channels exercised by the verification sweeps."""
    return [make_channel(kind, dim, params) for kind, params in CHANNEL_ZOO_SPECS]
