"""Dense operator kernels for finite-dimensional quantum states.

All operators are dense complex numpy arrays.  Tensor factors use the
first-factor-major convention: the flat index of ``|i> (x) |j>`` on dims
``(dA, dB)`` is ``i * dB + j``, matching ``numpy.kron``.  Purifications
always place the reference copy in the second tensor slot, so a
purification of a dim-d state is a vector of length d**2 on system (x)
reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
NORM_TOL = 1e-10
# Relative to the largest |eigenvalue| of the operator at hand.
EIGENVALUE_CUTOFF = 1e-12
# Squared-overlap threshold for support inclusion checks.
SUPPORT_OVERLAP_TOL = 1e-8


def _square_complex(matrix, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what}: expected a square matrix, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"{what}: contains non-finite entries")
    return arr


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    dev = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if dev > HERMITICITY_TOL:
        raise ValidationError(f"{what}: not Hermitian, max |A - A^dag| = {dev:.3e}")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A validated dense Hermitian matrix (e.g. a truncated Hamiltonian)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _square_complex(self.matrix, "HermitianOperator")
        _check_hermitian(arr, "HermitianOperator")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, PSD within tolerance.

    The state owns a read-only copy of the matrix it was given, and keeps
    the ascending ``eigvalsh`` spectrum of that copy, computed once for the
    positivity check, as the read-only attribute ``spectrum``.  Entropies
    read the spectrum instead of decomposing the matrix again; since
    neither array can be written, the two never disagree.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _square_complex(np.array(self.matrix, dtype=complex), "DensityMatrix")
        _check_hermitian(arr, "DensityMatrix")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"DensityMatrix: trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        spectrum = np.linalg.eigvalsh(arr)
        wmin = float(spectrum[0])
        if wmin < -POSITIVITY_TOL:
            raise ValidationError(f"DensityMatrix: negative eigenvalue {wmin:.3e}")
        arr.flags.writeable = False
        spectrum.flags.writeable = False
        object.__setattr__(self, "matrix", arr)
        # Not a dataclass field, so serialization and repr see the matrix only.
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PureStateVector:
    """A unit-norm state vector."""

    vector: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vector, dtype=complex).reshape(-1)
        if arr.size == 0 or not np.isfinite(arr).all():
            raise ValidationError("PureStateVector: empty or non-finite vector")
        nrm = float(np.linalg.norm(arr))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValidationError(f"PureStateVector: norm {nrm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "vector", arr)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True)
class SubsystemShape:
    """Tensor factor dimensions of a composite space, first factor major."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError(f"SubsystemShape: invalid factor dims {self.dims!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def check_matches(self, dim: int) -> None:
        if self.total_dim != dim:
            raise ValidationError(
                f"SubsystemShape: factor dims {self.dims} multiply to {self.total_dim}, "
                f"but the operator has dim {dim}"
            )


def _matrix_of(op) -> np.ndarray:
    if isinstance(op, (HermitianOperator, DensityMatrix)):
        return op.matrix
    if isinstance(op, PureStateVector):
        v = op.vector
        return np.outer(v, v.conj())
    return _square_complex(op)


def eig_hermitian(op) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending.

    Returns ``(w, v)`` with ``op = v @ diag(w) @ v.conj().T`` and ``w`` sorted
    in descending order; column ``v[:, k]`` is the eigenvector of ``w[k]``.
    """
    arr = _matrix_of(op)
    _check_hermitian(arr, "eig_hermitian input")
    w, v = np.linalg.eigh(arr)
    return w[::-1].copy(), v[:, ::-1].copy()


def trace_norm(op) -> float:
    """Trace norm (sum of |eigenvalues|) of a Hermitian operator."""
    arr = _matrix_of(op)
    _check_hermitian(arr, "trace_norm input")
    return float(np.sum(np.abs(np.linalg.eigvalsh(arr))))


def tensor(*ops) -> np.ndarray:
    """Kronecker product of the given operators, first factor major."""
    if not ops:
        raise ValidationError("tensor: needs at least one factor")
    out = _matrix_of(ops[0])
    for op in ops[1:]:
        out = np.kron(out, _matrix_of(op))
    return out


def _partial_trace_array(arr: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    n = len(dims)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"partial_trace: keep={keep!r} out of range for {n} factors")
    t = arr.reshape(dims + dims)
    # einsum letters: row index i_f and column index j_f per factor; traced
    # factors reuse the row letter in the column slot.
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise ValidationError("partial_trace: too many tensor factors")
    row = list(letters[:n])
    col = [letters[n + f] if f in keep else row[f] for f in range(n)]
    out_idx = "".join(row[f] for f in keep) + "".join(col[f] for f in keep)
    spec = "".join(row) + "".join(col) + "->" + out_idx
    d_keep = math.prod(dims[f] for f in keep)
    return np.einsum(spec, t).reshape(d_keep, d_keep)


def partial_trace(state: DensityMatrix, shape, keep) -> DensityMatrix:
    """Trace out all factors not listed in ``keep`` (0-based positions).

    The kept factors stay in their original order.
    """
    sh = shape if isinstance(shape, SubsystemShape) else SubsystemShape(tuple(shape))
    sh.check_matches(state.dim)
    out = _partial_trace_array(state.matrix, sh.dims, tuple(keep))
    return DensityMatrix(out)


def _psd_sqrt(arr: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(arr)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Computed as the nuclear norm of sqrt(rho) sqrt(sigma), which is the
    same quantity and symmetric by construction.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"fidelity: dims differ ({rho.dim} vs {sigma.dim})")
    m = _psd_sqrt(rho.matrix) @ _psd_sqrt(sigma.matrix)
    f = float(np.sum(np.linalg.svd(m, compute_uv=False)))
    return min(max(f, 0.0), 1.0)


def _vec(mat: np.ndarray) -> np.ndarray:
    # vec(M)[j*d + i] = M[j, i]: system index j first, reference index i second.
    return mat.reshape(-1)


def purify(rho: DensityMatrix) -> PureStateVector:
    """Canonical purification with the reference copy in the second slot.

    Eigenvalues are consumed in descending order, so a pure input |v><v|
    returns |v> (x) |0> up to a global phase.
    """
    w, v = eig_hermitian(rho)
    w = np.clip(w, 0.0, None)
    m = v * np.sqrt(w)
    vec = _vec(m)
    nrm = float(np.linalg.norm(vec))
    return PureStateVector(vec / nrm)


def aligned_purifications(
    rho: DensityMatrix, sigma: DensityMatrix, overlap: float | None = None
) -> tuple[PureStateVector, PureStateVector, float]:
    """Joint purifications of rho and sigma with a real nonnegative overlap.

    With ``overlap=None`` the pair is Uhlmann-optimal: <phi|psi> equals the
    fidelity F(rho, sigma).  A target ``overlap`` in [0, F] detunes the
    reference-side alignment so that <phi|psi> hits the target exactly
    (used to pin the purified distance of a decomposition).  Returns
    ``(phi, psi, delta)`` with ``delta = sqrt(1 - <phi|psi>^2)``.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"aligned_purifications: dims differ ({rho.dim} vs {sigma.dim})")
    sr = _psd_sqrt(rho.matrix)
    ss = _psd_sqrt(sigma.matrix)
    u, s, vh = np.linalg.svd(sr @ ss)
    fid = float(np.sum(s))
    if overlap is None or abs(fid - overlap) <= 1e-12:
        mixer = np.eye(rho.dim)
        c = fid
    else:
        c0 = float(overlap)
        if not 0.0 <= c0 <= fid + 1e-9:
            raise ValidationError(
                f"aligned_purifications: target overlap {c0!r} outside [0, fidelity={fid!r}]"
            )
        mixer, c = _detuned_mixer(s, c0)
    w = vh.conj().T @ mixer @ u.conj().T
    phi = _vec(sr)
    psi = _vec(ss @ w)
    phi = phi / float(np.linalg.norm(phi))
    psi = psi / float(np.linalg.norm(psi))
    c = min(max(c, 0.0), 1.0)
    delta = math.sqrt(max(0.0, 1.0 - c * c))
    return PureStateVector(phi), PureStateVector(psi), delta


def _detuned_mixer(s: np.ndarray, target: float) -> tuple[np.ndarray, float]:
    """Block rotation R with Tr(diag(s) R) == target, R real orthogonal.

    Singular values come sorted descending.  Pairs (0,1), (2,3), ... share
    one rotation angle; with odd length the smallest value keeps a fixed
    +1 entry, which never obstructs targets in [0, sum(s)].
    """
    d = s.shape[0]
    total = float(np.sum(s))
    if d == 1:
        raise ValidationError("aligned_purifications: cannot detune the overlap in dimension 1")
    if total <= 0.0:
        raise ValidationError("aligned_purifications: zero fidelity admits only overlap 0")
    leftover = float(s[-1]) if d % 2 else 0.0
    denom = total - leftover
    cos_t = (target - leftover) / denom
    cos_t = min(max(cos_t, -1.0), 1.0)
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    mixer = np.zeros((d, d))
    for a in range(0, d - 1, 2):
        mixer[a, a] = cos_t
        mixer[a + 1, a + 1] = cos_t
        mixer[a, a + 1] = sin_t
        mixer[a + 1, a] = -sin_t
    if d % 2:
        mixer[d - 1, d - 1] = 1.0
    achieved = denom * cos_t + leftover
    return mixer, achieved
