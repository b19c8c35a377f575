"""Dense complex linear algebra and multipartite index bookkeeping.

Everything here is a pure function of ndarrays plus a small layout type
that records how a matrix dimension factors into labelled subsystems.
Logarithms are base 2 throughout (entropies are in bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerances shared across the package (see also states.validate_state).
HERM_TOL = 1e-12      # entrywise, relative to the largest |entry|
PSD_TOL = 1e-10       # most negative eigenvalue allowed
TRACE_TOL = 1e-10
CONV_TOL = 1e-12      # iterative-ascent convergence threshold
RESTARTS = 32         # random starts per cross operator in the ascent
MAX_ITERS = 200       # sweep limit per start


class LayoutError(ValueError):
    """A subsystem layout is inconsistent with the matrix it describes."""


@dataclass(frozen=True)
class Factor:
    """One tensor factor: a labelled local Hilbert space."""

    label: str
    dim: int
    party: int
    role: str  # "key" or "shield"


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered list of tensor factors making up a matrix dimension."""

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        labels = [f.label for f in self.factors]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate factor labels: {labels}")
        for f in self.factors:
            if f.dim < 1:
                raise LayoutError(f"factor {f.label!r} has dim {f.dim} < 1")
            if f.role not in ("key", "shield"):
                raise LayoutError(f"factor {f.label!r} has unknown role {f.role!r}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.factors else 1

    def index_of(self, label: str) -> int:
        for k, f in enumerate(self.factors):
            if f.label == label:
                return k
        raise LayoutError(f"unknown factor label {label!r}")

    def check_matches(self, mat: np.ndarray) -> None:
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise LayoutError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] != self.total_dim:
            raise LayoutError(
                f"layout dims {self.dims} give total {self.total_dim}, "
                f"matrix is {mat.shape[0]}x{mat.shape[1]}"
            )


def layout(factors: Sequence[tuple[str, int, int, str]]) -> SubsystemLayout:
    """Build a SubsystemLayout from (label, dim, party, role) tuples."""
    return SubsystemLayout(tuple(Factor(*f) for f in factors))


def as_complex(mat: np.ndarray) -> np.ndarray:
    """View input as a complex ndarray, rejecting non-finite entries."""
    out = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError("matrix contains NaN or Inf entries")
    return out


def hermiticity_defect(mat: np.ndarray) -> float | np.ndarray:
    """Largest |M - M^dagger| entry, scaled by the largest |entry| of M;
    for a stack of shape (..., n, n), one defect per matrix."""
    mat = np.asarray(mat)
    scale = np.abs(mat).max(axis=(-2, -1), initial=0.0)
    diff = np.abs(mat - np.swapaxes(mat, -2, -1).conj()).max(axis=(-2, -1), initial=0.0)
    defect = np.divide(diff, scale, out=np.zeros_like(scale), where=scale > 0.0)
    return float(defect) if mat.ndim == 2 else defect


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a nonempty sequence (left to right).

    Works for matrices and for vectors alike; the result keeps the
    dimensionality of the inputs.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("kron_all needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        m = np.asarray(m, dtype=complex)
        if out.ndim == m.ndim == 1:  # the product np.kron forms, without its overhead
            out = (out[:, None] * m[None, :]).ravel()
        else:
            out = np.kron(out, m)
    return out


def partial_trace(
    mat: np.ndarray, lay: SubsystemLayout, keep: Iterable[str]
) -> np.ndarray:
    """Trace out all factors not in `keep`; kept factors stay in layout order.

    Preserves the trace of `mat`.
    """
    mat = np.asarray(mat, dtype=complex)
    lay.check_matches(mat)
    keep_set = set(keep)
    if not keep_set:
        raise LayoutError("keep must be a nonempty set of factor labels")
    keep_idx = sorted(lay.index_of(lbl) for lbl in keep_set)

    dims = lay.dims
    n = len(dims)
    tensor = mat.reshape(dims + dims)
    # Equate bra/ket axes of every traced factor, keep the rest.
    row_axes = list(range(2 * n))
    for j in range(n):
        if j not in keep_idx:
            row_axes[n + j] = row_axes[j]
    out_axes = [row_axes[j] for j in keep_idx] + [row_axes[n + j] for j in keep_idx]
    reduced = np.einsum(tensor, row_axes, out_axes)
    d_keep = int(np.prod([dims[j] for j in keep_idx]))
    return reduced.reshape(d_keep, d_keep)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Entropy -sum(lam * log2 lam) of a density matrix, in bits.

    `rho` may also be a stack of shape (..., n, n); the result then has
    shape (...), one entropy per matrix. Eigenvalues in [-PSD_TOL, 0) are
    clamped to 0; anything more negative is an error.
    """
    rho = as_complex(rho)
    vals = np.linalg.eigvalsh((rho + np.swapaxes(rho.conj(), -1, -2)) / 2)
    low = vals.min(initial=0.0)
    if low < -PSD_TOL:
        raise ValueError(f"eigenvalue {low:.3e} below -{PSD_TOL:g}")
    vals = np.clip(vals, 0.0, None)
    logs = np.log2(vals, out=np.zeros_like(vals), where=vals > 0.0)
    # an eigenvalue a hair above 1 would otherwise give a tiny negative
    out = np.maximum(-np.sum(vals * logs, axis=-1), 0.0)
    return float(out) if out.ndim == 0 else out


def factor_permutation(dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Flat-index permutation realizing a reordering of tensor factors.

    `order[t]` names the source factor placed at target position t. The
    returned array p satisfies: reordered[a, b] = original[p[a], p[b]].
    """
    dims = list(dims)
    n = len(dims)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {list(order)} is not a permutation of 0..{n - 1}")
    total = int(np.prod(dims)) if n else 1
    src = np.arange(total).reshape(dims) if n else np.arange(total)
    return np.transpose(src, axes=list(order)).ravel()


def permute_factors(
    mat: np.ndarray, dims: Sequence[int], order: Sequence[int]
) -> np.ndarray:
    """Reorder the tensor factors of a square matrix on prod(dims)."""
    mat = np.asarray(mat, dtype=complex)
    p = factor_permutation(dims, order)
    if mat.shape != (p.size, p.size):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {list(dims)}")
    return mat[np.ix_(p, p)]
