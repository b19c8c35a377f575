"""Construction, validation, and seeded random generation of states.

Random ensembles are fixed once and for all: Haar unitaries via QR of a
complex Ginibre matrix (with the phase-of-R-diagonal correction) and
Wishart densities G G^dagger / Tr. Every generator takes an explicit seed.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .linalg import (
    HERM_TOL,
    PSD_TOL,
    TRACE_TOL,
    SubsystemLayout,
    as_complex,
    hermiticity_defect,
    layout,
)


class StateValidationError(ValueError):
    """A matrix failed a density-matrix invariant.

    `violations` holds (invariant name, magnitude of the violation) pairs.
    """

    def __init__(self, violations: list[tuple[str, float]]):
        self.violations = violations
        msg = "; ".join(f"{name} violated by {amount:.3e}" for name, amount in violations)
        super().__init__(f"not a valid density matrix: {msg}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix tagged with a subsystem layout.

    Made by `validate_state`, which checks those invariants, and by
    `build_private_state` and `tensor_power_spec`, whose outputs have them
    by construction.
    """

    matrix: np.ndarray
    layout: SubsystemLayout

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


UNITARY_TOL = 1e-10  # Frobenius norm of U^dagger U - I


@dataclass(frozen=True)
class UnitaryOp:
    """Square matrix with U^dagger U = I within `tol` (Frobenius), by
    default UNITARY_TOL.

    Checked on construction, so every spec holds only unitaries. `tol` is
    not stored; only `tensor_power_spec` passes one, the bound that its
    factors' tolerance implies for their Kronecker product.
    """

    matrix: np.ndarray
    tol: InitVar[float] = UNITARY_TOL

    def __post_init__(self, tol: float) -> None:
        mat = self.matrix
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"unitary must be square, got shape {mat.shape}")
        defect = float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if not defect <= tol:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {tol:.3g})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_state(mat: np.ndarray, lay: SubsystemLayout | None = None) -> DensityMatrix:
    """Check Hermiticity, positivity, and unit trace; return a DensityMatrix.

    Raises StateValidationError listing every violated invariant and by
    how much.
    """
    mat = as_complex(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StateValidationError([("square", float(abs(mat.shape[0] - mat.shape[-1])))])
    if lay is None:
        lay = layout([("A0", mat.shape[0], 0, "shield")])
    lay.check_matches(mat)
    check_states(mat[None])
    return DensityMatrix(matrix=mat, layout=lay)


def check_states(mats: np.ndarray) -> None:
    """Check that each matrix of the (count, n, n) stack `mats` is finite,
    Hermitian, PSD and of unit trace; raise StateValidationError with every
    invariant the first failing member violates, and by how much."""
    mats = as_complex(mats)
    defect = hermiticity_defect(mats)
    min_eig = np.linalg.eigvalsh((mats + mats.conj().transpose(0, 2, 1)) / 2).min(axis=1)
    trace_err = np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0)
    checks = (
        ("hermiticity", defect, defect > HERM_TOL),
        ("positivity", min_eig, min_eig < -PSD_TOL),
        ("unit trace", trace_err, trace_err > TRACE_TOL),
    )
    failed = np.flatnonzero(np.any([bad for _, _, bad in checks], axis=0))
    if failed.size:
        k = failed[0]
        raise StateValidationError([(name, float(v[k])) for name, v, bad in checks if bad[k]])


def validate_unitary(mat: np.ndarray) -> UnitaryOp:
    """Convert `mat` to a complex UnitaryOp, which checks that it is unitary."""
    return UnitaryOp(matrix=as_complex(mat))


def random_unitary(dim: int, seed: int) -> UnitaryOp:
    """Haar-distributed unitary, deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return UnitaryOp(matrix=q)


def random_density(
    dim: int, rank: int, seed: int, lay: SubsystemLayout | None = None
) -> DensityMatrix:
    """Wishart density G G^dagger / Tr for a dim x rank Ginibre G."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2)
    w = g @ g.conj().T
    w /= np.trace(w).real
    return validate_state(w, lay)


def bell_vector(sign: int, i: int, j: int, d: int, parties: int) -> np.ndarray:
    """(|i...i> +/- |j...j>) / sqrt(2) as a vector in (C^d)^(x parties)."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if i == j:
        raise ValueError("indices i and j must differ")
    for idx in (i, j):
        if not 0 <= idx < d:
            raise ValueError(f"index {idx} out of range for d={d}")
    if parties < 1:
        raise ValueError(f"parties must be >= 1, got {parties}")
    vec = np.zeros(d**parties, dtype=complex)
    rep = (d**parties - 1) // (d - 1)  # flat index of |v...v> is v * rep
    vec[i * rep] = 1 / np.sqrt(2)
    vec[j * rep] = sign / np.sqrt(2)
    return vec
