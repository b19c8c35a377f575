"""Private states: key part plus shield, and their spectral structure.

An N-party private state with key dimension d is assembled from its
generating data (shield state, one shield unitary per key value):

    Gamma = (1/d) sum_{i,j} |i...i><j...j|  (x)  U_i rho U_j^dagger

in the canonical factor order [key_0 .. key_{N-1}, shield_0 .. shield_{N-1}].
Each party k owns the pair (key_k, shield_k).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .linalg import SubsystemLayout, factor_permutation, kron_all, layout
from .states import (
    UNITARY_TOL,
    DensityMatrix,
    UnitaryOp,
    random_density,
    random_unitary,
    validate_state,
)

EIGENVALUE_CUTOFF = 1e-12  # below this a shield eigenvalue counts as zero
DEFAULT_DIM_CAP = 4096  # largest D for which a dense D x D state is built


@dataclass(frozen=True)
class PrivateStateSpec:
    """Generating data of a private state."""

    d: int
    parties: int
    shield_dims: tuple[int, ...]
    unitaries: tuple[UnitaryOp, ...]
    shield: DensityMatrix

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"key dimension d must be >= 2, got {self.d}")
        if self.parties < 2:
            raise ValueError(f"parties must be >= 2, got {self.parties}")
        if len(self.shield_dims) != self.parties:
            raise ValueError(
                f"need one shield dim per party, got {len(self.shield_dims)} "
                f"for {self.parties} parties"
            )
        if len(self.unitaries) != self.d:
            raise ValueError(f"need d={self.d} unitaries, got {len(self.unitaries)}")
        s = self.shield_total_dim
        if self.shield.dim != s:
            raise ValueError(f"shield dim {self.shield.dim} != prod(shield_dims)={s}")
        for k, u in enumerate(self.unitaries):
            if u.dim != s:
                raise ValueError(f"unitary {k} has dim {u.dim}, expected {s}")

    @property
    def shield_total_dim(self) -> int:
        return math.prod(self.shield_dims)

    @property
    def total_dim(self) -> int:
        return self.d**self.parties * self.shield_total_dim

    def state_layout(self) -> SubsystemLayout:
        keys = [(f"K{k}", self.d, k, "key") for k in range(self.parties)]
        shields = [
            (f"S{k}", self.shield_dims[k], k, "shield") for k in range(self.parties)
        ]
        return layout(keys + shields)


@dataclass(frozen=True)
class PrivateState:
    spec: PrivateStateSpec
    rho: DensityMatrix


def shield_layout(shield_dims: tuple[int, ...] | list[int]) -> SubsystemLayout:
    return layout([(f"S{k}", dim, k, "shield") for k, dim in enumerate(shield_dims)])


def random_spec(
    d: int,
    parties: int,
    shield_dims: tuple[int, ...] | list[int],
    seed: int,
    shield_rank: int | None = None,
) -> PrivateStateSpec:
    """Spec with a Wishart shield and Haar unitaries, all derived from `seed`."""
    if d < 2:  # before `spawn(d + 1)`, which fails on it with a traceback
        raise ValueError(f"key dimension d must be >= 2, got {d}")
    dims = tuple(int(x) for x in shield_dims)
    s = math.prod(dims)
    if shield_rank is None:
        shield_rank = s
    children = np.random.SeedSequence(seed).spawn(d + 1)
    shield = random_density(s, shield_rank, children[0], lay=shield_layout(dims))
    unitaries = tuple(random_unitary(s, children[1 + i]) for i in range(d))
    return PrivateStateSpec(
        d=d, parties=parties, shield_dims=dims, unitaries=unitaries, shield=shield
    )


def with_shield(spec: PrivateStateSpec, shield: np.ndarray) -> PrivateStateSpec:
    """Same key structure and unitaries, different (validated) shield state."""
    return PrivateStateSpec(
        d=spec.d,
        parties=spec.parties,
        shield_dims=spec.shield_dims,
        unitaries=spec.unitaries,
        shield=validate_state(shield, shield_layout(spec.shield_dims)),
    )


def depolarized_spec(spec: PrivateStateSpec, x: float) -> PrivateStateSpec:
    """Mix the shield with the maximally mixed state: (1-x) rho + x I/s."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {x}")
    s = spec.shield_total_dim
    mixed = (1.0 - x) * spec.shield.matrix + x * np.eye(s) / s
    return with_shield(spec, mixed)


def repeated_key_index(value: int, d: int, parties: int) -> int:
    """Flat index of |value...value> in the d^parties key space."""
    return value * ((d**parties - 1) // (d - 1))


def check_dense_dim(dim: int, power: int = 1) -> None:
    """Refuse a dense state of dimension dim**power above DEFAULT_DIM_CAP.

    The power is formed one factor at a time and only until it passes the
    cap, so a huge power costs nothing and is named as `dim^power`.
    """
    total = 1
    for k in range(1, power + 1):
        total *= dim
        if total > DEFAULT_DIM_CAP:
            size = total if k == power else f"{dim}^{power}"
            raise ValueError(f"dense state dimension {size} exceeds cap {DEFAULT_DIM_CAP}")


def build_private_state(spec: PrivateStateSpec) -> PrivateState:
    """Assemble the density matrix of a private state from its spec.

    This is the one place that builds a D x D matrix, so D is capped at
    DEFAULT_DIM_CAP here; `ed_lower_bound` and `distill` need no dense state.
    """
    check_dense_dim(spec.total_dim)
    d, n = spec.d, spec.parties
    key_dim = d**n
    s = spec.shield_total_dim
    dim = key_dim * s
    # Repeated same-size `np.zeros` calls reuse dirty heap memory, which is
    # memset and stays resident whole. A private anonymous map gives pages
    # that the kernel zeroes on first write, so only the rows of the d^2 key
    # blocks are ever resident; reading the rest maps the shared zero page.
    if hasattr(mmap, "MAP_PRIVATE"):
        buf = mmap.mmap(-1, dim * dim * np.dtype(complex).itemsize, flags=mmap.MAP_PRIVATE)
        rho = np.frombuffer(buf, dtype=complex).reshape(dim, dim)
    else:
        rho = np.zeros((dim, dim), dtype=complex)
    us = np.array([u.matrix for u in spec.unitaries])
    # Block (i, j) is U_i rho U_j^dagger / d: one batched product, each
    # block the same BLAS calls as `ui @ shield @ uj.conj().T` alone. The
    # key strings |a..a> are every `rep`-th key index, so the d^2 blocks are
    # a strided view of the matrix and are written in place.
    cross = (us @ spec.shield.matrix)[:, None] @ us.conj().transpose(0, 2, 1)[None]
    rep = repeated_key_index(1, d, n)
    blocks = rho.reshape(key_dim, s, key_dim, s)[::rep, :, ::rep, :]
    np.divide(cross.transpose(0, 2, 1, 3), d, out=blocks)
    # No dense check: the spectrum is the shield's (see eigenvectors_of_pdit),
    # and the shield and unitaries were checked when the spec was made.
    return PrivateState(spec=spec, rho=DensityMatrix(rho, spec.state_layout()))


def eigenvectors_of_pdit(spec: PrivateStateSpec) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of the private state with eigenvalue above the cutoff.

    Each shield eigenpair (lam, phi) lifts to the state eigenpair

        (lam, (1/sqrt d) sum_j |j...j> (x) U_j phi),

    for any number of parties. So the state's spectrum is the shield's,
    padded with zeros. The pairs come largest eigenvalue first.
    """
    d, n = spec.d, spec.parties
    # the shield was checked Hermitian when the spec was made
    vals, vecs = np.linalg.eigh(spec.shield.matrix)
    keep = np.flatnonzero(vals > EIGENVALUE_CUTOFF)[::-1]
    us = np.array([u.matrix for u in spec.unitaries])
    # row (k, j) of `lifted` is U_j phi_k / sqrt(d): one batched product,
    # written into the repeated-key rows |j..j> as `build_private_state` does
    lifted = (us @ vecs[:, keep]).transpose(2, 0, 1) / np.sqrt(d)
    psi = np.zeros((len(keep), d**n, spec.shield_total_dim), dtype=complex)
    psi[:, :: repeated_key_index(1, d, n)] = lifted
    psi = psi.reshape(len(keep), spec.total_dim)
    return [(float(lam), vec) for lam, vec in zip(vals[keep], psi)]


def tensor_power_spec(spec: PrivateStateSpec, m: int) -> tuple[PrivateStateSpec, np.ndarray]:
    """Spec of Gamma^(x m), plus the basis permutation relating the two.

    The m-fold tensor power of a private state is itself a private state
    with key dimension d^m once factors are regrouped per party. Returns
    (power_spec, perm) where perm satisfies

        build_private_state(power_spec).rho.matrix == M[ix_(perm, perm)]

    for M the plain tensor power of the original state's matrix.
    """
    if m < 1:
        raise ValueError(f"power m must be >= 1, got {m}")
    d, n = spec.d, spec.parties
    if m == 1:
        return spec, np.arange(spec.total_dim)

    # Regroup the shield copies party-major: [S_0^(0..m-1), ..., S_{n-1}^(0..m-1)].
    shield_dims_src = list(spec.shield_dims) * m
    shield_order = [c * n + k for k in range(n) for c in range(m)]
    q = factor_permutation(shield_dims_src, shield_order)

    new_dims = tuple(int(s**m) for s in spec.shield_dims)
    # No dense check: a tensor power of a state is a state, and a re-check
    # would refuse powers of accepted shields as their trace errors compound.
    shield_power = kron_all([spec.shield.matrix] * m)[np.ix_(q, q)]
    new_shield = DensityMatrix(shield_power, shield_layout(new_dims))

    # Each factor has U^dagger U = I + E with ||E||_F <= tau, so the power's
    # defect ||(x)_k (I + E_k) - I||_F is at most (sqrt(s) + tau)^m - s^(m/2)
    # (expand the product; ||I_s||_F = sqrt(s)), formed here without the
    # cancellation. A check against tau itself would refuse powers of
    # accepted unitaries.
    s = spec.shield_total_dim
    tol = s ** (m / 2) * math.expm1(m * math.log1p(UNITARY_TOL / math.sqrt(s)))
    unitaries = []
    for big in range(d**m):
        # the key values of the m copies: big-endian, copy 0 the most significant digit
        u = kron_all([spec.unitaries[i].matrix for i in np.unravel_index(big, (d,) * m)])
        unitaries.append(UnitaryOp(matrix=u[np.ix_(q, q)], tol=tol))

    power_spec = PrivateStateSpec(
        d=d**m,
        parties=n,
        shield_dims=new_dims,
        unitaries=tuple(unitaries),
        shield=new_shield,
    )

    # Full-state permutation: copies of [keys, shields] -> keys party-major
    # then shields party-major, copy index running fastest within a party.
    dims_src = (([d] * n) + list(spec.shield_dims)) * m
    order = [c * 2 * n + k for k in range(n) for c in range(m)]
    order += [c * 2 * n + n + k for k in range(n) for c in range(m)]
    perm = factor_permutation(dims_src, order)
    return power_spec, perm
