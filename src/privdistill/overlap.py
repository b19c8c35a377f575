"""Largest product overlap of a cross operator.

For key values i != j the cross operator X = U_i rho U_j^dagger is what a
product-state probe can see of the coherence between the two key branches.
The quantity of interest is

    eta = max |<f_1 (x) ... (x) f_N| X |g_1 (x) ... (x) g_N>|

over unit vectors f_k, g_k on the per-party shield factors. `eta_optimize`
runs multi-start alternating ascent with all starts advancing as one batch;
`brute_force_eta` is a deliberately plain one-start-at-a-time
re-implementation used to cross-check it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import CONV_TOL, kron_all
from .private_states import PrivateStateSpec

CROSS_NORM_FLOOR = 1e-14
ETA_FLOOR = 1e-8
DETERMINISTIC_STARTS = 4
BRUTE_FORCE_SWEEPS = 50
BRUTE_FORCE_DIM_CAP = 64


@dataclass(frozen=True)
class OverlapResult:
    """Outcome of a product-overlap maximization.

    Every field but `start_etas` describes the start with the largest
    overlap: `converged` says whether that start met the convergence test
    within the sweep limit, and `sweeps` is the number of sweeps it ran.
    `start_etas` holds the final overlap of every start, in start order.
    """

    eta: float
    theta: float
    bra_vectors: list[np.ndarray]
    ket_vectors: list[np.ndarray]
    converged: bool
    sweeps: int
    start_etas: list[float]


@dataclass(frozen=True)
class PairOverlap(OverlapResult):
    """Overlap result of a key pair (i, j), with the branch weights the
    filtering stage needs: a1 = <f|U_i rho U_i^dagger|f> and
    a2 = <g|U_j rho U_j^dagger|g> for the optimal product vectors f, g.
    """

    a1: float
    a2: float


def cross_operator(spec: PrivateStateSpec, i: int, j: int) -> np.ndarray:
    """X = U_i rho U_j^dagger on the shield space, for key values i != j."""
    d = spec.d
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"key values must lie in [0, {d}), got ({i}, {j})")
    if i == j:
        raise ValueError("cross operator needs two distinct key values")
    x = spec.unitaries[i].matrix @ spec.shield.matrix @ spec.unitaries[j].matrix.conj().T
    if np.abs(x).max() <= CROSS_NORM_FLOOR:
        raise ValueError(
            "cross operator is numerically zero; the shield state is corrupted"
        )
    return x


def _random_product(dims: tuple[int, ...], rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for dim in dims:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out.append(v / np.linalg.norm(v))
    return out


def _basis_product(dims: tuple[int, ...], flat: int) -> list[np.ndarray]:
    out = []
    for idx, dim in zip(np.unravel_index(flat, dims), dims):
        v = np.zeros(dim, dtype=complex)
        v[idx] = 1.0
        out.append(v)
    return out


def _contract_except(tensor: np.ndarray, vectors: list[np.ndarray], skip: int) -> np.ndarray:
    """Contract every axis but `skip` against the matching vector."""
    t = tensor
    for axis in reversed(range(len(vectors))):
        if axis != skip:
            t = np.tensordot(t, vectors[axis], axes=([axis], [0]))
    return t


def _row_kron(factors: list[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product: row b is f_1[b] (x) ... (x) f_N[b]."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, :, None] * f[:, None, :]).reshape(out.shape[0], -1)
    return out


def _fit(t: np.ndarray, dims: tuple[int, ...], factors: list[np.ndarray]) -> list[np.ndarray]:
    """Product factors that raise |<f_1 (x) ... (x) f_N | t_b>| for every row b.

    With two factors the maximum is reached at once through the leading
    singular pair, whatever the current factors; otherwise each factor in
    turn becomes the normalized contraction of t with the conjugates of all
    the others. The overlap with the returned factors is real and
    nonnegative.
    """
    n = len(dims)
    t = t.reshape((t.shape[0],) + dims)
    if n == 2:
        u, _, vh = np.linalg.svd(t, full_matrices=False)
        return [u[:, :, 0], vh[:, 0, :]]
    factors = list(factors)
    for k in range(n):
        operands: list = [t, list(range(n + 1))]
        for m in range(n):
            if m != k:
                operands += [factors[m].conj(), [0, m + 1]]
        c = np.einsum(*operands, [0, k + 1])
        nrm = np.linalg.norm(c, axis=1, keepdims=True)
        factors[k] = np.divide(c, nrm, out=factors[k].copy(), where=nrm > 0.0)
    return factors


def _ascend(
    x: np.ndarray,
    dims: tuple[int, ...],
    bras: list[np.ndarray],
    kets: list[np.ndarray],
    max_iters: int,
    conv_tol: float,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Alternating ascent of every start at once.

    Factors are (starts, dim) arrays. A sweep fits all bra factors, then all
    ket factors. A start stops once a sweep changes its |overlap| by at most
    `conv_tol` (converged) or after `max_iters` sweeps. Updates the factors
    in place and returns them with the complex overlap, sweep count and
    convergence flag of every start.
    """
    g_rows = _row_kron(kets)
    value = np.einsum("bc,bc->b", _row_kron(bras).conj() @ x, g_rows)
    sweeps = np.zeros(value.size, dtype=int)
    converged = np.zeros(value.size, dtype=bool)
    live = np.arange(value.size)
    for sweep in range(1, max_iters + 1):
        f = _fit(g_rows[live] @ x.T, dims, [b[live] for b in bras])
        w = _row_kron(f) @ x.conj()  # row b is x^dagger f_b
        g = _fit(w, dims, [k[live] for k in kets])
        g_live = _row_kron(g)
        g_rows[live] = g_live
        new = np.einsum("bc,bc->b", w.conj(), g_live)
        for k in range(len(dims)):
            bras[k][live], kets[k][live] = f[k], g[k]
        converged[live] = np.abs(np.abs(new) - np.abs(value[live])) <= conv_tol
        value[live] = new
        sweeps[live] = sweep
        live = live[~converged[live]]
        if not live.size:
            break
    return bras, kets, value, sweeps, converged


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def eta_optimize(
    x: np.ndarray,
    dims: tuple[int, ...] | list[int],
    restarts: int = 32,
    max_iters: int = 200,
    conv_tol: float = CONV_TOL,
    seed: int | np.random.SeedSequence = 0,
) -> OverlapResult:
    """Maximize the product overlap of `x` over the factors in `dims`.

    Runs alternating ascent from the largest-magnitude entries of `x` (so the
    result can never fall below the best single entry) and from `restarts`
    random product starts, all starts advancing together as one batch. The
    result describes the start with the largest overlap (see OverlapResult).
    """
    dims = tuple(int(v) for v in dims)
    total = int(np.prod(dims, dtype=np.int64))
    if x.shape != (total, total):
        raise ValueError(f"operator shape {x.shape} does not match dims {dims}")

    magnitudes = np.abs(x).ravel()
    top = np.argsort(magnitudes)[::-1][:DETERMINISTIC_STARTS]
    starts: list[tuple[list[np.ndarray], list[np.ndarray]]] = []
    for flat in top:
        if magnitudes[flat] <= 0.0:
            continue
        row, col = divmod(int(flat), total)
        starts.append((_basis_product(dims, row), _basis_product(dims, col)))
    for child in _seed_sequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        starts.append((_random_product(dims, rng), _random_product(dims, rng)))

    bras = [np.array([s[0][k] for s in starts]) for k in range(len(dims))]
    kets = [np.array([s[1][k] for s in starts]) for k in range(len(dims))]
    bras, kets, value, sweeps, converged = _ascend(
        x, dims, bras, kets, max_iters, conv_tol
    )
    etas = np.abs(value)
    best = int(np.argmax(etas))
    eta = float(etas[best])
    if eta < ETA_FLOOR:
        warnings.warn(
            f"product overlap {eta:.3e} is below {ETA_FLOOR:.0e}; "
            "its phase is numerically meaningless",
            stacklevel=2,
        )
    return OverlapResult(
        eta=eta,
        theta=float(np.angle(value[best])),
        bra_vectors=[b[best].copy() for b in bras],
        ket_vectors=[g[best].copy() for g in kets],
        converged=bool(converged[best]),
        sweeps=int(sweeps[best]),
        start_etas=etas.tolist(),
    )


def _branch_weight(spec: PrivateStateSpec, k: int, vectors: list[np.ndarray]) -> float:
    """<v|U_k rho U_k^dagger|v> for the product vector v of `vectors`."""
    u = spec.unitaries[k].matrix
    v = kron_all(vectors)
    return float(np.real(v.conj() @ (u @ spec.shield.matrix @ u.conj().T) @ v))


def optimize_pair(
    spec: PrivateStateSpec,
    i: int,
    j: int,
    restarts: int = 32,
    max_iters: int = 200,
    conv_tol: float = CONV_TOL,
    seed: int | np.random.SeedSequence = 0,
) -> PairOverlap:
    """Cross operator, overlap maximization, and branch weights in one call."""
    x = cross_operator(spec, i, j)
    result = eta_optimize(
        x,
        spec.shield_dims,
        restarts=restarts,
        max_iters=max_iters,
        conv_tol=conv_tol,
        seed=seed,
    )
    return PairOverlap(
        **vars(result),
        a1=_branch_weight(spec, i, result.bra_vectors),
        a2=_branch_weight(spec, j, result.ket_vectors),
    )


def brute_force_eta(
    x: np.ndarray,
    dims: tuple[int, ...] | list[int],
    samples: int = 64,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Plain multi-start estimate of the product overlap, for cross-checking.

    Every factor is updated one at a time (no Schmidt shortcut for two
    parties) and every start runs a fixed number of sweeps with no
    convergence test. Only small operators are accepted.
    """
    dims = tuple(int(v) for v in dims)
    total = int(np.prod(dims, dtype=np.int64))
    if total > BRUTE_FORCE_DIM_CAP:
        raise ValueError(
            f"brute-force path is limited to dimension {BRUTE_FORCE_DIM_CAP}, got {total}"
        )
    if x.shape != (total, total):
        raise ValueError(f"operator shape {x.shape} does not match dims {dims}")
    best = 0.0
    for child in _seed_sequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        bras = _random_product(dims, rng)
        kets = _random_product(dims, rng)
        for _ in range(BRUTE_FORCE_SWEEPS):
            v = (x @ kron_all(kets)).reshape(dims)
            for k in range(len(dims)):
                t = _contract_except(v, [b.conj() for b in bras], k)
                nrm = np.linalg.norm(t)
                if nrm > 0.0:
                    bras[k] = t / nrm
            w = (x.conj().T @ kron_all(bras)).reshape(dims)
            for k in range(len(dims)):
                t = _contract_except(w.conj(), kets, k)
                nrm = np.linalg.norm(t)
                if nrm > 0.0:
                    kets[k] = t.conj() / nrm
        best = max(best, abs(complex(kron_all(bras).conj() @ x @ kron_all(kets))))
    return best
