"""Largest product overlap of a cross operator.

For key values i != j the cross operator X = U_i rho U_j^dagger is what a
product-state probe can see of the coherence between the two key branches.
The quantity of interest is

    eta = max |<f_1 (x) ... (x) f_N| X |g_1 (x) ... (x) g_N>|

over unit vectors f_k, g_k on the per-party shield factors. `eta_optimize`
runs multi-start alternating ascent with all starts advancing as one batch,
and `optimize_pairs` runs the starts of every key pair of a spec as one
batch in the same engine; `brute_force_eta` is a deliberately plain
one-start-at-a-time re-implementation used to cross-check them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ascent import ascend
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
    return _cross_operators(spec, [(i, j)])[0]


def _cross_operators(spec: PrivateStateSpec, pairs: list[tuple[int, int]]) -> np.ndarray:
    """The cross operator of every pair, stacked in pair order."""
    d = spec.d
    for i, j in pairs:
        if not (0 <= i < d and 0 <= j < d):
            raise ValueError(f"key values must lie in [0, {d}), got ({i}, {j})")
        if i == j:
            raise ValueError("cross operator needs two distinct key values")
    s = spec.shield_total_dim
    xs = np.empty((len(pairs), s, s), dtype=complex)
    left: dict[int, np.ndarray] = {}  # U_i rho, per key value
    for x, (i, j) in zip(xs, pairs):
        if i not in left:
            left[i] = spec.unitaries[i].matrix @ spec.shield.matrix
        np.matmul(left[i], spec.unitaries[j].matrix.conj().T, out=x)
        if np.abs(x).max() <= CROSS_NORM_FLOOR:
            raise ValueError(
                "cross operator is numerically zero; the shield state is corrupted"
            )
    return xs


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _random_starts(
    dims: tuple[int, ...], seeds: list[np.random.SeedSequence]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Random product starts, one per seed, as lists of (starts, dim) arrays
    (bras, kets).

    Each start is one `normal` draw from its own generator, split per
    factor, bras before kets, into the real and then the imaginary part.
    The draws of a generator concatenate, so the vectors are bit for bit
    those of one `normal` call per part; each is normalized by its own
    `norm` call, as one vector at a time.
    """
    size = 4 * sum(dims)
    z = np.array([np.random.default_rng(s).normal(size=size) for s in seeds])
    z = z.reshape(len(seeds), size)
    factors, at = [], 0
    for dim in dims + dims:
        v = z[:, at : at + dim] + 1j * z[:, at + dim : at + 2 * dim]
        norms = np.array([np.linalg.norm(row) for row in v])
        factors.append(v / norms.reshape(-1, 1))
        at += 2 * dim
    return factors[: len(dims)], factors[len(dims) :]


def _starts(
    x: np.ndarray, dims: tuple[int, ...], restarts: int,
    seed: int | np.random.SeedSequence,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Start factors for `x`, as lists of (starts, dim) arrays (bras, kets).

    First the basis products at the (up to DETERMINISTIC_STARTS) largest
    nonzero entries of `x`, so the result can never fall below the best
    single entry; then `restarts` random products, one per child of `seed`.
    """
    magnitudes = np.abs(x).ravel()
    top = np.argsort(magnitudes)[::-1][:DETERMINISTIC_STARTS]
    top = top[magnitudes[top] > 0.0]
    random = _random_starts(dims, _seed_sequence(seed).spawn(restarts))
    sides = []
    for flat, drawn in zip(np.divmod(top, x.shape[0]), random):
        basis = np.unravel_index(flat, dims)
        sides.append([
            np.concatenate([np.eye(dim, dtype=complex)[idx], factor])
            for idx, dim, factor in zip(basis, dims, drawn)
        ])
    return sides[0], sides[1]


def _check_settings(restarts: int, max_iters: int, conv_tol: float) -> None:
    """Refuse optimizer settings that describe no run."""
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not conv_tol >= 0.0:  # also refuses NaN
        raise ValueError(f"conv_tol must be a number >= 0, got {conv_tol}")


def _contract_except(tensor: np.ndarray, vectors: list[np.ndarray], skip: int) -> np.ndarray:
    """Contract every axis but `skip` against the matching vector."""
    t = tensor
    for axis in reversed(range(len(vectors))):
        if axis != skip:
            t = np.tensordot(t, vectors[axis], axes=([axis], [0]))
    return t


def _result(
    rows: slice, bras: list[np.ndarray], kets: list[np.ndarray],
    value: np.ndarray, sweeps: np.ndarray, converged: np.ndarray,
) -> OverlapResult:
    """The OverlapResult of the starts in `rows`, led by the best of them."""
    etas = np.abs(value[rows])
    best = rows.start + int(np.argmax(etas))
    eta = float(etas[best - rows.start])
    if eta < ETA_FLOOR:
        warnings.warn(
            f"product overlap {eta:.3e} is below {ETA_FLOOR:.0e}; "
            "its phase is numerically meaningless",
            stacklevel=3,
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
    _check_settings(restarts, max_iters, conv_tol)
    dims = tuple(int(v) for v in dims)
    total = int(np.prod(dims, dtype=np.int64))
    if x.shape != (total, total):
        raise ValueError(f"operator shape {x.shape} does not match dims {dims}")
    bras, kets = _starts(x, dims, restarts, seed)
    who = np.zeros(len(bras[0]), dtype=int)
    state = ascend(x[None], who, dims, bras, kets, max_iters, conv_tol)
    return _result(slice(0, who.size), *state)


def _branch_weight(op: np.ndarray, vectors: list[np.ndarray]) -> float:
    """<v|op|v> for the product vector v of `vectors`."""
    v = kron_all(vectors)
    return float(np.real(v.conj() @ op @ v))


def _optimize(
    spec: PrivateStateSpec,
    pairs: list[tuple[int, int]],
    seeds: list,
    restarts: int,
    max_iters: int,
    conv_tol: float,
) -> list[PairOverlap]:
    """One ascent over the starts of every pair; pair k draws from seeds[k]."""
    dims = tuple(spec.shield_dims)
    xs = _cross_operators(spec, pairs)
    starts = [_starts(x, dims, restarts, s) for x, s in zip(xs, seeds)]
    counts = [len(bras[0]) for bras, _ in starts]
    who = np.repeat(np.arange(len(pairs)), counts)
    bras = [np.concatenate([b[k] for b, _ in starts]) for k in range(len(dims))]
    kets = [np.concatenate([g[k] for _, g in starts]) for k in range(len(dims))]
    state = ascend(xs, who, dims, bras, kets, max_iters, conv_tol)

    branch = {  # U_k rho U_k^dagger, per key value
        k: spec.unitaries[k].matrix @ spec.shield.matrix @ spec.unitaries[k].matrix.conj().T
        for k in {k for pair in pairs for k in pair}
    }
    out, lo = [], 0
    for (i, j), count in zip(pairs, counts):
        result = _result(slice(lo, lo + count), *state)
        lo += count
        out.append(PairOverlap(
            **vars(result),
            a1=_branch_weight(branch[i], result.bra_vectors),
            a2=_branch_weight(branch[j], result.ket_vectors),
        ))
    return out


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
    _check_settings(restarts, max_iters, conv_tol)
    return _optimize(spec, [(i, j)], [seed], restarts, max_iters, conv_tol)[0]


def optimize_pairs(
    spec: PrivateStateSpec,
    pairs: list[tuple[int, int]],
    restarts: int = 32,
    max_iters: int = 200,
    conv_tol: float = CONV_TOL,
    seed: int | np.random.SeedSequence = 0,
) -> list[PairOverlap]:
    """`optimize_pair` for every key pair in `pairs`, in one batched ascent.

    Pair k gets the result of `optimize_pair(spec, i, j, seed=child)`,
    where child is the k-th child of SeedSequence(seed): bit for bit if the
    BLAS gives equal bits for equal calls (see `ascent.block_product`).
    """
    _check_settings(restarts, max_iters, conv_tol)
    if not pairs:
        return []
    children = _seed_sequence(seed).spawn(len(pairs))
    return _optimize(spec, pairs, children, restarts, max_iters, conv_tol)


def brute_force_eta(
    x: np.ndarray,
    dims: tuple[int, ...] | list[int],
    samples: int = 64,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Plain multi-start estimate of the product overlap, for cross-checking.

    Each start runs alone, its factors are updated one at a time by plain
    `tensordot` contractions, and it runs a fixed number of sweeps with no
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
    all_bras, all_kets = _random_starts(dims, _seed_sequence(seed).spawn(samples))
    for sample in range(samples):
        bras = [f[sample] for f in all_bras]
        kets = [f[sample] for f in all_kets]
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
