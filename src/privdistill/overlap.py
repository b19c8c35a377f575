"""Largest product overlap of a cross operator.

For key values i != j the cross operator X = U_i rho U_j^dagger is what a
product-state probe can see of the coherence between the two key branches.
The quantity of interest is

    eta = max |<f_1 (x) ... (x) f_N| X |g_1 (x) ... (x) g_N>|

over unit vectors f_k, g_k on the per-party shield factors. `eta_optimize`
runs multi-start alternating ascent, with guarded Anderson mixing of the
sweeps (`ascent.ascend`) and all starts advancing as one batch,
and `optimize_pairs` runs the starts of every key pair of a spec as one
batch in the same engine, each pair seeded by its key values;
`brute_force_eta` is a deliberately plain one-start-at-a-time
re-implementation used to cross-check them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ascent import ascend, row_kron
from .linalg import CONV_TOL, MAX_ITERS, RESTARTS, as_complex, kron_all
from .private_states import PrivateStateSpec

GATHER_BYTES = 1 << 22  # operators whose entries are sorted at once; bounds peak memory
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
    within the sweep limit, and `sweeps` is the number of sweeps it ran,
    accepted or not. `start_etas` holds the reported overlap of every
    start, its best accepted one, in start order.

    `theta` is the phase of the best start's overlap. It is 0.0 whenever
    that start had an accepted sweep, because `ascent.sweep` leaves the
    overlap real and nonnegative; it can be nonzero only with
    `max_iters=0` or when no sweep of that start was accepted.
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
    """The cross operator of every pair, stacked: one batched matmul per key value j."""
    keys = np.array(pairs, dtype=int).reshape(-1, 2)
    outside = ((keys < 0) | (keys >= spec.d)).any(axis=1)
    if outside.any():
        i, j = keys[np.argmax(outside)]
        raise ValueError(f"key values must lie in [0, {spec.d}), got ({i}, {j})")
    if (keys[:, 0] == keys[:, 1]).any():
        raise ValueError("cross operator needs two distinct key values")
    left = np.array([u.matrix for u in spec.unitaries]) @ spec.shield.matrix  # U_a rho
    xs = np.empty((len(keys),) + spec.shield.matrix.shape, dtype=complex)
    for j in np.flatnonzero(np.bincount(keys[:, 1])):
        rows = np.flatnonzero(keys[:, 1] == j)
        xs[rows] = left[keys[rows, 0]] @ spec.unitaries[j].matrix.conj().T
        if np.abs(xs[rows]).max(axis=(1, 2)).min() <= CROSS_NORM_FLOOR:
            raise ValueError("cross operator is numerically zero; the shield state is corrupted")
    return xs


def _stacked_starts(
    xs: np.ndarray, dims: tuple[int, ...], restarts: int, seeds: list
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Start factors of every operator of the stack `xs`, as lists of
    (starts, dim) arrays (bras, kets), and the number of starts of each.

    The starts of xs[k] are contiguous: the basis products at the (up to
    DETERMINISTIC_STARTS) largest nonzero entries of xs[k], so its result
    is never below its best entry, then `restarts` random products. These
    are the rows of one `normal` draw from a generator seeded by seeds[k],
    split per factor, bras before kets, into the real and then the
    imaginary part, each factor normalized per row. The entries are sorted
    in chunks of GATHER_BYTES of operators, which bounds the magnitudes
    and sort indices held at once; each row is sorted alone either way."""
    top = np.empty((len(xs), min(DETERMINISTIC_STARTS, xs[0].size)), dtype=np.intp)
    keep = np.empty(top.shape, dtype=bool)  # a prefix of each row
    step = max(1, GATHER_BYTES // xs[0].nbytes)
    for lo in range(0, len(xs), step):
        magnitudes = np.abs(xs[lo : lo + step]).reshape(-1, xs[0].size)
        order = np.argsort(magnitudes, axis=1)[:, ::-1][:, :DETERMINISTIC_STARTS]
        top[lo : lo + step] = order
        keep[lo : lo + step] = np.take_along_axis(magnitudes, order, axis=1) > 0.0
    counts = keep.sum(axis=1) + restarts
    first = np.cumsum(counts) - counts
    basis_rows = (first[:, None] + np.arange(top.shape[1]))[keep]
    random_rows = ((first + counts - restarts)[:, None] + np.arange(restarts)).ravel()
    z = np.concatenate([
        np.random.default_rng(s).normal(size=(restarts, 4 * sum(dims))) for s in seeds
    ])
    sides, at = [], 0
    for flat in np.divmod(top[keep], xs.shape[1]):
        side = [np.zeros((counts.sum(), dim), dtype=complex) for dim in dims]
        for f, idx, dim in zip(side, np.unravel_index(flat, dims), dims):
            v = z[:, at : at + dim] + 1j * z[:, at + dim : at + 2 * dim]
            f[basis_rows, idx] = 1.0
            f[random_rows] = v / np.linalg.norm(v, axis=1, keepdims=True)
            at += 2 * dim
        sides.append(side)
    return sides[0], sides[1], counts


def _check_settings(restarts: int, max_iters: int, conv_tol: float) -> None:
    """Refuse optimizer settings that describe no run."""
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not 0.0 <= conv_tol < np.inf:  # also refuses NaN
        raise ValueError(f"conv_tol must be a finite number >= 0, got {conv_tol}")


def _contract_except(tensor: np.ndarray, vectors: list[np.ndarray], skip: int) -> np.ndarray:
    """Contract every axis but `skip` against the matching vector, in one `einsum`."""
    operands: list = [tensor, list(range(len(vectors)))]
    for axis, v in enumerate(vectors):
        if axis != skip:
            operands += [v, [axis]]
    return np.einsum(*operands, [skip])


def _overlaps(
    xs: np.ndarray, dims: tuple[int, ...], restarts: int,
    seeds: list, max_iters: int, conv_tol: float,
) -> tuple[list[OverlapResult], list[np.ndarray], list[np.ndarray]]:
    """One ascent over the starts of every operator of `xs`, operator k
    drawing from seeds[k]: the result of each, and the factors of their
    best starts as (operators, dim) arrays (bras, kets).

    The ascent's raw norms are powers of the overlap (see `ascent`), so
    `xs` is first divided in place by the power of two that brings its
    largest real or imaginary part into [1, 2), which keeps them in range
    whatever the size of the operators. Where no number leaves the normal
    range, the ascent of xs / scale with tolerance conv_tol / scale makes
    the same steps as that of xs, and its overlaps times scale are those of
    xs, bit for bit; so no result depends on the operators that share the
    stack."""
    scale = np.ldexp(1.0, np.frexp(max(xs.view(float).max(), -xs.view(float).min()))[1] - 1)
    xs /= scale  # no copy: the stacks of a tensor power are tens of MB
    bras, kets, counts = _stacked_starts(xs, dims, restarts, seeds)
    who = np.repeat(np.arange(len(xs)), counts)
    bras, kets, value, sweeps, converged = ascend(
        xs, who, dims, bras, kets, max_iters, conv_tol / scale
    )
    value *= scale
    etas = np.abs(value)
    first = np.cumsum(counts) - counts
    best = np.lexsort((-etas, who))[first]  # np.argmax over each operator's starts
    if etas[best].min() < ETA_FLOOR:
        warnings.warn(
            f"product overlap {etas[best].min():.3e} is below {ETA_FLOOR:.0e}; "
            "its phase is numerically meaningless",
            stacklevel=3,
        )
    bras, kets = [f[best] for f in bras], [g[best] for g in kets]
    results = [
        OverlapResult(
            eta=float(etas[b]), theta=float(theta),
            bra_vectors=[f[k] for f in bras], ket_vectors=[g[k] for g in kets],
            converged=bool(converged[b]), sweeps=int(sweeps[b]), start_etas=e.tolist(),
        )
        for k, (b, theta, e) in enumerate(
            zip(best, np.angle(value[best]), np.split(etas, first[1:]))
        )
    ]
    return results, bras, kets


def eta_optimize(
    x: np.ndarray,
    dims: tuple[int, ...] | list[int],
    restarts: int = RESTARTS,
    max_iters: int = MAX_ITERS,
    conv_tol: float = CONV_TOL,
    seed: int | np.random.SeedSequence = 0,
) -> OverlapResult:
    """Maximize the product overlap of `x` over the factors in `dims`.

    Runs alternating ascent with mixed sweeps (`ascent.ascend`) from the
    largest-magnitude entries of `x` (so the result can never fall below
    the best single entry) and from `restarts` random product starts, all
    starts advancing together as one batch. The result describes the start
    with the largest overlap (see OverlapResult). A non-finite entry, and
    an operator with no nonzero entry and no restarts (no start at all),
    are refused.
    """
    _check_settings(restarts, max_iters, conv_tol)
    x = as_complex(x)
    dims = tuple(int(v) for v in dims)
    total = int(np.prod(dims, dtype=np.int64))
    if x.shape != (total, total):
        raise ValueError(f"operator shape {x.shape} does not match dims {dims}")
    if restarts == 0 and not x.any():
        raise ValueError("operator has no nonzero entry and restarts is 0: no start to run")
    return _overlaps(x[None].copy(), dims, restarts, [seed], max_iters, conv_tol)[0][0]


def optimize_pair(
    spec: PrivateStateSpec,
    i: int,
    j: int,
    restarts: int = RESTARTS,
    max_iters: int = MAX_ITERS,
    conv_tol: float = CONV_TOL,
    seed: int = 0,
) -> PairOverlap:
    """Cross operator, overlap maximization, and branch weights of one
    key pair: `optimize_pairs` of the one pair (i, j)."""
    return optimize_pairs(spec, [(i, j)], restarts, max_iters, conv_tol, seed)[0]


def optimize_pairs(
    spec: PrivateStateSpec,
    pairs: list[tuple[int, int]],
    restarts: int = RESTARTS,
    max_iters: int = MAX_ITERS,
    conv_tol: float = CONV_TOL,
    seed: int = 0,
) -> list[PairOverlap]:
    """Cross operator, overlap maximization, and branch weights of every
    key pair in `pairs`, in one batched ascent.

    Pair (i, j) draws its starts from SeedSequence(seed, spawn_key=(i, j)),
    so its result is a function of (spec, seed, i, j) and the settings
    alone, whichever list holds the pair: bit for bit if the BLAS gives
    equal bits for equal calls (see `ascent.block_product`). The branch
    weights <v|U_a rho U_a^dagger|v> (a1: key i, bras; a2: key j, kets)
    are one batched product per key value, with the bits that
    `v.conj() @ op @ v` gives each row alone.
    """
    _check_settings(restarts, max_iters, conv_tol)
    if not pairs:
        return []
    xs = _cross_operators(spec, pairs)
    seeds = [np.random.SeedSequence(seed, spawn_key=(i, j)) for i, j in pairs]
    results, bras, kets = _overlaps(
        xs, tuple(spec.shield_dims), restarts, seeds, max_iters, conv_tol
    )
    keys = np.array(pairs).T.ravel()  # every i, then every j
    vs = np.concatenate([row_kron(bras), row_kron(kets)])[:, None, :]
    weights = np.empty(keys.size)
    for a in np.flatnonzero(np.bincount(keys)):
        rows = keys == a
        u = spec.unitaries[a].matrix
        op = u @ spec.shield.matrix @ u.conj().T
        weights[rows] = ((vs[rows].conj() @ op) @ vs[rows].transpose(0, 2, 1)).real.ravel()
    a1, a2 = weights.reshape(2, -1)
    return [
        PairOverlap(**vars(r), a1=float(w1), a2=float(w2))
        for r, w1, w2 in zip(results, a1, a2)
    ]


def brute_force_eta(
    x: np.ndarray,
    dims: tuple[int, ...] | list[int],
    samples: int = 64,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Plain multi-start estimate of the product overlap, for cross-checking.

    Each start runs alone, its factors are updated one at a time by plain
    contractions (one `einsum` each), and it runs a fixed number of sweeps
    with no convergence test or mixing. The starts are drawn here, not by
    the engine's start code: one generator from `seed`, one `normal` call
    per part of each factor. Only small operators are accepted.
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
    rng = np.random.default_rng(seed)
    x_dagger = x.conj().T
    for _ in range(samples):
        bras, kets = [], []
        for vectors in (bras, kets):
            for dim in dims:
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                vectors.append(v / np.linalg.norm(v))
        for _ in range(BRUTE_FORCE_SWEEPS):
            v = (x @ kron_all(kets)).reshape(dims)
            for k in range(len(dims)):
                t = _contract_except(v, [b.conj() for b in bras], k)
                nrm = np.linalg.norm(t)
                if nrm > 0.0:
                    bras[k] = t / nrm
            w_conj = (x_dagger @ kron_all(bras)).reshape(dims).conj()
            for k in range(len(dims)):
                t = _contract_except(w_conj, kets, k)
                nrm = np.linalg.norm(t)
                if nrm > 0.0:
                    kets[k] = t.conj() / nrm
        best = max(best, abs(complex(kron_all(bras).conj() @ x @ kron_all(kets))))
    return best
