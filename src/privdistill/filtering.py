"""Local filtering of a private state onto a two-level key pair.

Given maximizing product vectors for the cross operator of key values
(i, j), each party applies a two-outcome filter that keeps only its key
values i and j and projects its shield onto the corresponding product
factor. Party 0 balances the two surviving branches, of weights a1 (key
i) and a2 (key j), with m = min(a1, a2):

    F_0 = sqrt(m/a1) |0><i| (x) <f_0|  +  sqrt(m/a2) |1><j| (x) <g_0|.

The weight below 1 falls on the heavier branch, so F_0 F_0^dagger <= I:
only a contraction is one outcome of a local operation (a weight above 1
would claim success (2/d) max(a1, a2), which no filter achieves). Every
other party applies P_k = |0><i| (x) <f_k| + |1><j| (x) <g_k|. The
surviving state lives on N two-level keys and is a mixture of the two
generalized Bell states (|0...0> +/- |1...1>)/sqrt(2). Since <f|X|g> is real
and >= 0, it is a function of the pair's Gram block alone (`_gram_outcomes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import factor_permutation, kron_all, layout
from .overlap import PairOverlap
from .private_states import PrivateState, PrivateStateSpec
from .states import DensityMatrix, bell_vector, check_states

SUCCESS_FLOOR = 1e-14


class FilterError(ValueError):
    """The filter bank annihilated the state (success probability ~ 0)."""


@dataclass(frozen=True)
class FilterSet:
    """One rectangular filter per party, mapping key_k (x) shield_k to C^2."""

    party_ops: tuple[np.ndarray, ...]
    variant: str  # label only: `PairOverlap.variant` of the pair's result
    i: int
    j: int


@dataclass(frozen=True)
class FilterOutcome:
    state: DensityMatrix  # on N two-level key factors
    success: float
    p: float  # weight of the + Bell state in the surviving mixture
    residual: float  # entrywise distance from the two-Bell-state form


def branch_weights(grams: np.ndarray) -> np.ndarray:
    """Party 0's real weights sqrt(m/a1), sqrt(m/a2) of the key-i and key-j
    branches of each block of the (pairs, 2, 2) Gram stack `grams`, as a
    (pairs, 2) array; a1, a2 are a block's diagonal and m = min(a1, a2)."""
    a = np.diagonal(grams, axis1=1, axis2=2).real
    if (a <= 0.0).any():
        a1, a2 = a[np.argmax((a <= 0.0).any(axis=1))]
        raise FilterError(f"branch weights a1={a1:.3e}, a2={a2:.3e} must be positive to filter")
    return np.sqrt(a.min(axis=1, keepdims=True) / a)


def build_filters(spec, i: int, j: int, result: PairOverlap) -> FilterSet:
    """Filter bank for key pair (i, j) from that pair's overlap result (a
    result of another pair is refused), with party 0's branch weights from
    `branch_weights` and the result's `variant` label."""
    if i == j:
        raise ValueError("a filter needs two distinct key values")
    if (i, j) != (result.i, result.j):
        raise ValueError(f"key pair {(i, j)} was given the result of pair {(result.i, result.j)}")
    if len(result.bra_vectors) != spec.parties:
        raise ValueError(
            f"overlap result has {len(result.bra_vectors)} product factors, "
            f"spec has {spec.parties} parties"
        )
    bra_weight, ket_weight = branch_weights(result.gram[None])[0]
    ops = []
    for k, (bra, ket) in enumerate(zip(result.bra_vectors, result.ket_vectors)):
        s = bra.shape[0]
        op = np.zeros((2, spec.d * s), dtype=complex)
        op[0, i * s : (i + 1) * s] = (bra_weight if k == 0 else 1.0) * bra.conj()
        op[1, j * s : (j + 1) * s] = (ket_weight if k == 0 else 1.0) * ket.conj()
        ops.append(op)
    return FilterSet(party_ops=tuple(ops), variant=result.variant, i=i, j=j)


def apply_filter(state: PrivateState, filters: FilterSet) -> FilterOutcome:
    """Apply one filter per party to the dense state; the reference for
    `filter_outcomes`.

    The product filter acts on the party-grouped order (K0 S0 K1 S1 ...).
    Its columns are moved to the state's canonical order instead of
    regrouping the state.
    """
    spec = state.spec
    n = spec.parties
    dims = [spec.d] * n + list(spec.shield_dims)
    interleave = [x for k in range(n) for x in (k, n + k)]
    grouped = kron_all(list(filters.party_ops))
    full = np.empty_like(grouped)
    full[:, factor_permutation(dims, interleave)] = grouped
    out = (full @ state.rho.matrix @ full.conj().T)[None]
    return _filter_outcome_list(*_outcomes(out, n), n)[0]


def filter_outcomes(spec: PrivateStateSpec, results: list[PairOverlap]) -> list[FilterOutcome]:
    """The outcome of `apply_filter` for the key pair of each overlap result,
    as one stack: the corner blocks of `_gram_outcomes` on the 2^N key space."""
    post, success, p, residual = _gram_outcomes(spec, results)
    n = spec.parties
    corners = np.array([0, 2**n - 1])
    full = np.zeros((len(post), 2**n, 2**n), dtype=complex)
    full[:, corners[:, None], corners] = post
    return _filter_outcome_list(full, success, p, residual, n)


def _gram_outcomes(spec: PrivateStateSpec, results: list[PairOverlap]) -> tuple[np.ndarray, ...]:
    """The filtered states of the key pairs of `results` on the corners
    |0..0>, |1..1>, with success, p and residual (`_outcomes`; empty arrays
    for no results), from the Gram blocks alone.

    The state is (1/d) sum_{a,b} |a..a><b..b| (x) U_a rho U_b^dagger, and
    the product filter maps |i..i> (x) phi to w_i <f|phi> |0..0> and
    |j..j> (x) phi to w_j <g|phi> |1..1>, for the product vectors f, g and
    party 0's real weights w (`branch_weights`); every other key string
    goes to zero. So the filtered state is (1/d) W G W on the corners, with
    W = diag(w_i, w_j) and the pair's Gram block G = Y rho Y^dagger
    (`PairOverlap.gram`, formed by `optimize_pairs`): no D x D matrix, no
    pull-back and O(1) per pair whatever N and s.
    """
    gram = np.array([r.gram for r in results]).reshape(-1, 2, 2)
    w = branch_weights(gram)
    return _outcomes(w[:, :, None] * gram * w[:, None, :] / spec.d, 1)


def _outcomes(out: np.ndarray, bits: int) -> tuple[np.ndarray, ...]:
    """The normalized states of the stack `out` of filtered states on `bits`
    key qubits, and their success, p and residual: the largest entrywise
    deviation of a state from p P_+ + (1-p) P_-, the Bell mixture it should
    equal exactly."""
    success = np.trace(out, axis1=1, axis2=2).real
    if success.min(initial=np.inf) <= SUCCESS_FLOOR:
        raise FilterError(f"filter success probability {success.min():.3e} is ~ 0")

    post = out / success[:, None, None]
    post = (post + post.conj().transpose(0, 2, 1)) / 2
    check_states(post)

    plus = bell_vector(+1, 0, 1, 2, bits)
    minus = bell_vector(-1, 0, 1, 2, bits)
    p = ((plus.conj() @ post)[:, None, :] @ plus[:, None]).real.ravel()
    bell_plus, bell_minus = np.outer(plus, plus.conj()), np.outer(minus, minus.conj())
    target = p[:, None, None] * bell_plus + (1 - p)[:, None, None] * bell_minus
    residual = np.abs(post - target).max(axis=(1, 2))
    return post, success, p, residual


def _filter_outcome_list(post, success, p, residual, n: int) -> list[FilterOutcome]:
    out_layout = layout([(f"K{k}", 2, k, "key") for k in range(n)])
    return [
        FilterOutcome(DensityMatrix(m, out_layout), w, q, r)
        for m, w, q, r in zip(post, success.tolist(), p.tolist(), residual.tolist())
    ]
