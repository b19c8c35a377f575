"""The batched alternating-ascent engine behind `overlap`.

Every start of every operator advances at once: the factors of all starts
are (starts, dim) arrays, and the starts of one operator are contiguous
rows. The products with the operators are batched matmuls, one per number
of live starts that operators have (`block_grid`, `block_product`), so no
operator is copied per row and no row is padded.
"""

from __future__ import annotations

import numpy as np


def row_kron(factors: list[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product: row b is f_1[b] (x) ... (x) f_N[b]."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, :, None] * f[:, None, :]).reshape(out.shape[0], -1)
    return out


def fit(
    t: np.ndarray, dims: tuple[int, ...], factors: list[np.ndarray], live: np.ndarray
) -> list[np.ndarray]:
    """Product factors that raise |<f_1 (x) ... (x) f_N | t_b>| for every row b.

    Starting from rows `live` of `factors`, each factor in turn becomes the
    normalized contraction of t with the conjugates of all the others, for
    any number of factors. The overlap with the returned factors is real and
    nonnegative.
    """
    n = len(dims)
    t = t.reshape((t.shape[0],) + dims)
    factors = [f[live] for f in factors]
    for k in range(n):
        operands: list = [t, list(range(n + 1))]
        for m in range(n):
            if m != k:
                operands += [factors[m].conj(), [0, m + 1]]
        c = np.einsum(*operands, [0, k + 1])
        nrm = np.linalg.norm(c, axis=1, keepdims=True)
        factors[k] = np.divide(c, nrm, out=factors[k].copy(), where=nrm > 0.0)
    return factors


def block_grid(block: np.ndarray, counts: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """How `block_product` groups the rows: row r belongs to block block[r]
    (non-decreasing), and counts[k] rows belong to block k.

    The blocks that hold the same number of rows form one group, given as
    its rows (in order) and its blocks.
    """
    per_row = counts[block]
    sizes = np.flatnonzero(np.bincount(per_row))  # np.unique's first sort costs 1.7 MB RSS
    return [(np.flatnonzero(per_row == c), np.flatnonzero(counts == c)) for c in sizes]


def block_product(
    rows: np.ndarray, ops: np.ndarray, grid: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Row r of the result is rows[r] @ ops[k], for the block k holding row r.

    With one operator this is one matmul. Otherwise each group of blocks
    with c rows each is one batched matmul of its (blocks, c, dim) rows by
    its blocks' operators. NumPy multiplies each block of such a batch by
    the same BLAS call, with the same shapes, as the c rows of that block
    alone by its operator, so each row gets the same bits as when its
    operator's starts run alone, if the BLAS gives equal bits for equal
    calls.
    """
    if len(ops) == 1:
        return rows @ ops[0]
    out = np.empty_like(rows)
    for sel, blocks in grid:
        part = rows[sel].reshape(blocks.size, -1, rows.shape[1]) @ ops[blocks]
        out[sel] = part.reshape(sel.size, -1)
    return out


def sweep_live(
    xs: np.ndarray,
    grid: list[tuple[np.ndarray, np.ndarray]],
    dims: tuple[int, ...],
    bras: list[np.ndarray],
    kets: list[np.ndarray],
    g_rows: np.ndarray,
    live: np.ndarray,
) -> np.ndarray:
    """One sweep of the starts in `live`: fit their bras, then their kets.

    Stores the new factors, and the rows of the ket products in `g_rows`,
    and returns the new complex overlaps. Its temporaries (several arrays
    of every live start) are freed when it returns, before the next sweep.
    """
    f = fit(block_product(g_rows[live], xs.transpose(0, 2, 1), grid), dims, bras, live)
    w_conj = block_product(row_kron(f).conj(), xs, grid)  # row b is (x^dagger f_b)^*
    g = fit(w_conj.conj(), dims, kets, live)
    g_live = row_kron(g)
    g_rows[live] = g_live
    for k in range(len(dims)):
        bras[k][live], kets[k][live] = f[k], g[k]
    return np.einsum("bc,bc->b", w_conj, g_live)


def ascend(
    xs: np.ndarray,
    who: np.ndarray,
    dims: tuple[int, ...],
    bras: list[np.ndarray],
    kets: list[np.ndarray],
    max_iters: int,
    conv_tol: float,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Alternating ascent of every start of every operator at once.

    Factors are (starts, dim) arrays; row b is a start for operator
    xs[who[b]], and `who` is non-decreasing, so the starts of one operator
    are contiguous. A sweep fits all bra factors, then all ket factors. A
    start stops once a sweep changes its |overlap| by at most `conv_tol`
    (converged) or after `max_iters` sweeps; the fits only see live starts.

    The products with the operators group the operators by their number of
    live starts (`block_grid`), so a finished operator costs nothing.

    Updates the factors in place and returns them with the complex overlap,
    sweep count and convergence flag of every start.
    """
    grid = block_grid(who, np.bincount(who, minlength=len(xs)))
    live = np.arange(who.size)
    g_rows = row_kron(kets)
    value = np.einsum("bc,bc->b", block_product(row_kron(bras).conj(), xs, grid), g_rows)
    sweeps = np.full(value.size, max_iters)  # until a start converges
    converged = np.zeros(value.size, dtype=bool)
    for sweep in range(1, max_iters + 1):
        new = sweep_live(xs, grid, dims, bras, kets, g_rows, live)
        done = np.abs(np.abs(new) - np.abs(value[live])) <= conv_tol
        value[live] = new
        if not done.any():
            continue
        converged[live[done]] = True
        sweeps[live[done]] = sweep
        live = live[~done]
        if not live.size:
            break
        if len(xs) > 1:
            grid = block_grid(who[live], np.bincount(who[live], minlength=len(xs)))
    return bras, kets, value, sweeps, converged
