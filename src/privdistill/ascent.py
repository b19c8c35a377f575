"""The batched alternating-ascent engine behind `overlap`.

Every start of every operator advances at once: the factors of all starts
are (starts, dim) arrays, and the starts of one operator are contiguous
rows. The products with the operators are batched matmuls per number of
live starts that operators have (`block_grid`, `block_product`); no row is
padded and no operator is copied per row.
"""

from __future__ import annotations

import numpy as np

GATHER_BYTES = 1 << 22  # operators copied for one batched matmul; bounds peak memory


def row_kron(factors: list[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product: row b is f_1[b] (x) ... (x) f_N[b]."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, :, None] * f[:, None, :]).reshape(out.shape[0], -1)
    return out


def fit(
    t: np.ndarray, dims: tuple[int, ...], factors: list[np.ndarray], conjs: list[np.ndarray]
) -> None:
    """Product factors that raise |<f_1 (x) ... (x) f_N | t_b>| for every row b.

    Each factor in turn becomes the normalized contraction of t with the
    conjugates of all the others, in place in `factors` and `conjs`; the
    overlap with the new factors is real and nonnegative. The norm is the
    one `np.linalg.norm(axis=1)` computes, without its wrapper.
    """
    n = len(dims)
    t = t.reshape((t.shape[0],) + dims)
    for k in range(n):
        operands: list = [t, list(range(n + 1))]
        for m in range(n):
            if m != k:
                operands += [conjs[m], [0, m + 1]]
        c = np.einsum(*operands, [0, k + 1])
        nrm = np.sqrt(np.add.reduce((c.conj() * c).real, axis=1, keepdims=True))
        np.divide(c, nrm, out=factors[k], where=nrm > 0.0)
        np.conjugate(factors[k], out=conjs[k])


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

    Each group of blocks with c rows each is multiplied as (blocks, c, dim)
    rows by its blocks' operators, copying at most GATHER_BYTES of them per
    batched matmul. NumPy multiplies each block of a batch by the same BLAS
    call, with the same shapes, as the c rows of that block alone by its
    operator, so each row gets the same bits as when its operator's starts
    run alone, if the BLAS gives equal bits for equal calls.
    """
    out = np.empty_like(rows)
    step = max(1, GATHER_BYTES // ops[0].nbytes)  # operators per matmul
    for sel, blocks in grid:
        c = sel.size // blocks.size
        for lo in range(0, blocks.size, step):
            part = sel[lo * c : (lo + step) * c]
            batch = rows[part].reshape(-1, c, rows.shape[1]) @ ops[blocks[lo : lo + step]]
            out[part] = batch.reshape(part.size, -1)
    return out


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
    (converged) or after `max_iters` sweeps.

    The live starts sweep in compact arrays (factors, their conjugates, ket
    products), written back and compacted only when some start stops or at
    the last sweep. The products group the operators by their number of
    live starts (`block_grid`), so a finished operator costs nothing.

    Updates the factors in place and returns them with the complex overlap,
    sweep count and convergence flag of every start.
    """
    grid = block_grid(who, np.bincount(who, minlength=len(xs)))
    g_rows = row_kron(kets)
    value = np.einsum("bc,bc->b", block_product(row_kron(bras).conj(), xs, grid), g_rows)
    sweeps = np.full(value.size, max_iters)  # until a start converges
    converged = np.zeros(value.size, dtype=bool)
    live = np.arange(who.size)
    f, g = list(bras), list(kets)  # the live rows; at first, all of them
    f_conj, g_conj = [b.conj() for b in f], [k.conj() for k in g]
    old = value
    for sweep in range(1, max_iters + 1):
        fit(block_product(g_rows, xs.transpose(0, 2, 1), grid), dims, f, f_conj)
        w_conj = block_product(row_kron(f).conj(), xs, grid)  # row b is (x^dagger f_b)^*
        fit(w_conj.conj(), dims, g, g_conj)
        g_rows = row_kron(g)
        new = np.einsum("bc,bc->b", w_conj, g_rows)
        del w_conj  # one row per live start; free it before the next products
        done = np.abs(np.abs(new) - np.abs(old)) <= conv_tol
        old = new
        if not done.any() and sweep < max_iters:
            continue
        value[live] = new
        for k in range(len(dims)):
            bras[k][live], kets[k][live] = f[k], g[k]
        converged[live[done]] = True
        sweeps[live[done]] = sweep
        keep = ~done
        live = live[keep]
        if not live.size or sweep == max_iters:
            break
        f, g = [a[keep] for a in f], [a[keep] for a in g]
        f_conj, g_conj = [a[keep] for a in f_conj], [a[keep] for a in g_conj]
        g_rows, old = g_rows[keep], old[keep]
        grid = block_grid(who[live], np.bincount(who[live], minlength=len(xs)))
    return bras, kets, value, sweeps, converged
