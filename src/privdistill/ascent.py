"""The batched alternating-ascent engine behind `overlap`.

Every start of every operator advances at once: the factors of all starts
are (starts, dim) arrays, and the starts of one operator are contiguous
rows. The products with the operators are batched matmuls per number of
live starts that operators have (`block_grid`, `block_product`); no row is
padded and no operator is copied per row. Each start mixes its sweeps
(guarded Anderson mixing, see `ascend`) with arithmetic of its own.
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
) -> np.ndarray:
    """Product factors that raise |<f_1 (x) ... (x) f_N | t_b>| for every row b.

    Each factor in turn becomes the normalized contraction of t with the
    conjugates of all the others, in place in `factors` and `conjs`. The
    overlap with the new factors is real and nonnegative: it is the norm
    of the last contraction, which is returned per row.

    Each `einsum` contracts one axis, the last first, so every entry sums
    its terms in index order however many rows there are. One `einsum`
    over several axes can sum in another order when its output has a
    single entry (one row, a factor of dim 1), and a start would then not
    follow the path it follows in a larger batch.
    """
    n = len(dims)
    t = t.reshape((t.shape[0],) + dims)
    for k in range(n):
        c, axes = t, list(range(n + 1))
        for m in reversed(range(n)):
            if m != k:
                kept = [a for a in axes if a != m + 1]
                c, axes = np.einsum(c, axes, conjs[m], [0, m + 1], kept), kept
        parts = c.view(float)  # real and imaginary parts, side by side
        nrm = np.sqrt(np.einsum("bi,bi->b", parts, parts))[:, None]
        np.divide(c, nrm, out=factors[k], where=nrm > 0.0)
        np.conjugate(factors[k], out=conjs[k])
    return nrm[:, 0]


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


def _columns(a: np.ndarray, cuts: np.ndarray) -> list[np.ndarray]:
    """The factor views of a (starts, sum of dims) array: columns cuts[k]:cuts[k+1]."""
    return [a[:, lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def ascend(
    xs: np.ndarray,
    who: np.ndarray,
    dims: tuple[int, ...],
    bras: list[np.ndarray],
    kets: list[np.ndarray],
    max_iters: int,
    conv_tol: float,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Alternating ascent of every start of every operator at once, with
    guarded Anderson mixing of the sweep map.

    Factors are (starts, dim) arrays; row b is a start for operator
    xs[who[b]], and `who` is non-decreasing, so the starts of one operator
    are contiguous. A sweep F fits all bra factors, then all ket factors;
    a start's factors, side by side, form its point x. Per start:

    * the sweep y = F(x) is accepted when |overlap(y)| is at least `best`,
      the start's best accepted value (at first, that of the start itself);
    * an accepted start moves on to y - gamma (dx + dr), the depth-one
      Anderson step (Walker & Ni 2011): dx is the last step of x, dr the
      change of the residual r = y - x since the last sweep, and gamma =
      Re<dr, r> / |dr|^2. gamma is 0 on the first sweep after a start or a
      rejection, and unless Re<dx, dr> < 0: only a fixed point that
      attracts plain ascent is sought, not a saddle point of it;
    * a rejected start goes back to its best accepted factors with no
      history, and a plain sweep from there cannot lower its overlap.

    A start stops once a sweep's |overlap| is within `conv_tol` of `best`
    (converged) or after `max_iters` sweeps, and reports its best accepted
    factors. Every start's arithmetic is its own, row by row, so it
    follows the path it would follow alone.

    The live starts sweep in compact arrays (points, their conjugates, the
    mixing history), written back and compacted only when some start stops
    or at the last sweep. The products group the operators by their number
    of live starts (`block_grid`), so a finished operator costs nothing.

    Updates the factors in place and returns them with the complex overlap,
    sweep count and convergence flag of every start.
    """
    n = len(dims)
    cuts = np.cumsum((0,) + dims + dims)
    grid = block_grid(who, np.bincount(who, minlength=len(xs)))
    w = block_product(row_kron([a.conj() for a in bras]), xs, grid)
    value = np.einsum("bc,bc->b", w, row_kron(kets))
    del w
    sweeps = np.full(value.size, max_iters)  # until a start converges
    converged = np.zeros(value.size, dtype=bool)
    live = np.arange(who.size)
    factors, xs_t = bras + kets, xs.transpose(0, 2, 1)
    # Per live start: the point z that the sweep fits in place, and its
    # conjugate; the point x it swept from; the best accepted point; and
    # `hist`, whose slots hold dr and dx during the sweep, and r and x of
    # the sweep before between sweeps (no history: x_prev = x).
    x = np.concatenate(factors, axis=1)
    z, z_conj, best_y, hist = x.copy(), x.conj(), x.copy(), np.stack([x, x], axis=1)
    best_value, best = value.copy(), np.abs(value)
    f, f_conj = _columns(z, cuts), _columns(z_conj, cuts)
    dr, dx = hist[:, 0], hist[:, 1]
    for sweep in range(1, max_iters + 1):
        t = block_product(row_kron(f[n:]), xs_t, grid)  # row b is (x g_b)^T
        fit(t, dims, f[:n], f_conj[:n])
        del t  # one row per live start, like w; free it before the next product
        w = block_product(row_kron(f_conj[:n]), xs, grid)  # row b is (x^dagger f_b)^*
        size = fit(np.conjugate(w, out=w), dims, f[n:], f_conj[n:])  # |overlap(y)|
        del w
        done = np.abs(size - best) <= conv_tol
        up = size >= best  # accepted; false for NaN
        r = z - x
        np.subtract(r, dr, out=dr)  # dr held r of the sweep before
        np.subtract(x, dx, out=dx)  # dx held x of the sweep before
        den, secant = np.einsum("bml,bl->mb", hist.view(float), dr.view(float))
        num = np.einsum("bl,bl->b", r.view(float), dr.view(float))
        step = (secant < 0.0) & (den > 0.0)  # never with no history, where dx = 0
        np.copyto(best_y, z, where=up[:, None])
        np.copyto(best_value, size, where=up)
        np.copyto(best, size, where=up)
        stepped = np.count_nonzero(step) > 0
        if stepped:  # z -= gamma (dx + dr), no change where gamma = 0
            gamma = np.divide(num, den, out=np.zeros_like(num), where=step)
            z -= np.multiply(np.add(dx, dr, out=dx), gamma[:, None], out=dx)
        np.copyto(dr, r)  # the history of the next sweep
        np.copyto(dx, x)
        del r
        rejected = np.count_nonzero(up) < up.size
        if rejected:  # back to the best accepted point, with no history
            back = ~up[:, None]
            np.copyto(z, best_y, where=back)
            np.copyto(dx, z, where=back)
        if stepped or rejected:  # elsewhere z_conj holds the conjugate of y
            np.conjugate(z, out=z_conj)
        np.copyto(x, z)
        if not np.count_nonzero(done) and sweep < max_iters:
            continue
        value[live] = best_value
        for out, a in zip(factors, _columns(best_y, cuts)):
            out[live] = a
        converged[live[done]] = True
        sweeps[live[done]] = sweep
        keep = ~done
        live = live[keep]
        if not live.size or sweep == max_iters:
            break
        z = z[keep]  # one array at a time, which bounds the peak memory
        z_conj = z_conj[keep]
        x = x[keep]
        best_y = best_y[keep]
        hist = hist[keep]
        best_value, best = best_value[keep], best[keep]
        f, f_conj = _columns(z, cuts), _columns(z_conj, cuts)
        dr, dx = hist[:, 0], hist[:, 1]
        grid = block_grid(who[live], np.bincount(who[live], minlength=len(xs)))
    return bras, kets, value, sweeps, converged
