"""The batched alternating-ascent engine behind `overlap`.

Every start of every operator advances at once: the factors of all starts
are (starts, dim) arrays, and the starts of one operator are contiguous
rows. The products with the operators are batched matmuls, one per run
of consecutive operators with equal numbers of starts (`block_grid`,
`block_product`), on views: no row or operator is padded or copied. Each
start mixes its sweeps (guarded Anderson mixing, see `ascend`) with
arithmetic of its own.

A sweep (`sweep`) fits each factor in turn to the contraction of the
operator with all the others, the higher-order power method. That map is
scale-invariant: an update needs only the direction of the factors it
contracts with. So each factor is written as its raw contraction, and the
factors are normalized a group at a time: one sum of squares per factor,
one `sqrt` and one divide per group. Raw norms compound within a group:
its k-th factor scales like eta^(2^(k-1)), for an overlap eta. Groups of
at most MAX_GROUP = 4 consecutive factors keep that within eta^8, which is
finite and far from underflow for eta down to `overlap.ETA_FLOOR`. The 2N
factors of a sweep (bras, then kets) form one group for N <= 2; for N = 3
and N = 4 each half-sweep is one, for N = 5 and up there are more, of
near-equal sizes. A whole sweep as one group would reach eta^(2^(2N-1)),
eta^32 for N = 3 and eta^128 for N = 4.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_GROUP = 4  # factors normalized together in a sweep; raw norms reach eta^(2^(MAX_GROUP-1))


def row_kron(factors: list[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product: row b is f_1[b] (x) ... (x) f_N[b]."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, :, None] * f[:, None, :]).reshape(out.shape[0], -1)
    return out


def block_grid(block: np.ndarray, ops: np.ndarray) -> list[tuple[slice, slice, int]]:
    """How `block_product` multiplies rows by the operators `ops`: row r
    belongs to block block[r] (non-decreasing), that is, to ops[block[r]].

    The blocks are cut into runs of consecutive blocks that hold the same
    number of rows, c; the rows of a run are consecutive too. A run is
    given as the slices of its rows and of its blocks, and c.
    """
    counts = np.bincount(block, minlength=len(ops))
    lo = np.flatnonzero(np.diff(counts, prepend=-1))  # where a run of equal counts begins
    hi = np.append(lo[1:], counts.size)
    first = np.cumsum(counts) - counts
    runs = zip(lo.tolist(), hi.tolist(), counts[lo].tolist(), first[lo].tolist())
    return [(slice(r, r + c * (b - a)), slice(a, b), c) for a, b, c, r in runs if c]


def block_product(
    rows: np.ndarray, ops: np.ndarray, grid: list[tuple[slice, slice, int]]
) -> np.ndarray:
    """Row r of the result is rows[r] @ ops[k], for the block k holding row r.

    Each run of the grid (`block_grid`) is one batched matmul of its
    (blocks, c, dim) rows by its blocks' operators, on views of both and
    written in place: no row or operator is copied. NumPy multiplies each
    block of a batch by the same BLAS call, with the same shapes, as the c
    rows of that block alone by its operator, so each row gets the same
    bits as when its operator's starts run alone, if the BLAS gives equal
    bits for equal calls.
    """
    out = np.empty_like(rows)
    for part, blocks, c in grid:
        batch = rows[part].reshape(-1, c, rows.shape[1])
        np.matmul(batch, ops[blocks], out=out[part].reshape(batch.shape))
    return out


@functools.cache
def _plan(dims: tuple[int, ...]) -> tuple:
    """The fixed layout of a sweep over factors of `dims`.

    Returns the column cuts of a start's point (bras, then kets), the
    `einsum` chain of each factor (see `_contract`), and per normalization
    group its factors, its float columns, the offsets of its factors among
    them (`reduceat`) and the factor of each of them.
    """
    n = len(dims)
    cuts = np.cumsum((0,) + dims + dims)
    chains = []
    for k in range(n):
        axes, chain = list(range(n + 1)), []
        for m in reversed(range(n)):
            if m != k:
                kept = [a for a in axes if a != m + 1]
                chain.append((m, axes, [0, m + 1], kept))
                axes = kept
        chains.append(chain)
    if 2 * n <= MAX_GROUP:
        parts = [np.arange(2 * n)]
    else:  # no group holds bras and kets: x^dagger f comes from normalized bras
        parts = np.array_split(np.arange(n), -(-n // MAX_GROUP))
        parts += [p + n for p in parts]
    groups = []
    for factors in parts:
        lo, hi = 2 * cuts[factors[0]], 2 * cuts[factors[-1] + 1]
        widths = 2 * (cuts[factors + 1] - cuts[factors])
        groups.append((
            factors.tolist(), slice(lo, hi), np.cumsum(widths) - widths,
            np.repeat(np.arange(factors.size), widths),
        ))
    return tuple(cuts.tolist()), chains, groups


def _columns(a: np.ndarray, cuts: tuple[int, ...]) -> list[np.ndarray]:
    """The factor views of a (starts, sum of dims) array: columns cuts[k]:cuts[k+1]."""
    return [a[:, lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def _contract(t: np.ndarray, chain: list, conjs: list[np.ndarray], out: np.ndarray) -> None:
    """Write into `out` the contraction of the (rows, *dims) array t with the
    conjugate factors `conjs` of every axis but one, row by row.

    Each `einsum` of the chain contracts one axis, the last first, so every
    entry sums its terms in index order however many rows there are. One
    `einsum` over several axes can sum in another order when its output has
    a single entry (one row, a factor of dim 1), and a start would then not
    follow the path it follows in a larger batch.
    """
    if not chain:  # one factor: nothing to contract
        np.copyto(out, t)
        return
    for m, axes, conj_axes, kept in chain[:-1]:
        t = np.einsum(t, axes, conjs[m], conj_axes, kept)
    m, axes, conj_axes, kept = chain[-1]
    np.einsum(t, axes, conjs[m], conj_axes, kept, out=out)


def sweep(
    xs: np.ndarray, grid: list, dims: tuple[int, ...], z: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """One sweep of every row, in place: row b of z is a point, its bra
    factors then its ket factors side by side. `scratch`, of z's shape and
    type, holds the conjugates of z and then the squares of its raw factors.

    Each bra factor in turn becomes the contraction of x g (g the kets) with
    the conjugates of the other bras, then each ket factor that of the
    conjugate of x^dagger f (f the new bras) with the conjugates of the
    other kets. The factors are normalized a group at a time (see the module
    docstring). The overlap with the new factors is real and nonnegative;
    its size, the last raw norm over the other raw norms of its group, is
    returned per row.

    A contraction vanishes only at a point of overlap 0, and then so do all
    that follow it: those rows are left at 0, with a size of 0.
    """
    n = len(dims)
    cuts, chains, groups = _plan(dims)
    z_conj = np.conjugate(z, out=scratch)  # kept whole: one call conjugates every factor
    f, f_conj = _columns(z, cuts), _columns(z_conj, cuts)
    zf, sf, lost = z.view(float), scratch.view(float), None
    for factors, cols, offsets, owner in groups:
        for k in factors:
            if k == 0:  # row b is (x g_b)^T
                t = block_product(row_kron(f[n:]), xs.transpose(0, 2, 1), grid)
                t = t.reshape((t.shape[0],) + dims)
            elif k == n:  # row b is (x^dagger f_b)^T
                del t  # one row per start, like this one: free it before the product
                t = block_product(row_kron(f_conj[:n]), xs, grid)
                t = np.conjugate(t, out=t).reshape((t.shape[0],) + dims)
            _contract(t, chains[k % n], f_conj[n:] if k >= n else f_conj[:n], f[k])
            if k != factors[-1]:
                np.conjugate(z, out=z_conj)
        raw, part = zf[:, cols], sf[:, cols]  # the group's conjugates are no longer needed
        norms = np.sqrt(np.add.reduceat(np.square(raw, out=part), offsets, axis=1))
        if not norms[:, -1].all():  # a contraction vanished: keep the zeros
            lost = norms[:, -1] == 0.0
            norms[lost] = 1.0
        raw /= np.take(norms, owner, axis=1, out=part, mode="clip")
        if factors[-1] != 2 * n - 1:  # the next group contracts with these
            np.conjugate(z, out=z_conj)
    size = norms[:, -1] / np.multiply.reduce(norms[:, :-1], axis=1)
    if lost is not None:
        size[lost] = 0.0
    return size


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
    are contiguous. A sweep F (`sweep`) fits all bra factors, then all ket
    factors; a start's factors, side by side, form its point x. Per start:

    * the sweep y = F(x) is accepted when |overlap(y)| is at least `best`,
      the start's best accepted value (at first, that of the start itself);
    * an accepted start moves on to y - gamma (dx + dr), the depth-one
      Anderson step (Walker & Ni 2011): dx is the last step of x, dr the
      change of the residual r = y - x since the last sweep, and gamma =
      Re<dr, r> / |dr|^2. gamma is 0 on the first sweep after a start or a
      rejection, and unless Re<dx, dr> < 0: only a fixed point that
      attracts plain ascent is sought, not a saddle point of it;
    * a rejected start goes back to its best accepted factors with no
      history, and a plain sweep from there cannot lower its overlap;
    * a sweep whose contractions vanish (x has overlap 0) leaves the start
      at x, with |overlap(y)| = 0.

    A start stops once a sweep's |overlap| is within `conv_tol` of `best`
    (converged) or after `max_iters` sweeps, and reports its best accepted
    factors. Every start's arithmetic is its own, row by row, so it
    follows the path it would follow alone.

    The starts sweep in compact arrays (points and mixing history). A
    start that stops is frozen: its `best` becomes inf, so no later sweep
    of it is accepted or passes the test, and each sweeps again from its
    best accepted point. An operator's rows leave the batch together, once
    all its starts have stopped, and only then are the results of its
    starts written out and the grid of the products (`block_grid`) rebuilt.
    So every operator in the batch has all its starts, its rows are a run
    that the products take as a view (`block_product`), and its starts
    sweep alike whichever operators share the batch.

    Updates the factors in place and returns them with the complex overlap,
    sweep count and convergence flag of every start.
    """
    cuts = _plan(dims)[0]
    grid = block_grid(who, xs)
    w = block_product(row_kron([a.conj() for a in bras]), xs, grid)
    value = np.einsum("bc,bc->b", w, row_kron(kets))
    del w
    sweeps = np.full(value.size, max_iters)  # until a start converges
    converged = np.zeros(value.size, dtype=bool)
    live, owner = np.arange(who.size), who
    left = np.bincount(who, minlength=len(xs))  # starts not stopped, per operator
    factors = bras + kets
    # Per start in the batch: the point z that the sweep fits in place; the
    # point x it swept from; the best accepted point; and
    # `hist`, whose slabs hold dr, dx and r while the sweep is mixed, and r
    # and x of the sweep before in the first two between sweeps (no
    # history: x_prev = x).
    x = np.concatenate(factors, axis=1)
    z, best_y, hist = x.copy(), x.copy(), np.stack([x, x, x])
    best_value, best = value.copy(), np.abs(value)
    dr, dx, r = hist
    for it in range(1, max_iters + 1):
        size = sweep(xs, grid, dims, z, r)  # |overlap(y)|; r is its scratch
        if not size.all():  # a contraction vanished: y = x
            np.copyto(z, x, where=(size == 0.0)[:, None])
        done = np.abs(size - best) <= conv_tol
        up = size >= best  # accepted; false for NaN
        np.subtract(z, x, out=r)
        np.subtract(r, dr, out=dr)  # dr held r of the sweep before
        np.subtract(x, dx, out=dx)  # dx held x of the sweep before
        den, secant, num = np.einsum("kbl,bl->kb", hist.view(float), dr.view(float))
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
        rejected = np.count_nonzero(up) < up.size
        if rejected:  # back to the best accepted point, with no history
            back = ~up[:, None]
            np.copyto(z, best_y, where=back)
            np.copyto(dx, z, where=back)
        np.copyto(x, z)
        if not np.count_nonzero(done) and it < max_iters:
            continue
        converged[live[done]] = True
        sweeps[live[done]] = it
        best[done] = np.inf  # frozen
        left -= np.bincount(owner[done], minlength=left.size)
        keep = left[owner] > 0 if it < max_iters else np.zeros(live.size, dtype=bool)
        if keep.all():
            continue
        gone = ~keep
        value[live[gone]] = best_value[gone]
        for out, a in zip(factors, _columns(best_y[gone], cuts)):
            out[live[gone]] = a
        if not keep.any():
            break
        z = z[keep]  # one array at a time, which bounds the peak memory
        x = x[keep]
        best_y = best_y[keep]
        hist = hist[:, keep]
        best_value, best = best_value[keep], best[keep]
        live, owner = live[keep], owner[keep]
        dr, dx, r = hist
        grid = block_grid(owner, xs)
    return bras, kets, value, sweeps, converged
