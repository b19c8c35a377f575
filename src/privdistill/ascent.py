"""The batched alternating-ascent engine behind `overlap`.

Every start of every operator advances at once. A start's point is one
row of a (starts, 2 sum(dims)) array: its bra factors, then its ket
factors, side by side (`_columns` cuts them), from its draw to its result.
Every operator has the same number of starts, c, in consecutive rows, in
the slot order of the operator stack. Each product with the operators is
one batched matmul of the (operators, c, dim) rows by the stack: no row or
operator is padded. NumPy multiplies each operator of a batch by the same
BLAS call, with the same shapes, as the c rows of that operator alone, so
each row gets the same bits as when its operator's starts run alone, in
any slot of the stack, if the BLAS gives equal bits for equal calls.
Operators that stop leave the stack by swap-remove, so it stays compact.
Each start mixes its sweeps (guarded Anderson mixing, see `ascend`) with
arithmetic of its own, and stops only when it converges or runs out of
sweeps.

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

`ascend` binds its batch's sweep once: the buffers of its products and
contractions, the factor views and each group's columns are set up when
the ascent starts. Each swap-remove leaves the state that stays in
prefixes of the ascent's arrays; the sweep is bound again to those, with
its buffers re-sliced to as many rows. A sweep then makes only its NumPy
calls, the same calls on the same shapes, in the same order, as a sweep
set up from scratch (`sweep`), so each row gets the same bits either way.
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


@functools.cache
def _plan(dims: tuple[int, ...]) -> tuple:
    """The fixed layout of a sweep over factors of `dims`.

    Returns the column cuts of a start's point (bras, then kets), the
    `einsum` chain of each factor (see `_BoundSweep`), and per normalization
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


def _columns(a: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """The factor views of points over factors of `dims`, packed along the
    last axis of `a`: the bras, then the kets, side by side."""
    cuts = _plan(dims)[0]
    return [a[..., lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


class _BoundSweep:
    """The sweep (`sweep`) of one batch, bound once.

    Its buffers are allocated once, full size: the product rows, the
    row-wise Kronecker products of the factors' prefixes that the product
    takes (as `row_kron` forms them), and each chain step's `einsum`
    intermediate. `bind` turns every call of a sweep into a step bound to
    its operands: views of these buffers, of z and of its scratch, cut to
    as many rows as z has. Each product is one matmul, bound to
    (operators, c, dim) views (see the module docstring). The ascent keeps
    its state in prefixes of its arrays as operators leave (a
    swap-remove), so it rebinds there to the prefixes and allocates no
    buffer; a sweep only runs its steps.

    Each factor is fitted to a chain of `einsum`s, each of which contracts
    one axis, the last first, so every entry sums its terms in index order
    however many rows there are. One `einsum` over several axes can sum in
    another order when its output has a single entry (one row, a factor of
    dim 1), and a start would then not follow the path it follows in a
    larger batch.
    """

    def __init__(self, xs: np.ndarray, dims: tuple[int, ...], z: np.ndarray, scratch: np.ndarray):
        self.dims = dims
        _, self.chains, self.plan_groups = _plan(dims)
        widths = np.cumprod(dims).tolist()
        self.krons = [np.empty((len(z), w), z.dtype) for w in widths[1:]]
        self.product = np.empty((len(z), widths[-1]), z.dtype)
        self.inter = [  # the output of every step of a chain but the last
            [np.empty((len(z),) + tuple(dims[a - 1] for a in kept[1:]), z.dtype)
             for *_, kept in chain[:-1]]
            for chain in self.chains
        ]
        self.bind(xs, z, scratch)

    def bind(self, xs: np.ndarray, z: np.ndarray, z_conj: np.ndarray) -> None:
        """Bind every step to the stack `xs`, the points z (c rows per
        operator) and their scratch, re-slicing the buffers to z's rows."""
        n, rows = len(self.dims), len(z)
        f, f_conj = _columns(z, self.dims), _columns(z_conj, self.dims)
        product = self.product[:rows]
        tensor = product.reshape((rows,) + self.dims)
        self.z, self.z_conj, self.steps = z, z_conj, []
        for k in range(2 * n):
            steps = []
            if k in (0, n):  # row b is (x g_b)^T, then (x^dagger f_b)^T
                factors, stack = (f[n:], xs.transpose(0, 2, 1)) if k == 0 else (f_conj[:n], xs)
                kron = factors[0]
                for g, buf in zip(factors[1:], self.krons):  # `row_kron` of the factors
                    out = buf[:rows]
                    steps.append(functools.partial(
                        np.multiply, kron[:, :, None], g[:, None, :],
                        out=out.reshape(rows, kron.shape[1], g.shape[1]),
                    ))
                    kron = out
                shape = (len(xs), rows // max(len(xs), 1))  # the product's batch, as views
                steps.append(functools.partial(
                    np.matmul, kron.reshape(shape + kron.shape[1:]), stack,
                    out=product.reshape(shape + product.shape[1:]),
                ))
                if k == n:
                    steps.append(functools.partial(np.conjugate, product, out=product))
            conjs = f_conj[n:] if k >= n else f_conj[:n]
            t, outs = tensor, [a[:rows] for a in self.inter[k % n]] + [f[k]]
            if n == 1:  # one factor: nothing to contract
                steps.append(functools.partial(np.copyto, f[k], t))
            for (m, axes, conj_axes, kept), out in zip(self.chains[k % n], outs):
                steps.append(functools.partial(np.einsum, t, axes, conjs[m], conj_axes, kept,
                                               out=out))
                t = out
            self.steps.append(steps)
        zf, sf = z.view(float), z_conj.view(float)
        self.groups = [
            (factors, zf[:, cols], sf[:, cols], offsets, owner)
            for factors, cols, offsets, owner in self.plan_groups
        ]

    def __call__(self) -> np.ndarray:
        """One sweep of the bound rows, in place (see `sweep`)."""
        z, z_conj, last = self.z, self.z_conj, 2 * len(self.dims) - 1
        np.conjugate(z, out=z_conj)  # kept whole: one call conjugates every factor
        lost = None
        for factors, raw, part, offsets, owner in self.groups:
            for k in factors:
                for step in self.steps[k]:
                    step()
                if k != factors[-1]:
                    np.conjugate(z, out=z_conj)
            # the squares overwrite the group's conjugates, no longer needed
            norms = np.sqrt(np.add.reduceat(np.square(raw, out=part), offsets, axis=1))
            if not norms[:, -1].all():  # a contraction vanished: keep the zeros
                lost = norms[:, -1] == 0.0
                norms[lost] = 1.0
            raw /= np.take(norms, owner, axis=1, out=part, mode="clip")
            if factors[-1] != last:  # the next group contracts with these
                np.conjugate(z, out=z_conj)
        size = norms[:, -1] / np.multiply.reduce(norms[:, :-1], axis=1)
        if lost is not None:
            size[lost] = 0.0
        return size


def sweep(xs: np.ndarray, dims: tuple[int, ...], z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
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
    return _BoundSweep(xs, dims, z, scratch)()


def ascend(
    xs: np.ndarray,
    c: int,
    dims: tuple[int, ...],
    points: np.ndarray,
    max_iters: int,
    conv_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating ascent of every start of every operator at once, with
    guarded Anderson mixing of the sweep map.

    Row b of `points` is the point x of a start: its bra factors, then its
    ket factors, side by side (`_columns`). Rows k c to (k + 1) c - 1 are
    the starts of operator xs[k]. A sweep F (`sweep`) fits all bra
    factors, then all ket factors. Per start:

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
    (converged), or after `max_iters` sweeps. Either way it reports its
    best accepted point, and its sweep count is that of the sweep where it
    stopped; only a converged start is flagged. No start is stopped on
    account of another: each runs until it converges or runs out of
    sweeps. Every start's arithmetic is its own, row by row, so it follows
    the path it would follow alone.

    The starts sweep in compact arrays (points and mixing history). A
    start that stops is frozen: its `best` becomes inf, so no later sweep
    of it is accepted or passes the test, and each sweeps again
    from its best accepted point. An operator's rows leave the batch
    together, once all its starts are frozen, and only then are their best
    points written back to their rows of `points`, in one assignment. Its
    slot in the stack is then filled by the last operator that stays, and
    the rows of the one by those of the other: a swap-remove, in place,
    with no array gathered whole. So every operator in the batch has all
    its c starts, every product is one matmul (see the module docstring),
    and an operator's starts sweep alike whichever operators share the
    batch, in whichever slot. The state that stays is a prefix of each
    array, so the sweep is bound once (`_BoundSweep`) and bound again to
    the prefixes at a swap-remove.

    `xs` is scratch: the swap-removes reorder its operators in place, so it
    holds them in no defined order afterwards. The ascent sweeps a copy of
    `points`, and each row of `points` ends as its start's best accepted
    point. Returns the complex overlap, sweep count and convergence flag of
    every start.
    """
    n, factors = len(dims), _columns(points, dims)
    rows = row_kron([a.conj() for a in factors[:n]])
    w = np.matmul(rows.reshape(len(xs), c, rows.shape[1]), xs).reshape(rows.shape)
    value = np.einsum("bc,bc->b", w, row_kron(factors[n:]))
    del rows, w
    sweeps = np.full(value.size, max_iters)  # until a start stops earlier
    converged = np.zeros(value.size, dtype=bool)
    live = np.arange(value.size)  # the rows in the batch, c per slot
    # Per start in the batch: the point z that the sweep fits in place; the
    # best accepted point; and `hist`, whose slabs hold dr, dx, r and the
    # point x it swept from while the sweep is mixed, and r and x of the
    # sweep before in the first two between sweeps (no history: x_prev = x).
    z, best_y, hist = points.copy(), points.copy(), np.stack([points] * 4)
    best_value, best = value.copy(), np.abs(value)
    dr, dx, r, x = hist
    bound = _BoundSweep(xs, dims, z, r)  # r is its scratch
    mix_f, dr_f = hist[:3].view(float), dr.view(float)
    for it in range(1, max_iters + 1):
        size = bound()  # |overlap(y)|
        if not size.all():  # a contraction vanished: y = x
            np.copyto(z, x, where=(size == 0.0)[:, None])
        done = np.abs(size - best) <= conv_tol
        up = size >= best  # accepted; false for NaN
        np.subtract(z, x, out=r)
        np.subtract(r, dr, out=dr)  # dr held r of the sweep before
        np.subtract(x, dx, out=dx)  # dx held x of the sweep before
        den, secant, num = np.einsum("kbl,bl->kb", mix_f, dr_f)
        step = (secant < 0.0) & (den > 0.0)  # never with no history, where dx = 0
        np.copyto(best_y, z, where=up[:, None])
        np.copyto(best_value, size, where=up)
        np.copyto(best, size, where=up)
        stepped = np.count_nonzero(step) > 0
        if stepped:  # z -= gamma (dx + dr), no change where gamma = 0
            gamma = np.divide(num, den, out=np.zeros_like(num), where=step)
            z -= np.multiply(np.add(dx, dr, out=dx), gamma[:, None], out=dx)
        np.copyto(hist[:2], hist[2:])  # dr <- r, dx <- x: the history of the next sweep
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
        stays = (best < np.inf).reshape(-1, c).any(axis=1) & (it < max_iters)
        if stays.all():
            continue
        gone = np.repeat(~stays, c)
        value[live[gone]] = best_value[gone]
        points[live[gone]] = best_y[gone]
        if not stays.any():
            break
        k = np.count_nonzero(stays)  # the last operators that stay fill the holes
        holes, movers = np.flatnonzero(~stays[:k]), k + np.flatnonzero(stays[k:])
        xs[holes] = xs[movers]
        holes, movers = (np.add.outer(c * a, np.arange(c)).ravel() for a in (holes, movers))
        for a in (z, best_y, best_value, best, live):
            a[holes] = a[movers]
        hist[:, holes] = hist[:, movers]
        xs, hist = xs[:k], hist[:, : k * c]
        z, best_y, best_value, best, live = (
            a[: k * c] for a in (z, best_y, best_value, best, live)
        )
        dr, dx, r, x = hist
        bound.bind(xs, z, r)
        mix_f, dr_f = hist[:3].view(float), dr.view(float)
    return value, sweeps, converged
