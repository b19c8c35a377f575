"""Product-overlap maximization: oracles, invariants, and the dual route."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BITWISE_BLAS
from privdistill import ascent
from privdistill.ascent import ascend, block_grid, block_product, fit, row_kron
from privdistill.linalg import CONV_TOL, layout
from privdistill.overlap import (
    DETERMINISTIC_STARTS,
    _cross_operators,
    _stacked_starts,
    brute_force_eta,
    cross_operator,
    eta_optimize,
    optimize_pair,
    optimize_pairs,
)
from privdistill.private_states import PrivateStateSpec, depolarized_spec, random_spec
from privdistill.states import UnitaryOp, validate_state

SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)


def two_qubit_shield_spec(shield, u1):
    dm = validate_state(shield, layout([("S0", 2, 0, "shield"), ("S1", 2, 1, "shield")]))
    return PrivateStateSpec(
        d=2, parties=2, shield_dims=(2, 2),
        unitaries=(UnitaryOp(np.eye(4, dtype=complex)), UnitaryOp(u1)),
        shield=dm,
    )


def test_cross_operator_swap_shield():
    spec = two_qubit_shield_spec(np.eye(4) / 4, SWAP)
    x = cross_operator(spec, 0, 1)
    assert np.abs(x - SWAP / 4).max() < 1e-15


def test_cross_operator_argument_checks():
    spec = random_spec(2, 2, (2, 2), seed=0)
    with pytest.raises(ValueError):
        cross_operator(spec, 0, 0)
    with pytest.raises(ValueError):
        cross_operator(spec, 0, 2)
    with pytest.raises(ValueError):
        cross_operator(spec, -1, 1)


def test_eta_swap_shield_quarter():
    spec = two_qubit_shield_spec(np.eye(4) / 4, SWAP)
    res = optimize_pair(spec, 0, 1, seed=0)
    assert abs(res.eta - 0.25) < 1e-9
    assert abs(res.a1 - 0.25) < 1e-9
    assert abs(res.a2 - 0.25) < 1e-9
    assert res.converged


def test_eta_bell_shield_half():
    """Shield |Bell+><Bell+| with U_1 = sigma_z (x) I gives the cross
    operator |Bell+><Bell-|, whose best product overlap is 1/2."""
    spec = two_qubit_shield_spec(np.outer(BELL_PLUS, BELL_PLUS.conj()), np.kron(SZ, np.eye(2)))
    x = cross_operator(spec, 0, 1)
    assert np.abs(x - np.outer(BELL_PLUS, BELL_MINUS.conj())).max() < 1e-14
    res = optimize_pair(spec, 0, 1, seed=0)
    assert abs(res.eta - 0.5) < 1e-9
    assert abs(res.a1 - 0.5) < 1e-9
    assert abs(res.a2 - 0.5) < 1e-9


def test_eta_never_below_largest_entry():
    for seed in range(6):
        spec = random_spec(2, 2, (2, 3), seed=seed)
        x = cross_operator(spec, 0, 1)
        res = eta_optimize(x, spec.shield_dims, restarts=2, seed=seed)
        assert res.eta >= np.abs(x).max() - 1e-12


def test_cauchy_schwarz_bound():
    for seed in range(6):
        spec = random_spec(3, 2, (2, 2), seed=seed)
        res = optimize_pair(spec, 0, 2, restarts=8, seed=seed)
        assert res.eta <= np.sqrt(res.a1 * res.a2) + 1e-12


def test_overlap_value_matches_returned_vectors():
    spec = random_spec(2, 2, (3, 2), seed=11)
    x = cross_operator(spec, 0, 1)
    res = eta_optimize(x, spec.shield_dims, seed=1)
    f = np.kron(res.bra_vectors[0], res.bra_vectors[1])
    g = np.kron(res.ket_vectors[0], res.ket_vectors[1])
    val = np.vdot(f, x @ g)
    assert abs(abs(val) - res.eta) < 1e-12
    assert abs(np.angle(val) - res.theta) < 1e-9
    for v in res.bra_vectors + res.ket_vectors:
        assert abs(np.linalg.norm(v) - 1) < 1e-12


def test_single_factor_case_is_operator_norm():
    rng = np.random.default_rng(3)
    for seed in range(4):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        res = eta_optimize(m, (5,), restarts=4, seed=seed)
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(res.eta - top) < 1e-9


def test_three_factor_case_against_brute_force():
    for seed in range(3):
        spec = random_spec(2, 3, (2, 2, 2), seed=seed)
        x = cross_operator(spec, 0, 1)
        res = eta_optimize(x, spec.shield_dims, seed=seed)
        brute = brute_force_eta(x, spec.shield_dims, samples=48, seed=seed + 100)
        assert abs(res.eta - brute) < 1e-6


def test_two_routes_agree_on_bipartite_operators():
    for seed in range(5):
        spec = random_spec(2, 2, (3, 3), seed=seed)
        x = cross_operator(spec, 0, 1)
        res = eta_optimize(x, spec.shield_dims, seed=seed)
        brute = brute_force_eta(x, spec.shield_dims, samples=48, seed=seed + 7)
        assert abs(res.eta - brute) < 1e-6


def test_eta_optimize_determinism():
    spec = random_spec(2, 2, (2, 3), seed=21)
    x = cross_operator(spec, 0, 1)
    a = eta_optimize(x, spec.shield_dims, seed=5)
    b = eta_optimize(x, spec.shield_dims, seed=5)
    assert a.eta == b.eta
    assert a.theta == b.theta
    for va, vb in zip(a.bra_vectors + a.ket_vectors, b.bra_vectors + b.ket_vectors):
        assert np.array_equal(va, vb)


def test_eta_optimize_shape_mismatch():
    with pytest.raises(ValueError):
        eta_optimize(np.eye(4), (2, 3))


def test_tiny_overlap_warns():
    x = np.diag([1e-10, 0.0]).astype(complex)
    with pytest.warns(UserWarning):
        res = eta_optimize(x, (2,), restarts=2, seed=0)
    assert res.eta <= 1e-8


def test_a_values_against_direct_formula():
    """optimize_pair returns a frozen result whose branch weights a1, a2
    match <f|U_i rho U_i^dagger|f> and <g|U_j rho U_j^dagger|g>."""
    spec = random_spec(3, 2, (2, 2), seed=2)
    res = optimize_pair(spec, 1, 2, restarts=8, seed=3)
    rho = spec.shield.matrix
    f = np.kron(res.bra_vectors[0], res.bra_vectors[1])
    g = np.kron(res.ket_vectors[0], res.ket_vectors[1])
    u1, u2 = spec.unitaries[1].matrix, spec.unitaries[2].matrix
    assert abs(res.a1 - np.vdot(f, u1 @ rho @ u1.conj().T @ f).real) < 1e-13
    assert abs(res.a2 - np.vdot(g, u2 @ rho @ u2.conj().T @ g).real) < 1e-13
    assert 0.0 < res.a1 <= 1.0 + 1e-12
    assert 0.0 < res.a2 <= 1.0 + 1e-12
    assert type(res.a1) is float and type(res.a2) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.a1 = 0.5


def test_brute_force_dimension_cap():
    with pytest.raises(ValueError):
        brute_force_eta(np.eye(128), (128,))


def test_brute_force_shape_mismatch():
    with pytest.raises(ValueError):
        brute_force_eta(np.eye(4), (2, 3))


def test_sweeps_are_monotone():
    """Every start's overlap never decreases as it is allowed more sweeps."""
    for d, parties, dims in ((2, 2, (3, 3)), (2, 3, (2, 2, 3))):
        spec = random_spec(d, parties, dims, seed=13)
        x = cross_operator(spec, 0, 1)
        prev = None
        for max_iters in range(1, 21):
            now = eta_optimize(x, dims, restarts=8, max_iters=max_iters, seed=0).start_etas
            if prev is not None:
                assert all(b >= a - 1e-12 for a, b in zip(prev, now))
            prev = now


def test_converged_describes_the_returned_start():
    """A weaker start that converges does not make the pair converged."""
    spec = random_spec(2, 3, (2, 2, 2), seed=13)
    x = cross_operator(spec, 0, 1)
    short = eta_optimize(x, spec.shield_dims, restarts=4, max_iters=14, seed=3)
    full = eta_optimize(x, spec.shield_dims, restarts=4, max_iters=200, seed=3)
    # a start whose overlap is unchanged by 186 more allowed sweeps had stopped
    stopped = [a for a, b in zip(short.start_etas, full.start_etas) if a == b]
    assert min(stopped) < short.eta - 1e-2
    assert not short.converged
    assert short.sweeps == 14
    assert full.converged and full.sweeps > 14


def test_four_factor_case_against_brute_force():
    for seed in range(2):
        spec = random_spec(2, 4, (2, 2, 2, 2), seed=seed)
        x = cross_operator(spec, 0, 1)
        res = eta_optimize(x, spec.shield_dims, seed=seed)
        brute = brute_force_eta(x, spec.shield_dims, samples=48, seed=seed + 100)
        assert abs(res.eta - brute) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(2, 3), min_size=2, max_size=4).filter(
        lambda dims: np.prod(dims) <= 64
    ),
    rank_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_overlap_bounds_on_generated_specs(d, dims, rank_fraction, seed, data):
    """max |X_ij| <= eta <= sqrt(a1 a2) for every generated spec and pair."""
    i, j = data.draw(st.permutations(range(d)))[:2]
    rank = max(1, round(rank_fraction * np.prod(dims)))
    spec = random_spec(d, len(dims), dims, seed=seed, shield_rank=rank)
    res = optimize_pair(spec, i, j, seed=seed)
    assert np.abs(cross_operator(spec, i, j)).max() <= res.eta + 1e-12
    assert res.eta <= np.sqrt(res.a1 * res.a2) + 1e-12


def per_factor_draws(dims, restarts, seed):
    """The random starts of one operator, one start at a time: start r is
    the r-th draw of 4 sum(dims) normals from one generator seeded by
    `seed`, split per factor, bras before kets, into the real and then the
    imaginary part, and each factor is normalized as a row alone. The
    draws of a generator concatenate, so these are the rows of one
    (restarts, 4 sum(dims)) draw. Returns 2N (restarts, dim) arrays."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(restarts):
        z, at, factors = rng.normal(size=4 * sum(dims)), 0, []
        for dim in dims + dims:
            v = z[at : at + dim] + 1j * z[at + dim : at + 2 * dim]
            factors.append(v / np.linalg.norm(v[None], axis=1))
            at += 2 * dim
        starts.append(factors)
    return [
        np.array([start[k] for start in starts]).reshape(restarts, dim)
        for k, dim in enumerate(dims + dims)
    ]


@pytest.mark.parametrize("dims", [(1,), (2, 2), (3, 2, 4), (8, 8), (2, 3, 2, 3)])
def test_random_starts_are_the_per_factor_draws_bit_for_bit(dims):
    """Operators with no nonzero entry get only random starts: operator k's
    are, bit for bit, the draws of a generator seeded by seeds[k] alone,
    for integer seeds and SeedSequence children alike. Every random factor
    has unit norm to within 1e-15."""
    total = int(np.prod(dims))
    seeds = [7, *np.random.SeedSequence(7).spawn(2)]
    bras, kets, counts = _stacked_starts(
        np.zeros((len(seeds), total, total), dtype=complex), dims, 20, seeds
    )
    assert counts.tolist() == [20] * len(seeds)
    want = [per_factor_draws(dims, 20, s) for s in seeds]
    for k, got in enumerate(bras + kets):
        ref = np.concatenate([w[k] for w in want])
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.abs(np.linalg.norm(got, axis=1) - 1.0).max() <= 1e-15


def per_operator_starts(x, dims, restarts, seed):
    """The starts of one operator, built alone: its basis products, then
    its random starts (`per_factor_draws`); (bras, kets) as lists of
    (starts, dim) arrays."""
    magnitudes = np.abs(x).ravel()
    top = np.argsort(magnitudes)[::-1][:DETERMINISTIC_STARTS]
    top = top[magnitudes[top] > 0.0]
    drawn = per_factor_draws(dims, restarts, seed)
    sides = []
    for side, flat in enumerate(np.divmod(top, x.shape[0])):
        basis = np.unravel_index(flat, dims)
        sides.append([
            np.concatenate([np.eye(dim, dtype=complex)[basis[k]], drawn[side * len(dims) + k]])
            for k, dim in enumerate(dims)
        ])
    return sides


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(2, 3), min_size=2, max_size=3),
    r=st.integers(0, 7),
    more=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_fewer_restarts_are_the_first_starts_of_more(dims, r, more, seed):
    """With r < R restarts, the starts of an operator are, bit for bit, the
    first rows of its starts with R, and the best overlap of R starts is
    at least that of r starts, to 1e-13."""
    big = r + more
    x = cross_operator(random_spec(2, len(dims), dims, seed=seed), 0, 1)
    few_bras, few_kets, (n,) = _stacked_starts(x[None], tuple(dims), r, [seed])
    many_bras, many_kets, _ = _stacked_starts(x[None], tuple(dims), big, [seed])
    for few, many in zip(few_bras + few_kets, many_bras + many_kets):
        assert np.array_equal(few.view(np.int64), many[:n].view(np.int64))
    few_eta = eta_optimize(x, dims, restarts=r, seed=seed).eta
    assert eta_optimize(x, dims, restarts=big, seed=seed).eta >= few_eta - 1e-13


def _sparse(entries, size):
    x = np.zeros((size, size), dtype=complex)
    for (r, c), v in entries.items():
        x[r, c] = v
    return x


@pytest.mark.parametrize("restarts", [0, 3])
def test_stacked_starts_are_the_per_operator_starts_bit_for_bit(restarts):
    """One stack of starts for many operators holds, bit for bit, the
    starts each operator would get alone. The SWAP shield's operator has
    four tied entries; two operators have fewer than four nonzero entries,
    and so fewer deterministic starts."""
    swap = cross_operator(two_qubit_shield_spec(np.eye(4) / 4, SWAP), 0, 1)
    stacks = [
        ((2, 2), np.array([
            swap,
            _sparse({(0, 3): 0.5, (2, 1): -0.5j}, 4),
            _sparse({(1, 1): 1e-3}, 4),
            cross_operator(random_spec(2, 2, (2, 2), seed=4), 0, 1),
        ])),
        ((2, 4, 3), _cross_operators(
            random_spec(4, 3, (2, 4, 3), seed=8), [(0, 1), (0, 3), (2, 3), (1, 2)])),
    ]
    for (dims, xs), basis in zip(stacks, ([4, 2, 1, 4], [4] * 4)):
        seeds = list(range(10, 10 + len(xs)))
        bras, kets, counts = _stacked_starts(xs, dims, restarts, seeds)
        want = [per_operator_starts(x, dims, restarts, s) for x, s in zip(xs, seeds)]
        assert counts.tolist() == [len(w[0][0]) for w in want] == [b + restarts for b in basis]
        for side, got in enumerate((bras, kets)):
            for k in range(len(dims)):
                ref = np.concatenate([w[side][k] for w in want])
                assert np.array_equal(got[k].view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("gather_bytes", [1, 3 * 16**3])
def test_stacked_starts_sorted_in_chunks_are_the_per_operator_starts(gather_bytes):
    """With GATHER_BYTES cut to one operator, or to three of the ten, the
    entries are sorted a chunk of operators at a time, and every start is
    still bit for bit the one its operator gets alone."""
    spec = random_spec(5, 2, (4, 4), seed=6, shield_rank=2)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    xs = _cross_operators(spec, pairs)
    xs[3] = _sparse({(0, 5): 0.25, (7, 1): -1.0}, 16)  # two deterministic starts
    seeds = list(range(len(xs)))
    with mock.patch.object(ascent, "GATHER_BYTES", gather_bytes):
        bras, kets, counts = _stacked_starts(xs, (4, 4), 2, seeds)
    want = [per_operator_starts(x, (4, 4), 2, s) for x, s in zip(xs, seeds)]
    assert counts.tolist() == [len(w[0][0]) for w in want]
    assert counts[3] == 2 + 2
    for side, got in enumerate((bras, kets)):
        for k in range(2):
            ref = np.concatenate([w[side][k] for w in want])
            assert np.array_equal(got[k].view(np.int64), ref.view(np.int64))


def factor_columns(points, dims):
    """The factor views of (starts, 2 sum(dims)) points: bras, then kets."""
    cuts = np.cumsum((0,) + tuple(dims) + tuple(dims))
    return [points[:, lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def ascend_without_compaction(xs, who, dims, bras, kets, max_iters, conv_tol):
    """The ascent with its state kept full size: every sweep gathers the
    points of the live starts, sweeps them, takes the mixing step and
    scatters them back. Also returns the number of mixing steps and of
    rejected sweeps."""
    n = len(dims)
    grid = block_grid(who, np.bincount(who, minlength=len(xs)))
    g_rows = row_kron(kets)
    value = np.einsum("bc,bc->b", block_product(row_kron(bras).conj(), xs, grid), g_rows)
    sweeps = np.full(value.size, max_iters)
    converged = np.zeros(value.size, dtype=bool)
    x = np.concatenate(bras + kets, axis=1)
    x_prev, r_prev, best_y, best = x.copy(), x.copy(), x.copy(), np.abs(value)
    live = np.arange(who.size)
    steps = rejections = 0
    for sweep in range(1, max_iters + 1):
        z = x[live]
        z_conj = z.conj()
        f, f_conj = factor_columns(z, dims), factor_columns(z_conj, dims)
        fit(block_product(g_rows[live], xs.transpose(0, 2, 1), grid), dims, f[:n], f_conj[:n])
        w_conj = block_product(row_kron(f[:n]).conj(), xs, grid)
        size = fit(w_conj.conj(), dims, f[n:], f_conj[n:])
        r = z - x[live]
        dr, dx = r - r_prev[live], x[live] - x_prev[live]
        pair = np.stack([dr, dx], axis=1)
        den, secant = np.einsum("bml,bl->mb", pair.view(float), dr.view(float))
        num = np.einsum("bl,bl->b", r.view(float), dr.view(float))
        done = np.abs(size - best[live]) <= conv_tol
        up = size >= best[live]
        step = (secant < 0.0) & (den > 0.0)
        steps, rejections = steps + step.sum(), rejections + (~up).sum()
        best_y[live[up]], value[live[up]], best[live[up]] = z[up], size[up], size[up]
        if step.any():
            z -= np.divide(num, den, out=np.zeros_like(num), where=step)[:, None] * (dx + dr)
        z[~up] = best_y[live[~up]]
        x_prev[live], r_prev[live], x[live] = x[live], r, z
        x_prev[live[~up]] = z[~up]
        g_rows[live] = row_kron(factor_columns(z, dims)[n:])
        converged[live[done]] = True
        sweeps[live[done]] = sweep
        live = live[~done]
        if not live.size:
            break
        grid = block_grid(who[live], np.bincount(who[live], minlength=len(xs)))
    columns = factor_columns(best_y, dims)
    return columns[:n], columns[n:], value, sweeps, converged, steps, rejections


def plain_ascend(xs, who, dims, bras, kets, max_iters, conv_tol):
    """Alternating ascent with no mixing, as the engine ran before it mixed
    sweeps: every start sweeps from where its last sweep ended and stops
    once a sweep changes its |overlap| by at most `conv_tol`."""
    grid = block_grid(who, np.bincount(who, minlength=len(xs)))
    g_rows = row_kron(kets)
    value = np.einsum("bc,bc->b", block_product(row_kron(bras).conj(), xs, grid), g_rows)
    live = np.arange(who.size)
    for _ in range(max_iters):
        f = [b[live] for b in bras]
        t = block_product(g_rows[live], xs.transpose(0, 2, 1), grid)
        fit(t, dims, f, [a.conj() for a in f])
        w_conj = block_product(row_kron(f).conj(), xs, grid)
        g = [k[live] for k in kets]
        fit(w_conj.conj(), dims, g, [a.conj() for a in g])
        g_rows[live] = row_kron(g)
        for k in range(len(dims)):
            bras[k][live], kets[k][live] = f[k], g[k]
        new = np.einsum("bc,bc->b", w_conj, g_rows[live])
        done = np.abs(np.abs(new) - np.abs(value[live])) <= conv_tol
        value[live] = new
        live = live[~done]
        if not live.size:
            break
        grid = block_grid(who[live], np.bincount(who[live], minlength=len(xs)))
    return value


@pytest.mark.parametrize("max_iters", [0, 1, 2, 15, 200])
@pytest.mark.parametrize("d, dims", [(3, (2, 3)), (4, (2, 2, 2))])
def test_ascent_keeps_every_start_whenever_it_stops(d, dims, max_iters):
    """The compact ascent leaves every start's factors as they were when
    it stopped, converged or cut at `max_iters`: they reproduce its
    returned overlap, and its sweeps and flag are those of a run that
    keeps the state full size (bit for bit on a BLAS where that was
    checked). Some starts take mixing steps and some sweeps are rejected."""
    spec = random_spec(d, len(dims), dims, seed=17, shield_rank=3)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    xs = _cross_operators(spec, pairs)
    bras, kets, counts = _stacked_starts(xs, dims, 5, list(range(len(pairs))))
    who = np.repeat(np.arange(len(pairs)), counts)
    ref = ascend_without_compaction(
        xs, who, dims, [b.copy() for b in bras], [k.copy() for k in kets], max_iters, 1e-12
    )
    got = ascend(xs, who, dims, bras, kets, max_iters, 1e-12)
    f, g, value, sweeps, converged = got
    stored = np.einsum("ba,bac,bc->b", row_kron(f).conj(), xs[who], row_kron(g))
    assert np.abs(stored - value).max() <= 1e-13
    assert np.array_equal(sweeps, ref[3]) and np.array_equal(converged, ref[4])
    if max_iters == 15:  # some starts converged, the others were cut
        assert 0 < converged.sum() < converged.size
    if max_iters == 200:
        assert ref[5] > 0 and ref[6] > 0  # mixing steps, rejected sweeps
    for a, b in zip(f + g + [value], ref[0] + ref[1] + [ref[2]]):
        assert np.abs(a - b).max() <= 1e-13
        if BITWISE_BLAS:
            assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(2, 3), min_size=2, max_size=3),
    rank_fraction=st.floats(0.0, 1.0),
    restarts=st.integers(0, 6),
    max_iters=st.sampled_from([1, 4, 30, 200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimize_pairs_matches_per_pair_runs(d, dims, rank_fraction, restarts, max_iters, seed):
    """One ascent over all pairs gives each pair (i, j) what `eta_optimize`
    gives its cross operator alone from SeedSequence(seed, spawn_key=(i, j)):
    the same overlap and the same starts in the same order, to 1e-13. On a
    BLAS where that was checked (`BITWISE_BLAS`), they are equal bit for
    bit, with the same flags for the best start."""
    rank = max(1, round(rank_fraction * int(np.prod(dims))))
    spec = random_spec(d, len(dims), dims, seed=seed, shield_rank=rank)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    got = optimize_pairs(spec, pairs, restarts=restarts, max_iters=max_iters, seed=seed)
    for (i, j), res in zip(pairs, got):
        want = eta_optimize(
            cross_operator(spec, i, j), dims, restarts=restarts, max_iters=max_iters,
            seed=np.random.SeedSequence(seed, spawn_key=(i, j)),
        )
        assert abs(res.eta - want.eta) <= 1e-13
        assert len(res.start_etas) == len(want.start_etas)
        assert np.abs(np.subtract(res.start_etas, want.start_etas)).max() <= 1e-13
        if BITWISE_BLAS:
            assert (res.eta, res.start_etas) == (want.eta, want.start_etas)
            assert (res.converged, res.sweeps) == (want.converged, want.sweeps)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    rank_fraction=st.floats(0.0, 1.0),
    noise=st.floats(0.0, 1.0),
    restarts=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_party_optimum_is_schmidt_stationary(d, dims, rank_fraction, noise, restarts, seed):
    """Refitting one side of a converged two-party result cannot raise its
    overlap: with the kets g fixed, the best bra product reaches the top
    singular value of X g as a (d0, d1) matrix, and with the bras f fixed,
    that of X^dagger f. Both are at most eta + 1e-9."""
    rank = max(1, round(rank_fraction * dims[0] * dims[1]))
    spec = depolarized_spec(random_spec(d, 2, dims, seed=seed, shield_rank=rank), noise)
    for i in range(d):
        for j in range(i + 1, d):
            x = cross_operator(spec, i, j)
            res = eta_optimize(x, dims, restarts=restarts, seed=seed)
            if not res.converged:
                continue
            f = np.kron(*res.bra_vectors)
            g = np.kron(*res.ket_vectors)
            for v in (x @ g, x.conj().T @ f):
                top = np.linalg.svd(v.reshape(dims), compute_uv=False)[0]
                assert res.eta >= top - 1e-9


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(2, 3), min_size=2, max_size=4),
    rank_fraction=st.floats(0.0, 1.0),
    restarts=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_ascent_keeps_up_with_plain_ascent(d, dims, rank_fraction, restarts, seed):
    """Each start reports its best accepted |overlap|: it never decreases
    as more sweeps are allowed, and it ends at or above the start's own.
    From the same starts, every operator's best overlap is at least that
    of plain ascent, less 1e-9."""
    dims = tuple(dims)
    rank = max(1, round(rank_fraction * int(np.prod(dims))))
    spec = random_spec(d, len(dims), dims, seed=seed, shield_rank=rank)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    xs = _cross_operators(spec, pairs)
    bras, kets, counts = _stacked_starts(xs, dims, restarts, [seed + k for k in range(len(pairs))])
    who = np.repeat(np.arange(len(pairs)), counts)

    def etas(engine, max_iters):
        out = engine(xs, who, dims, [b.copy() for b in bras], [k.copy() for k in kets],
                     max_iters, CONV_TOL)
        return np.abs(out[2] if engine is ascend else out)

    before = etas(ascend, 0)
    for max_iters in (1, 2, 4, 8, 200):
        now = etas(ascend, max_iters)
        assert (now >= before).all()
        before = now
    first = np.cumsum(counts) - counts
    plain = np.maximum.reduceat(etas(plain_ascend, 200), first)
    assert (np.maximum.reduceat(before, first) >= plain - 1e-9).all()


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    restarts=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_pairs_result_does_not_depend_on_the_pair_list(d, dims, restarts, seed, data):
    """Pair (i, j)'s result from `optimize_pairs` is the same in every list
    that holds it (all pairs both ways round, a subset, its reverse) and is
    `optimize_pair`'s: to 1e-13 (`eta`, start values, branch weights), and
    bit for bit, with the same flags and factors, on a BLAS where that was
    checked (`BITWISE_BLAS`)."""
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    everything = [(i, j) for i in range(d) for j in range(d) if i != j]
    subset = data.draw(st.lists(st.sampled_from(everything), min_size=1, unique=True))
    runs = {}
    for pairs in (everything, subset, subset[::-1]):
        for pair, res in zip(pairs, optimize_pairs(spec, pairs, restarts=restarts, seed=seed)):
            runs.setdefault(pair, []).append(res)
    for (i, j), results in runs.items():
        alone = optimize_pair(spec, i, j, restarts=restarts, seed=seed)
        for res in results:
            for name in ("eta", "a1", "a2"):
                assert abs(getattr(res, name) - getattr(alone, name)) <= 1e-13
            assert len(res.start_etas) == len(alone.start_etas)
            assert np.abs(np.subtract(res.start_etas, alone.start_etas)).max() <= 1e-13
            if BITWISE_BLAS:
                assert (res.eta, res.a1, res.a2, res.theta) == (
                    alone.eta, alone.a1, alone.a2, alone.theta
                )
                assert res.start_etas == alone.start_etas
                assert (res.converged, res.sweeps) == (alone.converged, alone.sweeps)
                for u, v in zip(res.bra_vectors + res.ket_vectors,
                                alone.bra_vectors + alone.ket_vectors):
                    assert np.array_equal(u, v)


def test_eta_optimize_refuses_a_call_with_no_start():
    """An operator with no nonzero entry has no basis start, so with no
    restarts there is nothing to run."""
    with pytest.raises(ValueError, match="no start"):
        eta_optimize(np.zeros((4, 4), dtype=complex), (2, 2), restarts=0)
    with pytest.warns(UserWarning):
        assert eta_optimize(np.zeros((4, 4), dtype=complex), (2, 2), restarts=1).eta == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_eta_optimize_refuses_a_non_finite_operator(bad):
    x = cross_operator(random_spec(2, 2, (2, 2), seed=0), 0, 1)
    x[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        eta_optimize(x, (2, 2), restarts=2)


@pytest.mark.parametrize("bad", [
    {"restarts": -1}, {"max_iters": -1}, {"conv_tol": -1e-12}, {"conv_tol": float("nan")},
    {"conv_tol": float("inf")},
])
def test_optimizers_refuse_bad_settings(bad):
    spec = random_spec(2, 2, (2, 2), seed=0)
    with pytest.raises(ValueError):
        eta_optimize(cross_operator(spec, 0, 1), (2, 2), **bad)
    with pytest.raises(ValueError):
        optimize_pair(spec, 0, 1, **bad)
    with pytest.raises(ValueError):
        optimize_pairs(spec, [], **bad)


def test_optimize_pairs_of_no_pairs():
    assert optimize_pairs(random_spec(2, 2, (2, 2), seed=0), []) == []


@pytest.mark.parametrize("s", [6, 16, 64])
def test_block_products_are_each_operators_product(s):
    """Each row of the batched product is the product of its operator with
    the rows of that operator alone: to 1e-13 everywhere, and bit for bit
    on a BLAS where that was checked (`BITWISE_BLAS`). Also when a row is
    alone with its operator (a matrix-vector product), for empty blocks,
    for groups of consecutive blocks and of scattered ones."""
    rng = np.random.default_rng(s)
    ops = rng.normal(size=(5, s, s)) + 1j * rng.normal(size=(5, s, s))
    for counts in ([1, 3, 0, 1, 2], [1, 1, 0, 1, 1], [2, 0, 4, 3, 2], [0, 0, 1, 0, 0],
                   [3, 3, 3, 3, 3]):
        counts = np.array(counts)
        block = np.repeat(np.arange(5), counts)
        rows = rng.normal(size=(block.size, s)) + 1j * rng.normal(size=(block.size, s))
        out = block_product(rows, ops, block_grid(block, counts))
        for k in range(5):
            alone = rows[block == k] @ ops[k]
            assert np.abs(out[block == k] - alone).max(initial=0.0) <= 1e-13 * s
            if BITWISE_BLAS:
                assert np.array_equal(out[block == k], alone)
