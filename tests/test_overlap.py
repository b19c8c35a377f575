"""Product-overlap maximization: oracles, invariants, and the dual route."""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BITWISE_BLAS
from privdistill import overlap
from privdistill.ascent import ascend, row_kron, sweep
from privdistill.linalg import CONV_TOL, MAX_ITERS, kron_all, layout
from privdistill.overlap import (
    DETERMINISTIC_STARTS,
    ETA_FLOOR,
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
    assert abs(val.imag) <= 1e-12 * res.eta and val.real >= 0.0
    assert abs(val.real - res.eta) <= 1e-12 * res.eta
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
    for va, vb in zip(a.bra_vectors + a.ket_vectors, b.bra_vectors + b.ket_vectors):
        assert np.array_equal(va, vb)


def test_eta_optimize_shape_mismatch():
    with pytest.raises(ValueError):
        eta_optimize(np.eye(4), (2, 3))


@pytest.mark.parametrize("dims", [[0], [], [2.5], [2, 0]])
def test_eta_optimize_refuses_dims_that_describe_no_operator(dims):
    """An empty `dims`, or an entry that is not an integer >= 1, is refused
    with one message naming `dims`, before the shape check: [0] and [] used
    to fail inside NumPy, and [2.5] was truncated to 2."""
    with pytest.raises(ValueError, match=r"^dims must be a nonempty list of integers >= 1"):
        eta_optimize(np.eye(2), dims)


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


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_block_is_what_the_product_vectors_see(d, dims, seed):
    """`gram` of each ordered key pair (i, j) is the Hermitian 2 x 2 block
    of the dense products v_a^dagger U_ka rho U_kb^dagger v_b, with v = (f, g)
    and k = (i, j); a1, a2 are exactly its real diagonal, and |gram[0, 1]|
    is eta."""
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    rho = spec.shield.matrix
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    for (i, j), res in zip(pairs, optimize_pairs(spec, pairs, restarts=2, seed=seed)):
        gram = res.gram
        assert gram.shape == (2, 2)
        assert np.abs(gram - gram.conj().T).max() <= 1e-14
        vectors = (kron_all(res.bra_vectors), kron_all(res.ket_vectors))
        branches = [spec.unitaries[k].matrix.conj().T @ v for k, v in zip((i, j), vectors)]
        dense = np.array([[a.conj() @ rho @ b for b in branches] for a in branches])
        assert np.abs(gram - dense).max() <= 1e-13
        assert (res.a1, res.a2) == (gram[0, 0].real, gram[1, 1].real)
        assert type(res.a1) is float and type(res.a2) is float
        assert abs(abs(gram[0, 1]) - res.eta) <= 1e-12


def test_brute_force_dimension_cap():
    with pytest.raises(ValueError):
        brute_force_eta(np.eye(128), (128,))


def test_brute_force_shape_mismatch():
    with pytest.raises(ValueError):
        brute_force_eta(np.eye(4), (2, 3))


@pytest.mark.parametrize("x, dims", [(np.eye(2), [2.5]), (np.zeros((0, 0)), [0])])
def test_brute_force_refuses_dims_that_describe_no_operator(x, dims):
    """`brute_force_eta` checks `dims` as `eta_optimize` does: [2.5] used to
    be truncated to 2 (overlap 1.0), and [0] ran an empty operator (0.0)."""
    with pytest.raises(ValueError, match=r"^dims must be a nonempty list of integers >= 1"):
        brute_force_eta(x, dims)


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


@settings(max_examples=30, deadline=None)
@given(
    op_dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    d=st.integers(2, 3),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    restarts=st.integers(0, 3),
    max_iters=st.sampled_from([0, 1, 200]),
    seed=st.integers(0, 2**32 - 1),
)
@example(op_dims=[2, 3], d=3, dims=[2, 2], restarts=0, max_iters=0, seed=5)
def test_returned_vectors_see_the_overlap_eta(op_dims, d, dims, restarts, max_iters, seed):
    """<f|X|g> of the returned factors is real, >= 0 and eta to 1e-12
    relative, whether or not the best start took a sweep: for a generated
    operator (`eta_optimize`) and for every ordered pair of a generated spec
    (`optimize_pairs`), whose gram[0, 1] is that overlap too."""
    def overlap_is_eta(x, res):
        val = np.vdot(kron_all(res.bra_vectors), x @ kron_all(res.ket_vectors))
        assert abs(val.imag) <= 1e-12 * res.eta and val.real >= 0.0
        assert abs(val.real - res.eta) <= 1e-12 * res.eta
        return val

    total = int(np.prod(op_dims))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    overlap_is_eta(x, eta_optimize(x, op_dims, restarts=restarts, max_iters=max_iters, seed=seed))
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    for res in optimize_pairs(spec, pairs, restarts=restarts, max_iters=max_iters, seed=seed):
        val = overlap_is_eta(cross_operator(spec, res.i, res.j), res)
        assert abs(res.gram[0, 1] - val) <= 1e-12 * res.eta


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
    """The random starts of operator k, the last `restarts` of its c rows,
    are, bit for bit, the draws of a generator seeded by seeds[k] alone,
    for integer seeds and SeedSequence children alike. Every random factor
    has unit norm to within 1e-15."""
    total = int(np.prod(dims))
    seeds = [7, *np.random.SeedSequence(7).spawn(2)]
    points, c = _stacked_starts(
        np.zeros((len(seeds), total, total), dtype=complex), dims, 20, seeds
    )
    assert c == min(DETERMINISTIC_STARTS, total**2) + 20
    want = [per_factor_draws(dims, 20, s) for s in seeds]
    for k, got in enumerate(factor_columns(points, dims)):
        drawn = got.reshape(len(seeds), c, -1)[:, c - 20 :].reshape(-1, got.shape[1])
        ref = np.concatenate([w[k] for w in want])
        assert np.array_equal(drawn.view(np.int64), ref.view(np.int64))
        assert np.abs(np.linalg.norm(drawn, axis=1) - 1.0).max() <= 1e-15


def per_operator_starts(x, dims, restarts, seed):
    """The starts of one operator, built alone: its basis products at its
    DETERMINISTIC_STARTS largest-magnitude entries (all of them if it has
    fewer), zero or not, then its random starts (`per_factor_draws`);
    (bras, kets) as lists of (starts, dim) arrays."""
    top = np.argsort(np.abs(x).ravel())[::-1][:DETERMINISTIC_STARTS]
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
    few, n = _stacked_starts(x[None], tuple(dims), r, [seed])
    many, _ = _stacked_starts(x[None], tuple(dims), big, [seed])
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
    """Every operator of a stack gets min(DETERMINISTIC_STARTS, s^2) +
    restarts starts, its basis products first, and they are, bit for bit,
    the starts it would get alone. The SWAP shield's operator has four
    tied entries; two operators have fewer than four nonzero entries and
    one has none, so some of their basis products sit at zero entries; an
    operator on one factor of dimension 1 has a single entry."""
    swap = cross_operator(two_qubit_shield_spec(np.eye(4) / 4, SWAP), 0, 1)
    stacks = [
        ((2, 2), np.array([
            swap,
            _sparse({(0, 3): 0.5, (2, 1): -0.5j}, 4),
            _sparse({(1, 1): 1e-3}, 4),
            cross_operator(random_spec(2, 2, (2, 2), seed=4), 0, 1),
            np.zeros((4, 4), dtype=complex),
        ])),
        ((2, 4, 3), _cross_operators(
            random_spec(4, 3, (2, 4, 3), seed=8), [(0, 1), (0, 3), (2, 3), (1, 2)])),
        ((1,), np.array([[[2.0 - 1j]], [[0.0]]])),
    ]
    for (dims, xs), basis in zip(stacks, (4, 4, 1)):
        seeds = list(range(10, 10 + len(xs)))
        points, c = _stacked_starts(xs, dims, restarts, seeds)
        assert c == basis + restarts
        want = [per_operator_starts(x, dims, restarts, s) for x, s in zip(xs, seeds)]
        assert all(len(w[0][0]) == c for w in want)
        got = factor_columns(points, dims)
        for side in range(2):
            for k in range(len(dims)):
                ref = np.concatenate([w[side][k] for w in want])
                assert np.array_equal(got[side * len(dims) + k].view(np.int64),
                                      ref.view(np.int64))


@pytest.mark.parametrize("gather_bytes", [1, 3 * 16**3])
def test_stacked_starts_sorted_in_chunks_are_the_per_operator_starts(gather_bytes):
    """With GATHER_BYTES cut to one operator, or to three of the ten, the
    entries are sorted a chunk of operators at a time, and every start is
    still bit for bit the one its operator gets alone."""
    spec = random_spec(5, 2, (4, 4), seed=6, shield_rank=2)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    xs = _cross_operators(spec, pairs)
    xs[3] = _sparse({(0, 5): 0.25, (7, 1): -1.0}, 16)  # two nonzero entries
    seeds = list(range(len(xs)))
    with mock.patch.object(overlap, "GATHER_BYTES", gather_bytes):
        points, c = _stacked_starts(xs, (4, 4), 2, seeds)
    assert c == DETERMINISTIC_STARTS + 2
    want = [per_operator_starts(x, (4, 4), 2, s) for x, s in zip(xs, seeds)]
    got = factor_columns(points, (4, 4))
    for side in range(2):
        for k in range(2):
            ref = np.concatenate([w[side][k] for w in want])
            assert np.array_equal(got[2 * side + k].view(np.int64), ref.view(np.int64))


def factor_columns(points, dims):
    """The factor views of (starts, 2 sum(dims)) points: bras, then kets."""
    cuts = np.cumsum((0,) + tuple(dims) + tuple(dims))
    return [points[:, lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def fit(t, dims, factors, conjs):
    """The per-factor fit of earlier engines: each factor in turn becomes the
    normalized contraction of t with the conjugates of all the others (a
    factor whose contraction vanishes is left as it is), in place. Returns
    the norm of the last contraction per row, the overlap with the new
    factors."""
    n = len(dims)
    t = t.reshape((t.shape[0],) + tuple(dims))
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


def own_products(rows, xs):
    """Each operator's rows times it: the rows are len(xs) equal blocks, in
    the order of the operators. One matmul, with no code of the engine."""
    return (rows.reshape(len(xs), -1, rows.shape[1]) @ xs).reshape(rows.shape)


def per_factor_sweep(xs, dims, z, scratch):
    """`ascent.sweep` with every factor normalized as soon as it is fitted."""
    n, z_conj = len(dims), np.conjugate(z, out=scratch)
    f, f_conj = factor_columns(z, dims), factor_columns(z_conj, dims)
    fit(own_products(row_kron(f[n:]), xs.transpose(0, 2, 1)), dims, f[:n], f_conj[:n])
    w = own_products(row_kron(f_conj[:n]), xs)
    return fit(w.conj(), dims, f[n:], f_conj[n:])


def ascend_without_compaction(xs, dims, points, max_iters, conv_tol, sweep=sweep):
    """The ascent with its state kept full size: every row sweeps on every
    sweep, whether its start has stopped or not, and a start's result is
    copied out at the sweep where it stops. The rows of `points` (left as
    they are) are len(xs) equal blocks of starts, one per operator. A start
    stops when it converges, or after `max_iters` sweeps.
    Returns the result points, then the values, sweeps and flags, and the
    number of mixing steps and of rejected sweeps of starts that had not
    stopped."""
    n, factors = len(dims), factor_columns(points, dims)
    value = np.einsum("bc,bc->b", own_products(row_kron(factors[:n]).conj(), xs),
                      row_kron(factors[n:]))
    sweeps = np.full(value.size, max_iters)
    converged = np.zeros(value.size, dtype=bool)
    x = points.copy()
    x_prev, r_prev, best_y, best = x.copy(), x.copy(), x.copy(), np.abs(value)
    best_value, result, running = value.copy(), x.copy(), np.ones(value.size, dtype=bool)
    steps = rejections = 0
    for it in range(1, max_iters + 1):
        z = x.copy()
        size = sweep(xs, dims, z, np.empty_like(z))
        z[size == 0.0] = x[size == 0.0]  # a vanished contraction leaves the start at x
        r = z - x
        dr, dx = r - r_prev, x - x_prev
        pair = np.stack([dr, dx], axis=1)
        den, secant = np.einsum("bml,bl->mb", pair.view(float), dr.view(float))
        num = np.einsum("bl,bl->b", r.view(float), dr.view(float))
        done = np.abs(size - best) <= conv_tol
        up = size >= best
        step = (secant < 0.0) & (den > 0.0)
        steps += (step & running).sum()
        rejections += (~up & running).sum()
        best_y[up], best_value[up], best[up] = z[up], size[up], size[up]
        if step.any():
            z -= np.divide(num, den, out=np.zeros_like(num), where=step)[:, None] * (dx + dr)
        z[~up] = best_y[~up]
        x_prev, r_prev, x = x, r, z
        x_prev[~up] = z[~up]
        stop = done & running
        result[stop], value[stop] = best_y[stop], best_value[stop]
        converged[stop], sweeps[stop] = True, it
        running &= ~stop
        if not running.any():
            break
    result[running], value[running] = best_y[running], best_value[running]
    return result, value, sweeps, converged, steps, rejections


@pytest.mark.parametrize("max_iters", [0, 1, 2, 15, 200])
@pytest.mark.parametrize("d, dims, one_entry", [
    pytest.param(3, (2, 3), None, id="3-dims0"),
    pytest.param(4, (2, 2, 2), None, id="4-dims1"),
    pytest.param(4, (2, 3), (1,), id="4-dims2-one-entry"),
    pytest.param(4, (2, 3), (1, 2), id="4-dims2-two-one-entry"),
    pytest.param(3, (2, 1, 2, 1, 2), None, id="3-five-parties"),
])
def test_ascent_keeps_every_start_whenever_it_stops(d, dims, one_entry, max_iters):
    """The compact ascent leaves every start's point in the caller's
    `points` as it was when it stopped, converged or at `max_iters`, also
    for operators that left before a swap-remove: the points reproduce its
    returned overlap, and its sweeps and flag are those of a run that keeps
    the state full size (bit for bit on a BLAS where that was checked). No
    start stops unconverged before `max_iters`. Some starts take mixing
    steps, and some sweeps are rejected.
    With `one_entry`, those operators of the stack have a single nonzero
    entry, so they stop within two sweeps while the last ones sweep on,
    and one swap-remove moves the last operators into their slots: the
    bound sweep is re-sliced there. With five parties, each half-sweep is
    two normalization groups."""
    spec = random_spec(d, len(dims), dims, seed=17, shield_rank=3)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    xs = _cross_operators(spec, pairs)
    if one_entry is not None:
        xs[list(one_entry)] = 0.0
        xs[list(one_entry), 0, 0] = 1.0
    points, c = _stacked_starts(xs, dims, 5, list(range(len(pairs))))
    ref = ascend_without_compaction(xs, dims, points, max_iters, 1e-12)
    got = points.copy()
    value, sweeps, converged = ascend(xs.copy(), c, dims, got, max_iters, 1e-12)
    f, n = factor_columns(got, dims), len(dims)
    stored = np.einsum("ba,bac,bc->b", row_kron(f[:n]).conj(), np.repeat(xs, c, axis=0),
                       row_kron(f[n:]))
    assert np.abs(stored - value).max() <= 1e-13
    assert np.array_equal(sweeps, ref[2]) and np.array_equal(converged, ref[3])
    assert (converged | (sweeps == max_iters)).all()
    if max_iters == 15:  # some starts converged, the others ran on
        assert 0 < converged.sum() < converged.size
    if max_iters == 200:
        assert ref[4] > 0 and ref[5] > 0  # mixing steps, rejected sweeps
    if one_entry is not None and max_iters >= 15:
        per_operator = sweeps.reshape(-1, c).max(axis=1)
        assert per_operator[list(one_entry)].max() <= 2 < per_operator[-len(one_entry):].min()
    for a, b in zip((got, value), ref[:2]):
        assert np.abs(a - b).max() <= 1e-13
        if BITWISE_BLAS:
            assert np.array_equal(a, b)


def recorded_ascent(spec, pairs, restarts, seed):
    """`optimize_pairs` at the default settings, with the arguments its
    ascent was called with (copied before the call, which reorders the
    stack and overwrites the points) and copies of the ascent's outputs
    (the caller rescales the overlaps in place)."""
    calls = []

    def recorded(xs, c, dims, points, *rest):
        args = (xs.copy(), c, dims, points.copy()) + rest
        out = ascend(xs, c, dims, points, *rest)
        calls.append((args, tuple(a.copy() for a in out)))
        return out

    with mock.patch.object(overlap, "ascend", recorded):
        results = optimize_pairs(spec, pairs, restarts=restarts, seed=seed)
    assert len(calls) == 1
    return results, *calls[0]


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    rank_fraction=st.floats(0.0, 1.0),
    restarts=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
# inputs on which a start cut behind its pair's best converged start would
# have climbed past it: an earlier engine lost these pairs
@example(d=2, dims=[2, 3, 2], rank_fraction=1.0, restarts=5, seed=292)
@example(d=3, dims=[3, 3, 3], rank_fraction=0.40625, restarts=0, seed=29)
@example(d=3, dims=[3, 3, 3], rank_fraction=0.40625, restarts=3, seed=16669)
@example(d=3, dims=[3, 3, 3], rank_fraction=0.85, restarts=0, seed=102)
def test_cut_starts_lose_no_pair(d, dims, rank_fraction, restarts, seed):
    """No start is cut, so none loses its pair: every start of
    `optimize_pairs`'s ascent runs until it converges or has swept
    MAX_ITERS times, and its overlap, sweeps and flag are those of the
    full-size reference ascent on the same starts (bit for bit on a BLAS
    where that was checked, else to 1e-13). Each pair reports its best
    start, and its `eta` is at least its largest |X| entry."""
    rank = max(1, round(rank_fraction * int(np.prod(dims))))
    spec = random_spec(d, len(dims), tuple(dims), seed=seed, shield_rank=rank)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    results, (xs, c, dims, points, max_iters, conv_tol), (value, sweeps, converged) = (
        recorded_ascent(spec, pairs, restarts, seed)
    )
    assert max_iters == MAX_ITERS
    assert (converged | (sweeps == MAX_ITERS)).all()
    ref = ascend_without_compaction(xs, dims, points, max_iters, conv_tol)
    assert np.array_equal(sweeps, ref[2]) and np.array_equal(converged, ref[3])
    assert np.abs(value - ref[1]).max() <= 1e-13
    if BITWISE_BLAS:
        assert np.array_equal(value, ref[1])
    for res, runs, flags in zip(results, sweeps.reshape(len(pairs), c),
                                converged.reshape(len(pairs), c)):
        best = int(np.argmax(res.start_etas))
        assert res.eta == max(res.start_etas)
        assert (res.sweeps, res.converged) == (runs[best], flags[best])
        assert np.abs(cross_operator(spec, res.i, res.j)).max() <= res.eta + 1e-12


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
# The mixed ascent ends at another local maximum than plain ascent from
# the same starts: for pair (0, 2) of the first, 0.0498289 against 0.0515055.
@example(d=3, dims=[3, 2, 3, 2], rank_fraction=0.5, restarts=2, seed=69111)
@example(d=2, dims=[3, 3, 2, 3], rank_fraction=0.78125, restarts=2, seed=0)
def test_mixed_ascent_is_monotone_and_ends_at_a_fixed_point(d, dims, rank_fraction, restarts,
                                                            seed):
    """Each start reports its best accepted |overlap|: it never decreases
    as more sweeps are allowed, and it ends at or above the start's own.
    From the factors an operator reports (its best start), if that start
    converged, one more plain sweep raises |overlap| by at most 1e-9."""
    dims = tuple(dims)
    rank = max(1, round(rank_fraction * int(np.prod(dims))))
    spec = random_spec(d, len(dims), dims, seed=seed, shield_rank=rank)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    xs = _cross_operators(spec, pairs)
    points, c = _stacked_starts(xs, dims, restarts, [seed + k for k in range(len(pairs))])

    def run(max_iters):
        got = points.copy()
        value, _, converged = ascend(xs.copy(), c, dims, got, max_iters, CONV_TOL)
        return got, value, converged

    before = np.abs(run(0)[1])
    for max_iters in (1, 2, 4, 8, 200):
        got, value, converged = run(max_iters)
        now = np.abs(value)
        assert (now >= before).all()
        before = now
    best = now.reshape(-1, c).argmax(axis=1) + c * np.arange(len(xs))
    best = best[converged[best]]
    z = got[best]
    after = sweep(np.repeat(xs, c, axis=0)[best], dims, z, np.empty_like(z))
    assert (after <= now[best] + 1e-9).all()


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    restarts=st.integers(0, 5),
    max_iters=st.sampled_from([0, MAX_ITERS]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_pairs_result_does_not_depend_on_the_pair_list(d, dims, restarts, max_iters, seed,
                                                          data):
    """Pair (i, j)'s result from `optimize_pairs` is the same in every list
    that holds it (all pairs both ways round, a subset, its reverse) and is
    `optimize_pair`'s: to 1e-13 (`eta`, start values, branch weights), and
    bit for bit, with the same flags and factors, on a BLAS where that was
    checked (`BITWISE_BLAS`). At `max_iters=0` the first ket factor of each
    pair is turned by its overlap's phase, and that too is row by row."""
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    everything = [(i, j) for i in range(d) for j in range(d) if i != j]
    subset = data.draw(st.lists(st.sampled_from(everything), min_size=1, unique=True))
    runs = {}
    for pairs in (everything, subset, subset[::-1]):
        got = optimize_pairs(spec, pairs, restarts=restarts, max_iters=max_iters, seed=seed)
        for pair, res in zip(pairs, got):
            runs.setdefault(pair, []).append(res)
    for (i, j), results in runs.items():
        alone = optimize_pair(spec, i, j, restarts=restarts, max_iters=max_iters, seed=seed)
        for res in results:
            for name in ("eta", "a1", "a2"):
                assert abs(getattr(res, name) - getattr(alone, name)) <= 1e-13
            assert len(res.start_etas) == len(alone.start_etas)
            assert np.abs(np.subtract(res.start_etas, alone.start_etas)).max() <= 1e-13
            if BITWISE_BLAS:
                assert (res.eta, res.a1, res.a2) == (alone.eta, alone.a1, alone.a2)
                assert res.start_etas == alone.start_etas
                assert (res.converged, res.sweeps) == (alone.converged, alone.sweeps)
                for u, v in zip(res.bra_vectors + res.ket_vectors,
                                alone.bra_vectors + alone.ket_vectors):
                    assert np.array_equal(u, v)


def test_eta_optimize_of_an_all_zero_operator():
    """An all-zero operator gets its basis starts like any other, so with
    no restarts it runs as with one: every start has overlap 0, its first
    contraction vanishes and it stays where it is, converged after one
    sweep, with unit-norm factors."""
    for restarts in (0, 1):
        with pytest.warns(UserWarning, match="below"):
            res = eta_optimize(np.zeros((4, 4), dtype=complex), (2, 2), restarts=restarts)
        assert (res.eta, res.converged, res.sweeps) == (0.0, True, 1)
        assert len(res.start_etas) == DETERMINISTIC_STARTS + restarts
        for v in res.bra_vectors + res.ket_vectors:  # the start, where it stayed
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-15


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
    """Each row of the ascent's product, one `np.matmul` of the
    (operators, c, s) rows by the stack, is the product of its operator
    with the rows of that operator alone: to 1e-13 everywhere, and bit for
    bit on a BLAS where that was checked (`BITWISE_BLAS`). Also for stacks
    left by swap-removes, whose operators are in any order, and with one
    row per operator (a matrix-vector product). Written into a view of a
    buffer (`out=`, as the bound sweep binds it), the product is the same,
    in that buffer."""
    rng = np.random.default_rng(s)
    ops = rng.normal(size=(5, s, s)) + 1j * rng.normal(size=(5, s, s))
    for live in ([0, 1, 2, 3, 4], [0, 4, 2, 3], [4, 1], [3], [0, 1, 4, 3], []):
        stack = ops[np.array(live, dtype=int)]
        for c in (1, 3):
            rows = rng.normal(size=(len(live) * c, s)) + 1j * rng.normal(size=(len(live) * c, s))
            batch = rows.reshape(len(live), c, s)
            out = np.matmul(batch, stack).reshape(rows.shape)
            assert out.shape == rows.shape
            into = np.empty_like(rows)
            view = into.reshape(batch.shape)
            assert np.matmul(batch, stack, out=view) is view
            assert np.abs(into - out).max(initial=0.0) <= 1e-13 * s
            if BITWISE_BLAS:
                assert np.array_equal(into, out)
            for at, k in enumerate(live):
                mine = slice(at * c, (at + 1) * c)
                alone = rows[mine] @ ops[k]
                assert np.abs(out[mine] - alone).max() <= 1e-13 * s
                if BITWISE_BLAS:
                    assert np.array_equal(out[mine], alone)


def test_a_start_whose_contraction_vanishes_stays_where_it_is():
    """x = |00><00| on (2, 2). The start (e0 e1, e0 e0) has overlap exactly 0,
    and so has its first contraction, x g against e1: the sweep leaves it
    where it is, with overlap 0, and it stops at sweep 1, frozen while the
    other starts of its operator go on. The start (e1 e0, e0 e0) also has
    overlap 0, but its contraction does not vanish, and it climbs to 1."""
    e0, e1 = np.eye(2, dtype=complex)
    x = np.zeros((1, 4, 4), dtype=complex)
    x[0, 0, 0] = 1.0
    bras = [np.array([e0, e0, e1]), np.array([e0, e1, e0])]
    kets = [np.array([e0, e0, e0]), np.array([e0, e0, e0])]
    starts = np.concatenate(bras + kets, axis=1)
    points = starts.copy()
    value, sweeps, converged = ascend(x, 3, (2, 2), points, 200, CONV_TOL)
    assert value.tolist() == [1.0, 0.0, 1.0]
    assert sweeps.tolist() == [1, 1, 2] and converged.all()
    assert np.array_equal(points[1], starts[1])
    assert np.isfinite(points).all()
    f = factor_columns(points, (2, 2))
    assert np.abs(f[0][2] - e0).max() <= 1e-15 and np.abs(f[1][2] - e0).max() <= 1e-15


@settings(max_examples=30, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4)
    | st.lists(st.integers(1, 2), min_size=5, max_size=6),
    rank_fraction=st.floats(0.0, 1.0),
    k=st.integers(-6, 0),
    restarts=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
# Near-tied starts: two of them end at distinct local maxima 4.8e-5 apart
# (relative), so a start whose path the rounding flipped would show.
@example(dims=[3, 3, 1], rank_fraction=1.0, k=0, restarts=6, seed=643452868)
@example(dims=[3, 3, 1], rank_fraction=1.0, k=-6, restarts=6, seed=643452868)
def test_grouped_normalization_keeps_the_per_factor_result(dims, rank_fraction, k, restarts,
                                                            seed):
    """For one to six parties (five or six of dims 1-2, whose half-sweeps
    are two normalization groups each), any rank, and operators scaled by
    10^k down to 1e-6, every result of `ascend` (the overlaps and the
    factors of every start) is finite, and the best overlap is, to 1e-9
    relative, that of the same ascent from the same starts with every
    factor normalized as soon as it is fitted."""
    dims = tuple(dims)
    total = int(np.prod(dims))
    rank = max(1, round(rank_fraction * total))
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(4, total, rank))
    xs = ((parts[0] + 1j * parts[1]) @ (parts[2] + 1j * parts[3]).conj().T)[None]  # rank `rank`
    xs *= 10.0**k / np.abs(xs).max()
    points, c = _stacked_starts(xs, dims, restarts, [seed])
    ref = ascend_without_compaction(xs, dims, points, MAX_ITERS, CONV_TOL, sweep=per_factor_sweep)
    got = points.copy()
    value, _, _ = ascend(xs.copy(), c, dims, got, MAX_ITERS, CONV_TOL)
    assert np.isfinite(value).all() and np.isfinite(got).all()
    want = np.abs(ref[1]).max()
    assert abs(np.abs(value).max() - want) <= 1e-9 * want


@pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 2, 2, 2)])
def test_eta_optimize_of_a_huge_or_tiny_operator(dims):
    """The ascent's raw norms are powers of the overlap, up to its 8th, so
    its operators are rescaled by a power of two first. With the
    tolerance scaled too, x times 2^+-200 or 1e+-30 gives the overlap of x
    times that factor to 1e-13 relative, with no overflow or underflow; for
    a power of two, also the same vectors, flags and sweeps, bit for bit on
    a BLAS where that was checked (`BITWISE_BLAS`)."""
    rng = np.random.default_rng(3)
    total = int(np.prod(dims))
    x = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    base = eta_optimize(x, dims, restarts=4, seed=2)
    for factor in (2.0**200, 2.0**-200, 1e30, 1e-30):
        tiny = base.eta * factor < ETA_FLOOR  # warned of, and still computed
        with pytest.warns(UserWarning, match="below") if tiny else contextlib.nullcontext():
            res = eta_optimize(x * factor, dims, restarts=4, seed=2, conv_tol=CONV_TOL * factor)
        assert abs(res.eta / factor - base.eta) <= 1e-13 * base.eta
        if BITWISE_BLAS and np.frexp(factor)[0] == 0.5:  # a power of two
            assert (res.eta, res.start_etas) == (base.eta * factor,
                                                 [e * factor for e in base.start_etas])
            assert (res.converged, res.sweeps) == (base.converged, base.sweeps)
            for u, v in zip(res.bra_vectors + res.ket_vectors,
                            base.bra_vectors + base.ket_vectors):
                assert np.array_equal(u, v)
