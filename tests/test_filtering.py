import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from privdistill.bounds import hashing_rate, pair_bounds
from privdistill.filtering import (
    FilterError,
    apply_filter,
    build_filters,
    filter_outcomes,
)
from privdistill.linalg import kron_all, layout, permute_factors, von_neumann_entropy
from privdistill.overlap import PairOverlap, optimize_pair, optimize_pairs
from privdistill.private_states import PrivateStateSpec, build_private_state, random_spec
from privdistill.states import UnitaryOp, bell_vector, validate_state

SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def two_qubit_shield_spec(shield, u1):
    dm = validate_state(shield, layout([("S0", 2, 0, "shield"), ("S1", 2, 1, "shield")]))
    return PrivateStateSpec(
        d=2, parties=2, shield_dims=(2, 2),
        unitaries=(UnitaryOp(np.eye(4, dtype=complex)), UnitaryOp(u1)),
        shield=dm,
    )


def run_pipeline(spec, i=0, j=1, seed=0):
    res = optimize_pair(spec, i, j, seed=seed)
    filters = build_filters(spec, i, j, res)
    outcome = apply_filter(build_private_state(spec), filters)
    return res, filters, outcome


def closed_form(spec, res):
    """The paper's success (2/d) min(a1, a2) and p = 1/2 + eta / (2 sqrt(a1 a2))."""
    return 2 / spec.d * min(res.a1, res.a2), 0.5 + res.eta / (2 * np.sqrt(res.a1 * res.a2))


def assert_variant_row_is_weighted(filters, res):
    """Party 0's weight below 1, sqrt(min(a1, a2) / max(a1, a2)), sits on
    key j's row for variant "V" and on key i's row otherwise."""
    w_i, w_j = np.linalg.norm(filters.party_ops[0], axis=1)
    whole, scaled = (w_i, w_j) if res.variant == "V" else (w_j, w_i)
    assert abs(whole - 1) <= 1e-12
    assert abs(scaled - np.sqrt(min(res.a1, res.a2) / max(res.a1, res.a2))) <= 1e-12


def test_swap_shield_pipeline_exact_values():
    """Maximally mixed two-qubit shield with a SWAP twist: the filters
    succeed with probability 1/4 and leave the pure + Bell state."""
    spec = two_qubit_shield_spec(np.eye(4) / 4, SWAP)
    res, filters, outcome = run_pipeline(spec)
    (bound,) = pair_bounds(spec, [res])
    success, p = closed_form(spec, res)
    assert abs(outcome.success - 0.25) < 1e-9
    assert abs(success - 0.25) < 1e-9
    assert abs(bound.success_sim - 0.25) < 1e-9
    assert abs(outcome.p - 1.0) < 1e-9
    assert abs(p - 1.0) < 1e-9
    assert abs(bound.p_sim - 1.0) < 1e-9
    assert abs(outcome.success - bound.success_sim) < 1e-12
    assert abs(outcome.p - bound.p_sim) < 1e-12
    plus = bell_vector(+1, 0, 1, 2, 2)
    assert np.abs(outcome.state.matrix - np.outer(plus, plus.conj())).max() < 1e-9
    assert outcome.residual < 1e-12


def test_filter_outcomes_read_only_the_gram_block():
    """A hand-built result holding the SWAP-shield Gram block
    [[1, 1], [1, 1]] / 4, with NaN product vectors, gives the closed form of
    the SWAP-shield pipeline: success 1/4 and p = 1."""
    spec = two_qubit_shield_spec(np.eye(4) / 4, SWAP)
    nan = np.full(2, np.nan, dtype=complex)
    res = PairOverlap(
        eta=0.25, bra_vectors=[nan, nan], ket_vectors=[nan, nan],
        converged=True, sweeps=1, start_etas=[0.25], i=0, j=1, gram=np.ones((2, 2)) / 4,
    )
    (outcome,) = filter_outcomes(spec, [res])
    assert outcome.success == 0.25
    assert abs(outcome.p - 1.0) <= 1e-15
    assert outcome.residual <= 1e-15
    bell_plus = np.zeros((4, 4))
    bell_plus[np.ix_([0, 3], [0, 3])] = 0.5
    assert np.array_equal(outcome.state.matrix, bell_plus)


def test_bell_shield_pipeline_rate_half():
    spec = two_qubit_shield_spec(
        np.outer(BELL_PLUS, BELL_PLUS.conj()), np.kron(SZ, np.eye(2))
    )
    res, filters, outcome = run_pipeline(spec)
    assert abs(outcome.success - 0.5) < 1e-9
    assert abs(outcome.p - 1.0) < 1e-9
    # success * (1 - H(p)) = 0.5 here; entropy of the pure output is 0
    assert von_neumann_entropy(outcome.state.matrix) < 1e-9


def test_variant_selection_follows_branch_weights():
    for seed in range(8):
        spec = random_spec(2, 2, (2, 3), seed=seed)
        res, filters, _ = run_pipeline(spec, seed=seed)
        assert res.variant == ("V" if res.a2 >= res.a1 else "W")
        assert_variant_row_is_weighted(filters, res)


def test_filter_shapes_are_rectangular():
    spec = random_spec(3, 2, (2, 3), seed=1)
    res = optimize_pair(spec, 0, 2, seed=1)
    filters = build_filters(spec, 0, 2, res)
    assert filters.party_ops[0].shape == (2, 3 * 2)
    assert filters.party_ops[1].shape == (2, 3 * 3)
    assert filters.i == 0 and filters.j == 2


def test_post_filter_state_structure_random_specs():
    """The surviving state is always a mixture of the two Bell states and
    the closed-form (success, p) match the simulation."""
    for seed in range(6):
        spec = random_spec(2, 2, (2, 2), seed=100 + seed)
        res, _, outcome = run_pipeline(spec, seed=seed)
        (bound,) = pair_bounds(spec, [res])
        success, p = closed_form(spec, res)
        assert outcome.residual < 1e-12
        assert abs(outcome.success - success) < 1e-12
        assert abs(outcome.p - p) < 1e-12
        assert abs(bound.success_sim - success) < 1e-12
        assert abs(bound.p_sim - p) < 1e-12
        assert abs(outcome.success - bound.success_sim) < 1e-12
        assert abs(outcome.p - bound.p_sim) < 1e-12
        assert 0.5 - 1e-12 <= outcome.p <= 1.0 + 1e-12


def test_three_party_filtering():
    spec = random_spec(2, 3, (2, 2, 3), seed=9)
    res, filters, outcome = run_pipeline(spec, seed=9)
    assert len(filters.party_ops) == 3
    assert outcome.state.dim == 8
    assert outcome.residual < 1e-12
    (bound,) = pair_bounds(spec, [res])
    success, p = closed_form(spec, res)
    assert abs(outcome.success - success) < 1e-12
    assert abs(outcome.p - p) < 1e-12
    assert abs(bound.success_sim - success) < 1e-12
    assert abs(bound.p_sim - p) < 1e-12
    assert abs(outcome.success - bound.success_sim) < 1e-12
    assert abs(outcome.p - bound.p_sim) < 1e-12


def test_filter_matches_regroup_then_filter():
    """Filtering in the canonical factor order equals regrouping the state
    per party and applying the product filter there."""
    for d, parties, dims, seed in ((2, 2, (2, 3), 0), (3, 2, (2, 2), 1), (2, 3, (2, 2, 3), 2)):
        spec = random_spec(d, parties, dims, seed=seed)
        state = build_private_state(spec)
        filters = build_filters(spec, 0, d - 1, optimize_pair(spec, 0, d - 1, seed=seed))
        outcome = apply_filter(state, filters)
        order = [x for k in range(parties) for x in (k, parties + k)]
        regrouped = permute_factors(state.rho.matrix, [d] * parties + list(dims), order)
        full = kron_all(list(filters.party_ops))
        out = full @ regrouped @ full.conj().T
        success = np.trace(out).real
        post = out / success
        assert abs(outcome.success - success) < 1e-14
        assert np.abs(outcome.state.matrix - (post + post.conj().T) / 2).max() < 1e-14


def test_qutrit_key_success_has_two_thirds_factor():
    """For d = 3 only two of the three equally likely key branches pass the
    filter, so the success probability is (2/3) min(a1, a2)."""
    for seed in range(4):
        spec = random_spec(3, 2, (2, 2), seed=seed)
        res, _, outcome = run_pipeline(spec, i=0, j=2, seed=seed)
        assert abs(outcome.success - (2 / 3) * min(res.a1, res.a2)) < 1e-12
        (bound,) = pair_bounds(spec, [res])
        assert abs(bound.success_sim - outcome.success) < 1e-12
        assert abs(bound.success_sim - closed_form(spec, res)[0]) < 1e-12


def test_build_filters_rejects_zero_branch_weight():
    res = PairOverlap(
        eta=0.0,
        bra_vectors=[np.array([1, 0], dtype=complex)] * 2,
        ket_vectors=[np.array([0, 1], dtype=complex)] * 2,
        converged=True, sweeps=1, start_etas=[0.0], i=0, j=1, gram=np.diag([0.0, 0.5]),
    )
    spec = random_spec(2, 2, (2, 2), seed=0)
    with pytest.raises(FilterError):
        build_filters(spec, 0, 1, res)
    with pytest.raises(FilterError):
        pair_bounds(spec, [res])
    with pytest.raises(FilterError):
        filter_outcomes(spec, [res])


def test_build_filters_party_count_mismatch():
    spec2 = random_spec(2, 2, (2, 2), seed=0)
    spec3 = random_spec(2, 3, (2, 2, 2), seed=0)
    res = optimize_pair(spec3, 0, 1, seed=0)
    with pytest.raises(ValueError):
        build_filters(spec2, 0, 1, res)


def test_build_filters_needs_two_key_values():
    spec = random_spec(3, 2, (2, 2), seed=0)
    res = optimize_pair(spec, 0, 1, seed=0)
    with pytest.raises(ValueError):
        build_filters(spec, 1, 1, res)


def test_build_filters_refuses_the_result_of_another_pair():
    """Pair (0, 1)'s product vectors on key blocks 0 and 2 filter no pair
    of the state; the result names its pair, and another pair is refused."""
    spec = random_spec(3, 2, (2, 2), seed=0)
    res = optimize_pair(spec, 0, 1, seed=0)
    assert (res.i, res.j) == (0, 1)
    for i, j in ((0, 2), (1, 0)):
        with pytest.raises(ValueError, match=rf"key pair \({i}, {j}\) .* pair \(0, 1\)"):
            build_filters(spec, i, j, res)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_party_filter_is_a_contraction(d, dims, seed):
    """Each party's filter F satisfies F F^dagger <= I (spectral norm <= 1),
    so it is one outcome of a local operation, on every ordered key pair:
    (i, j) and (j, i) swap a1 and a2, so both labels occur. The branch
    weights are a1 = <f|U_i rho U_i^dagger|f> and a2 = <g|U_j rho U_j^dagger|g>."""
    assume(d ** len(dims) * int(np.prod(dims)) <= 512)
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    rho = spec.shield.matrix
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    for (i, j), res in zip(pairs, optimize_pairs(spec, pairs, restarts=2, seed=seed)):
        f, g = kron_all(res.bra_vectors), kron_all(res.ket_vectors)
        ui, uj = spec.unitaries[i].matrix, spec.unitaries[j].matrix
        assert abs(res.a1 - np.vdot(f, ui @ rho @ ui.conj().T @ f).real) <= 1e-13
        assert abs(res.a2 - np.vdot(g, uj @ rho @ uj.conj().T @ g).real) <= 1e-13
        filters = build_filters(spec, i, j, res)
        assert_variant_row_is_weighted(filters, res)
        for op in filters.party_ops:
            assert np.linalg.norm(op, 2) <= 1 + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_simulated_outcome_identities_on_generated_specs(d, dims, seed, data):
    """success = (2/d) min(a1, a2) and p = 1/2 + eta / (2 sqrt(a1 a2)) for
    the simulated filter, whatever the spec and key pair."""
    i = data.draw(st.integers(0, d - 2))
    j = data.draw(st.integers(i + 1, d - 1))
    assume(d ** len(dims) * int(np.prod(dims)) <= 512)
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    res = optimize_pair(spec, i, j, restarts=4, seed=seed)
    outcome = apply_filter(build_private_state(spec), build_filters(spec, i, j, res))
    assert abs(outcome.success - 2 / d * min(res.a1, res.a2)) <= 1e-9
    assert abs(outcome.p - (0.5 + res.eta / (2 * np.sqrt(res.a1 * res.a2)))) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    rank_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_filter_outcome_matches_dense_filter(d, dims, rank_fraction, seed, data):
    """The corner formula (1/d) W G W^dagger gives the outcome
    of the dense filter: success, p, residual and the post-filter state
    agree to 1e-14. The dense post-filter state has no entry above 1e-15
    outside the rows and columns of |0..0> and |1..1>, where the corner
    formula puts all of it."""
    assume(d ** len(dims) * int(np.prod(dims)) <= 512)
    i, j = data.draw(st.permutations(range(d)))[:2]
    rank = max(1, round(rank_fraction * int(np.prod(dims))))
    spec = random_spec(d, len(dims), tuple(dims), seed=seed, shield_rank=rank)
    res = optimize_pair(spec, i, j, restarts=2, seed=seed)
    try:
        filters = build_filters(spec, i, j, res)
        dense = apply_filter(build_private_state(spec), filters)
    except FilterError:
        assume(False)
    fast = filter_outcomes(spec, [res])[0]
    inside = np.ones(dense.state.dim, dtype=bool)
    inside[[0, -1]] = False
    assert np.abs(dense.state.matrix[inside]).max(initial=0.0) <= 1e-15
    assert np.abs(dense.state.matrix[:, inside]).max(initial=0.0) <= 1e-15
    assert abs(fast.success - dense.success) <= 1e-14
    assert abs(fast.p - dense.p) <= 1e-14
    assert abs(fast.residual - dense.residual) <= 1e-14
    assert np.abs(fast.state.matrix - dense.state.matrix).max() <= 1e-14
    assert fast.state.layout == dense.state.layout


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    rank_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, dims=[1, 1, 1, 1, 2, 2], rank_fraction=1.0, seed=1)
def test_filter_outcomes_of_every_pair_match_dense_filters(d, dims, rank_fraction, seed):
    """One stacked `filter_outcomes` over all key pairs of a spec gives each
    pair the outcome of the dense filter: success, p, residual and the
    post-filter state agree to 1e-13. `filter_outcomes` checks and measures
    the 2 x 2 corner block only, so the example with N = 6 (D = 256) holds
    it to the dense 64 x 64 outcome of `apply_filter`. Each record of
    `pair_bounds` holds the dense success and p to 1e-13, and its rates are
    success_sim (1 - H(p_sim)) and max(a1, a2) (1 - H(p_sim))."""
    assume(d ** len(dims) * int(np.prod(dims)) <= 512)
    rank = max(1, round(rank_fraction * int(np.prod(dims))))
    spec = random_spec(d, len(dims), tuple(dims), seed=seed, shield_rank=rank)
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    results = optimize_pairs(spec, pairs, restarts=2, seed=seed)
    try:
        filter_sets = [build_filters(spec, i, j, r) for (i, j), r in zip(pairs, results)]
    except FilterError:
        assume(False)
    state = build_private_state(spec)
    outcomes = filter_outcomes(spec, results)
    records = pair_bounds(spec, results)
    assert len(outcomes) == len(records) == len(pairs)
    for filters, fast, record in zip(filter_sets, outcomes, records):
        dense = apply_filter(state, filters)
        assert abs(fast.success - dense.success) <= 1e-13
        assert abs(fast.p - dense.p) <= 1e-13
        assert abs(fast.residual - dense.residual) <= 1e-13
        assert np.abs(fast.state.matrix - dense.state.matrix).max() <= 1e-13
        assert fast.state.layout == dense.state.layout
        assert abs(record.success_sim - dense.success) <= 1e-13
        assert abs(record.p_sim - dense.p) <= 1e-13
        rate = hashing_rate(record.p_sim)
        assert record.verified_rate == record.success_sim * rate
        assert record.paper_rate == max(record.a1, record.a2) * rate
