"""Structure of assembled private states and their spectral decomposition."""

import mmap
import pickle
from dataclasses import replace

import numpy as np
import pytest
from conftest import BITWISE_BLAS
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privdistill.bounds import key_rate
from privdistill.linalg import layout
from privdistill.private_states import (
    PrivateStateSpec,
    build_private_state,
    depolarized_spec,
    eigenvectors_of_pdit,
    random_spec,
    repeated_key_index,
    tensor_power_spec,
    with_shield,
)
from privdistill.states import UNITARY_TOL, UnitaryOp, validate_state

SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)


def key_string_probabilities(state):
    """Probability of each joint key outcome string under standard-basis
    measurement of every key factor, indexed by the flat key index."""
    spec = state.spec
    diag = np.real(np.diagonal(state.rho.matrix))
    return diag.reshape(spec.d**spec.parties, spec.shield_total_dim).sum(axis=1)


def swap_shield_spec():
    """Two qubit shields in the maximally mixed state; U_1 swaps them."""
    shield = validate_state(
        np.eye(4) / 4, layout([("S0", 2, 0, "shield"), ("S1", 2, 1, "shield")])
    )
    return PrivateStateSpec(
        d=2,
        parties=2,
        shield_dims=(2, 2),
        unitaries=(UnitaryOp(np.eye(4, dtype=complex)), UnitaryOp(SWAP)),
        shield=shield,
    )


def test_repeated_key_index_positions():
    assert repeated_key_index(0, 2, 2) == 0
    assert repeated_key_index(1, 2, 2) == 3
    assert repeated_key_index(1, 3, 2) == 4
    assert repeated_key_index(2, 3, 2) == 8
    assert repeated_key_index(1, 2, 3) == 7


def test_swap_shield_state_blocks():
    state = build_private_state(swap_shield_spec())
    mat = state.rho.matrix
    assert mat.shape == (16, 16)
    assert abs(np.trace(mat) - 1) < 1e-14
    # diagonal key blocks are I/8, the off-diagonal one is SWAP/8; the
    # repeated key strings |00>, |11> sit at flat key indices 0 and 3
    blocks = mat.reshape(4, 4, 4, 4)
    assert np.abs(blocks[0, :, 0, :] - np.eye(4) / 8).max() < 1e-15
    assert np.abs(blocks[3, :, 3, :] - np.eye(4) / 8).max() < 1e-15
    assert np.abs(blocks[0, :, 3, :] - SWAP / 8).max() < 1e-15
    # no weight outside the repeated key strings
    probs = key_string_probabilities(state)
    assert np.allclose(probs, [0.5, 0.0, 0.0, 0.5])


def test_state_layout_orders_keys_before_shields():
    spec = random_spec(2, 3, (2, 3, 2), seed=0)
    lay = spec.state_layout()
    assert [f.label for f in lay.factors] == ["K0", "K1", "K2", "S0", "S1", "S2"]
    assert [f.role for f in lay.factors] == ["key"] * 3 + ["shield"] * 3
    assert [f.party for f in lay.factors] == [0, 1, 2, 0, 1, 2]
    assert lay.total_dim == build_private_state(spec).rho.dim


def test_built_state_is_valid_density_matrix():
    for seed, (d, n, dims) in enumerate(
        [(2, 2, (2, 2)), (3, 2, (2, 3)), (2, 3, (2, 2, 2)), (3, 3, (3, 2, 2))]
    ):
        state = build_private_state(random_spec(d, n, dims, seed=seed))
        assert state.rho.dim == d**n * int(np.prod(dims))
        validate_state(state.rho.matrix, state.rho.layout)


def test_eigenvector_lift_matches_direct_diagonalization():
    """Shield eigenpairs lift to state eigenpairs with the same eigenvalues."""
    for seed in range(4):
        spec = random_spec(2, 2, (2, 3), seed=seed)
        state = build_private_state(spec)
        pairs = eigenvectors_of_pdit(spec)
        assert len(pairs) == 6  # full-rank shield
        for lam, psi in pairs:
            assert abs(np.linalg.norm(psi) - 1) < 1e-12
            residual = np.linalg.norm(state.rho.matrix @ psi - lam * psi)
            assert residual < 1e-10
        lifted = sorted(lam for lam, _ in pairs)
        assert [lam for lam, _ in pairs] == lifted[::-1]  # largest first
        direct = np.linalg.eigvalsh(state.rho.matrix)
        direct_nonzero = sorted(v for v in direct if v > 1e-12)
        assert np.allclose(lifted, direct_nonzero, atol=1e-10)
        assert abs(sum(lifted) - 1) < 1e-10


def test_eigenvectors_are_orthonormal():
    spec = random_spec(3, 2, (2, 2), seed=5)
    vecs = np.array([psi for _, psi in eigenvectors_of_pdit(spec)])
    gram = vecs.conj() @ vecs.T
    assert np.abs(gram - np.eye(len(vecs))).max() < 1e-10


def test_eigenvectors_skip_null_directions():
    spec = random_spec(2, 2, (2, 2), seed=1, shield_rank=2)
    assert len(eigenvectors_of_pdit(spec)) == 2


def test_eigenvectors_multipartite_flag():
    """The lift needs no opt-in flag: it holds for three parties too."""
    spec = random_spec(2, 3, (2, 2, 2), seed=2)
    pairs = eigenvectors_of_pdit(spec)
    assert len(pairs) == 8
    state = build_private_state(spec)
    for lam, psi in pairs:
        assert np.linalg.norm(state.rho.matrix @ psi - lam * psi) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 3),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_power_matches_permuted_plain_power(d, dims, seed):
    """The state of the second power is the Kronecker square of the state
    with rows and columns permuted, to 1e-13 entrywise, and its key rate
    is 2 log2 d. The square is compared a block of rows at a time, which
    bounds the memory at D = 4096."""
    dims = tuple(dims)
    size = d ** len(dims) * int(np.prod(dims))
    assume(size**2 <= 4096)
    spec = random_spec(d, len(dims), dims, seed=seed)
    rho = build_private_state(spec).rho.matrix
    power_spec, perm = tensor_power_spec(spec, 2)
    assert power_spec.d == d**2
    assert power_spec.shield_dims == tuple(s * s for s in dims)
    built = build_private_state(power_spec).rho.matrix
    for lo in range(0, perm.size, 256):
        rows = perm[lo : lo + 256]  # rows of np.kron(rho, rho)[np.ix_(perm, perm)]
        plain = rho[np.ix_(rows // size, perm // size)] * rho[np.ix_(rows % size, perm % size)]
        assert np.abs(built[lo : lo + 256] - plain).max() <= 1e-13
    assert key_rate(power_spec) == 2 * np.log2(d)


def test_tensor_power_identity_and_cap():
    spec = random_spec(2, 2, (2, 2), seed=0)
    same, perm = tensor_power_spec(spec, 1)
    assert same is spec
    assert np.array_equal(perm, np.arange(spec.total_dim))
    # the cap is on the dense state, not on the power's generating data
    power_spec, _ = tensor_power_spec(spec, 4)
    with pytest.raises(ValueError, match="exceeds cap 4096"):
        build_private_state(power_spec)  # 16**4 = 65536 > 4096
    with pytest.raises(ValueError):
        tensor_power_spec(spec, 0)


def test_third_power_of_a_qutrit_spec_has_no_cap():
    """d=3, shields (2,2): the third power has D = 46656, far above the
    dense cap, yet its generating data are small and exact."""
    spec = random_spec(3, 2, (2, 2), seed=5)
    power_spec, perm = tensor_power_spec(spec, 3)
    assert power_spec.d == 27
    assert power_spec.shield_dims == (8, 8)
    assert power_spec.total_dim == perm.size == 46656
    u = power_spec.unitaries[26].matrix  # digits (2, 2, 2)
    assert np.abs(u.conj().T @ u - np.eye(64)).max() < 1e-12
    with pytest.raises(ValueError, match="dense state dimension 46656 exceeds cap 4096"):
        build_private_state(power_spec)


def test_tensor_power_unitaries_are_unitary():
    spec = random_spec(2, 2, (2, 2), seed=3)
    power_spec, _ = tensor_power_spec(spec, 2)
    for u in power_spec.unitaries:
        assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(u.dim)).max() < 1e-12


def scaled_unitaries(spec, factor, tol=UNITARY_TOL):
    return replace(spec, unitaries=tuple(
        UnitaryOp(u.matrix * factor, tol=tol) for u in spec.unitaries
    ))


def test_tensor_power_of_unitaries_within_tolerance():
    """Unitaries scaled by 1 + 2e-11 pass at defect 8e-11 <= 1e-10, and
    their Kronecker squares have defect up to 3.2e-10. The square is checked
    against the bound its factors' tolerance implies, (2 + 1e-10)^2 - 4 =
    4e-10 for s = 4, not against 1e-10, which refused it."""
    spec = scaled_unitaries(random_spec(2, 2, (2, 2), seed=11), 1 + 2e-11)
    power_spec, _ = tensor_power_spec(spec, 2)
    defects = [np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(16))
               for u in power_spec.unitaries]
    assert UNITARY_TOL < max(defects) <= 4e-10


def test_tensor_power_refuses_unitaries_above_the_propagated_bound():
    """Factors accepted at a looser tolerance (defect 4e-10) give power
    unitaries above the bound for factors within UNITARY_TOL, so the power
    is still refused."""
    spec = scaled_unitaries(random_spec(2, 2, (2, 2), seed=11), 1 + 1e-10, tol=1e-9)
    with pytest.raises(ValueError, match=r"not unitary \(defect .* > 4e-10\)"):
        tensor_power_spec(spec, 2)


def test_random_spec_determinism_and_rank():
    a = random_spec(2, 2, (2, 2), seed=7)
    b = random_spec(2, 2, (2, 2), seed=7)
    assert np.array_equal(a.shield.matrix, b.shield.matrix)
    for ua, ub in zip(a.unitaries, b.unitaries):
        assert np.array_equal(ua.matrix, ub.matrix)
    low = random_spec(2, 2, (2, 2), seed=7, shield_rank=1)
    vals = np.linalg.eigvalsh(low.shield.matrix)
    assert (vals > 1e-12).sum() == 1


def test_with_shield_and_depolarized_spec():
    spec = random_spec(2, 2, (2, 2), seed=4)
    s = spec.shield_total_dim
    same = depolarized_spec(spec, 0.0)
    assert np.abs(same.shield.matrix - spec.shield.matrix).max() < 1e-15
    flat = depolarized_spec(spec, 1.0)
    assert np.abs(flat.shield.matrix - np.eye(s) / s).max() < 1e-15
    with pytest.raises(ValueError):
        depolarized_spec(spec, 1.5)
    replaced = with_shield(spec, np.eye(s) / s)
    assert replaced.unitaries is spec.unitaries


def test_spec_validation_errors():
    good = random_spec(2, 2, (2, 2), seed=0)
    with pytest.raises(ValueError):
        PrivateStateSpec(d=1, parties=2, shield_dims=(2, 2),
                         unitaries=good.unitaries, shield=good.shield)
    with pytest.raises(ValueError):
        PrivateStateSpec(d=2, parties=1, shield_dims=(2,),
                         unitaries=good.unitaries, shield=good.shield)
    with pytest.raises(ValueError):
        PrivateStateSpec(d=2, parties=2, shield_dims=(2,),
                         unitaries=good.unitaries, shield=good.shield)
    with pytest.raises(ValueError):
        PrivateStateSpec(d=2, parties=2, shield_dims=(2, 2),
                         unitaries=good.unitaries[:1], shield=good.shield)
    small = random_spec(2, 2, (2, 3), seed=1)
    with pytest.raises(ValueError):
        PrivateStateSpec(d=2, parties=2, shield_dims=(2, 2),
                         unitaries=small.unitaries, shield=small.shield)


@st.composite
def spec_shapes(draw):
    """(d, parties, shield_dims, shield_rank) with total dimension <= 512."""
    d = draw(st.integers(2, 4))
    parties = draw(st.integers(2, 4))
    dims = []
    for _ in range(parties):
        room = 512 // (d**parties * int(np.prod(dims, dtype=int)))
        dims.append(draw(st.integers(1, max(1, min(3, room)))))
    assume(d**parties * int(np.prod(dims)) <= 512)
    rank = draw(st.integers(1, int(np.prod(dims))))
    return d, parties, tuple(dims), rank


@settings(max_examples=30, deadline=None)
@given(shape=spec_shapes(), seed=st.integers(0, 2**32 - 1))
def test_built_state_spectrum_is_the_shields(shape, seed):
    """The build runs no dense check, so its output must pass one: the state
    is a valid density matrix whose spectrum is the shield's plus zeros."""
    d, parties, dims, rank = shape
    spec = random_spec(d, parties, dims, seed=seed, shield_rank=rank)
    state = build_private_state(spec)
    validate_state(state.rho.matrix, state.rho.layout)
    got = np.linalg.eigvalsh(state.rho.matrix)
    shield = np.linalg.eigvalsh(spec.shield.matrix)
    want = np.sort(np.concatenate([shield, np.zeros(spec.total_dim - shield.size)]))
    assert np.abs(got - want).max() <= 1e-12


def blockwise_state(spec):
    """The private state assembled one key block at a time into np.zeros."""
    d, n, s = spec.d, spec.parties, spec.shield_total_dim
    rho = np.zeros((spec.total_dim, spec.total_dim), dtype=complex)
    shield = spec.shield.matrix
    for i, ui in enumerate(spec.unitaries):
        for j, uj in enumerate(spec.unitaries):
            a, b = repeated_key_index(i, d, n) * s, repeated_key_index(j, d, n) * s
            rho[a : a + s, b : b + s] = ui.matrix @ shield @ uj.matrix.conj().T / d
    return rho


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_build_is_the_blockwise_assembly_on_both_allocations(d, dims, seed):
    """The built matrix equals the block-by-block assembly into np.zeros,
    bit for bit on a BLAS where that was checked (`BITWISE_BLAS`) and to
    1e-15 elsewhere; it is exactly zero off the d^2 key blocks, writable,
    C-contiguous and unchanged by a pickle round trip. All of this holds for
    the zero-on-demand map and for the np.zeros fallback of platforms
    without mmap.MAP_PRIVATE."""
    dims = tuple(dims)
    spec = random_spec(d, len(dims), dims, seed=seed)
    assume(spec.total_dim <= 1296)
    want = blockwise_state(spec)
    key = np.zeros(d ** len(dims), dtype=bool)
    key[repeated_key_index(np.arange(d), d, len(dims))] = True
    rows = np.repeat(key, spec.shield_total_dim)
    outside = ~np.outer(rows, rows)
    for mapped in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not mapped:
                mp.delattr(mmap, "MAP_PRIVATE")
            rho = build_private_state(spec).rho.matrix
        root = rho
        while isinstance(root, np.ndarray):
            root = root.base  # the fallback's matrix owns its memory: None
        assert isinstance(getattr(root, "obj", None), mmap.mmap) == mapped
        if BITWISE_BLAS:
            assert rho.tobytes() == want.tobytes()
        else:
            assert np.abs(rho - want).max() <= 1e-15
        assert not np.any(rho[outside])
        assert rho.flags.writeable and rho.flags.c_contiguous
        assert rho.dtype == complex and rho.shape == want.shape
        assert pickle.loads(pickle.dumps(rho)).tobytes() == rho.tobytes()
