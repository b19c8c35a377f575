import numpy as np
import pytest

from privdistill.linalg import (
    LayoutError,
    factor_permutation,
    hermiticity_defect,
    kron_all,
    layout,
    partial_trace,
    permute_factors,
    von_neumann_entropy,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def test_kron_all_matches_repeated_kron():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(d, d)) + 0j for d in (2, 3, 2)]
    expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.array_equal(kron_all(mats), expected)
    assert np.array_equal(kron_all([mats[1]]), mats[1])
    # vectors, with signed zeros and real factors: the same bits as np.kron
    vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in (2, 3, 4)]
    vecs[1][1] = -0.0
    vecs.append(np.array([-1.0, 0.0, 2.5]))
    expected = np.kron(np.kron(np.kron(vecs[0], vecs[1]), vecs[2]), vecs[3] + 0j)
    assert np.array_equal(kron_all(vecs).view(np.int64), expected.view(np.int64))


def test_kron_all_keeps_vectors_flat():
    v = kron_all([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert v.shape == (4,)
    assert v[1] == 1.0


def test_kron_all_empty_rejected():
    with pytest.raises(ValueError):
        kron_all([])


def test_layout_validation():
    lay = layout([("K0", 2, 0, "key"), ("S0", 3, 0, "shield")])
    assert lay.total_dim == 6
    assert lay.dims == (2, 3)
    assert lay.index_of("S0") == 1
    with pytest.raises(LayoutError):
        layout([("A", 2, 0, "key"), ("A", 2, 1, "key")])
    with pytest.raises(LayoutError):
        layout([("A", 0, 0, "key")])
    with pytest.raises(LayoutError):
        layout([("A", 2, 0, "banana")])
    with pytest.raises(LayoutError):
        lay.index_of("missing")
    with pytest.raises(LayoutError):
        lay.check_matches(np.eye(5))


def test_partial_trace_of_product_state():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = random_hermitian(2, seed)
        a = a @ a.conj().T
        a /= np.trace(a)
        b = random_hermitian(3, seed + 100)
        b = b @ b.conj().T
        b /= np.trace(b)
        lay = layout([("A", 2, 0, "shield"), ("B", 3, 1, "shield")])
        full = np.kron(a, b)
        assert np.abs(partial_trace(full, lay, ["A"]) - a).max() < 1e-12
        assert np.abs(partial_trace(full, lay, ["B"]) - b).max() < 1e-12
        # keeping everything is the identity operation
        assert np.abs(partial_trace(full, lay, ["A", "B"]) - full).max() == 0.0


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    lay = layout([("A", 2, 0, "key"), ("B", 2, 1, "key")])
    reduced = partial_trace(np.outer(bell, bell.conj()), lay, ["A"])
    assert np.abs(reduced - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    lay = layout([("A", 2, 0, "key"), ("B", 3, 0, "shield"), ("C", 2, 1, "key")])
    reduced = partial_trace(m, lay, ["B"])
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_partial_trace_empty_keep_rejected():
    lay = layout([("A", 2, 0, "key")])
    with pytest.raises(LayoutError):
        partial_trace(np.eye(2), lay, [])


def test_hermiticity_defect_scale_invariant():
    m = np.array([[0.0, 1e-14], [0.0, 0.0]]) + np.eye(2)
    small = hermiticity_defect(m)
    assert small == hermiticity_defect(1e6 * m)


def test_entropy_uniform_and_pure():
    for d in (2, 3, 4, 5):
        assert abs(von_neumann_entropy(np.eye(d) / d) - np.log2(d)) < 1e-12
    pure = np.zeros((3, 3), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == 0.0


def test_entropy_clamps_tiny_negatives():
    rho = np.diag([1.0 + 5e-11, -5e-11])
    assert von_neumann_entropy(rho) >= 0.0
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.1, -0.1]))


def test_entropy_of_a_stack_matches_per_matrix_loop():
    rng = np.random.default_rng(21)
    g = rng.normal(size=(3, 4, 5, 5)) + 1j * rng.normal(size=(3, 4, 5, 5))
    stack = g @ g.conj().transpose(0, 1, 3, 2)
    stack /= np.trace(stack, axis1=2, axis2=3)[..., None, None]
    stack[1, 2] = np.diag([1.0, 0, 0, 0, 0])  # pure: entropy 0
    got = von_neumann_entropy(stack)
    assert got.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert abs(got[idx] - von_neumann_entropy(stack[idx])) <= 1e-14
    assert got[1, 2] == 0.0


def test_entropy_of_a_stack_rejects_one_negative_eigenvalue():
    stack = np.stack([np.eye(2) / 2, np.diag([1.0 + 5e-11, -5e-11]), np.diag([1.1, -0.1])])
    with pytest.raises(ValueError, match="below"):
        von_neumann_entropy(stack)
    assert (von_neumann_entropy(stack[:2]) >= 0.0).all()
    with pytest.raises(ValueError):
        von_neumann_entropy(np.stack([np.eye(2), np.full((2, 2), np.nan)]))


def test_factor_permutation_swaps_kron_order():
    rng = np.random.default_rng(11)
    for da, db in [(2, 3), (3, 4), (2, 2)]:
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        swapped = permute_factors(np.kron(a, b), [da, db], [1, 0])
        assert np.abs(swapped - np.kron(b, a)).max() < 1e-12


def test_factor_permutation_identity_and_errors():
    assert np.array_equal(factor_permutation([2, 3], [0, 1]), np.arange(6))
    with pytest.raises(ValueError):
        factor_permutation([2, 3], [0, 0])
    with pytest.raises(ValueError):
        permute_factors(np.eye(5), [2, 3], [1, 0])


def test_factor_permutation_three_factors():
    """Cycling three factors of a triple Kronecker product."""
    rng = np.random.default_rng(2)
    mats = [rng.normal(size=(d, d)) + 0j for d in (2, 3, 2)]
    full = kron_all(mats)
    cycled = permute_factors(full, [2, 3, 2], [2, 0, 1])
    expected = kron_all([mats[2], mats[0], mats[1]])
    assert np.abs(cycled - expected).max() < 1e-12
