import numpy as np
import pytest

from privdistill.linalg import layout
from privdistill.states import (
    StateValidationError,
    UnitaryOp,
    bell_vector,
    check_states,
    random_density,
    random_unitary,
    validate_state,
    validate_unitary,
)


def test_validate_state_accepts_maximally_mixed():
    for d in (1, 2, 5):
        dm = validate_state(np.eye(d) / d)
        assert dm.dim == d
        assert dm.layout.total_dim == d


def test_validate_state_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(StateValidationError) as err:
        validate_state(bad)
    names = [name for name, _ in err.value.violations]
    assert "hermiticity" in names


def test_validate_state_rejects_negative_and_traceless():
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(StateValidationError) as err:
        validate_state(bad)
    names = {name for name, _ in err.value.violations}
    assert "positivity" in names
    # trace is still 1 here, so no trace violation
    assert "unit trace" not in names

    with pytest.raises(StateValidationError) as err:
        validate_state(np.eye(2, dtype=complex))
    names = {name for name, _ in err.value.violations}
    assert names == {"unit trace"}


def test_validate_state_reports_all_violations_at_once():
    bad = np.array([[2.0, 1.0], [0.0, -0.5]], dtype=complex)
    with pytest.raises(StateValidationError) as err:
        validate_state(bad)
    assert len(err.value.violations) == 3
    assert "violated by" in str(err.value)


def test_validate_state_layout_mismatch():
    lay = layout([("A", 3, 0, "shield")])
    with pytest.raises(Exception):
        validate_state(np.eye(2) / 2, lay)


def test_random_unitary_is_unitary_and_deterministic():
    for dim in (1, 2, 3, 6):
        for seed in range(4):
            u = random_unitary(dim, seed).matrix
            defect = np.linalg.norm(u.conj().T @ u - np.eye(dim))
            assert defect < 1e-10
    again = random_unitary(6, 3).matrix
    assert np.array_equal(again, random_unitary(6, 3).matrix)
    assert np.abs(random_unitary(6, 4).matrix - again).max() > 1e-3


def test_random_unitary_rejects_bad_dim():
    with pytest.raises(ValueError):
        random_unitary(0, 1)


def test_random_density_rank_and_determinism():
    for seed in range(4):
        dm = random_density(6, 2, seed)
        vals = np.linalg.eigvalsh(dm.matrix)
        assert (vals > 1e-12).sum() == 2
        assert abs(np.trace(dm.matrix) - 1) < 1e-12
    assert np.array_equal(random_density(4, 4, 9).matrix, random_density(4, 4, 9).matrix)


def test_random_density_rank_bounds():
    with pytest.raises(ValueError):
        random_density(4, 0, 1)
    with pytest.raises(ValueError):
        random_density(4, 5, 1)


def test_validate_unitary():
    u = random_unitary(4, 0).matrix
    assert validate_unitary(u).dim == 4
    with pytest.raises(ValueError):
        validate_unitary(1.1 * u)
    with pytest.raises(ValueError):
        validate_unitary(np.ones((2, 3)))


def test_non_unitary_op_raises_at_construction():
    UnitaryOp(np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryOp(2 * np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryOp(np.full((2, 2), np.nan, dtype=complex))
    with pytest.raises(ValueError, match="square"):
        UnitaryOp(np.eye(2, 3, dtype=complex))


def test_bell_vector_qubit_oracle():
    plus = bell_vector(+1, 0, 1, 2, 2)
    minus = bell_vector(-1, 0, 1, 2, 2)
    r = 1 / np.sqrt(2)
    assert np.allclose(plus, [r, 0, 0, r])
    assert np.allclose(minus, [r, 0, 0, -r])
    assert abs(np.vdot(plus, minus)) < 1e-15
    assert abs(np.linalg.norm(plus) - 1) < 1e-15


def test_bell_vector_higher_dimension_positions():
    # |1...1> in three qutrits sits at flat index 1*(9+3+1) = 13
    v = bell_vector(+1, 1, 2, 3, 3)
    assert v[13] != 0
    assert v[26] != 0
    assert np.count_nonzero(v) == 2


def test_bell_vector_argument_checks():
    with pytest.raises(ValueError):
        bell_vector(0, 0, 1, 2, 2)
    with pytest.raises(ValueError):
        bell_vector(+1, 0, 0, 2, 2)
    with pytest.raises(ValueError):
        bell_vector(+1, 0, 2, 2, 2)


@pytest.mark.parametrize("bad, name", [
    (np.diag([1.5, -0.5]), "positivity"),
    (np.eye(2) * 0.6, "unit trace"),
    (np.array([[0.5, 0.3], [0.0, 0.5]]), "hermiticity"),
])
def test_check_states_refuses_any_bad_member_of_a_stack(bad, name):
    """A stack passes only if every member is a density matrix; the error
    names the invariant the bad member breaks, wherever it sits."""
    good = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    check_states(np.array([good, np.eye(2) / 2, good]))
    for at in range(3):
        stack = np.array([good, np.eye(2) / 2, good], dtype=complex)
        stack[at] = bad
        with pytest.raises(StateValidationError) as err:
            check_states(stack)
        assert [n for n, _ in err.value.violations] == [name]
    stack = np.array([good, good], dtype=complex)
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        check_states(stack)
