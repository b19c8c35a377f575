import contextlib
import dataclasses
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from privdistill import serialize
from privdistill.bounds import ed_lower_bound, ef_certificate
from privdistill.linalg import layout
from privdistill.private_states import (
    PrivateStateSpec,
    build_private_state,
    random_spec,
    with_shield,
)
from privdistill.serialize import (
    dumps,
    matrix_from_json,
    matrix_to_json,
    read_json,
    report_to_json,
    spec_from_json,
    spec_to_json,
    state_to_json,
    write_json,
    write_matrix,
    write_spec,
)
from privdistill.states import StateValidationError, UnitaryOp, validate_state


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back, lay = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert lay is None
    assert np.array_equal(back, m)  # repr round-trip keeps every bit


def state_from_json(obj):
    mat, lay = matrix_from_json(obj)
    return validate_state(mat, lay)


def test_state_round_trip_keeps_layout():
    state = build_private_state(random_spec(2, 2, (2, 3), seed=1)).rho
    back = state_from_json(json.loads(json.dumps(state_to_json(state))))
    assert np.array_equal(back.matrix, state.matrix)
    assert back.layout == state.layout


def test_spec_round_trip():
    spec = random_spec(3, 2, (2, 3), seed=4)
    back = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert back.d == spec.d
    assert back.parties == spec.parties
    assert back.shield_dims == spec.shield_dims
    assert np.array_equal(back.shield.matrix, spec.shield.matrix)
    for ua, ub in zip(back.unitaries, spec.unitaries):
        assert np.array_equal(ua.matrix, ub.matrix)


def _bits(mat):
    return np.ascontiguousarray(mat).view(np.int64)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 3),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    phases=st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=3, max_size=3),
)
def test_spec_json_round_trip_is_bit_exact(d, dims, seed, phases):
    """Every entry comes back with the same bits, signed zeros included.

    The unitaries are signed permutations, whose zero entries carry both
    signs in both parts, and the shield's diagonal has negative-zero
    imaginary parts.
    """
    spec = random_spec(d, len(dims), dims, seed=seed)
    s = spec.shield_total_dim
    rng = np.random.default_rng(seed)
    perms = [np.eye(s, dtype=complex)[rng.permutation(s)] for _ in range(d)]
    unitaries = tuple(UnitaryOp(phases[k] * perms[k]) for k in range(d))
    shield = spec.shield.matrix.copy()
    np.fill_diagonal(shield.imag, -0.0)
    spec = with_shield(
        dataclasses.replace(spec, unitaries=unitaries), shield
    )
    back = spec_from_json(json.loads(dumps(spec_to_json(spec))))
    assert (back.d, back.parties, back.shield_dims) == (spec.d, spec.parties, spec.shield_dims)
    assert np.array_equal(_bits(back.shield.matrix), _bits(spec.shield.matrix))
    for ua, ub in zip(back.unitaries, spec.unitaries):
        assert np.array_equal(_bits(ua.matrix), _bits(ub.matrix))
    assert np.signbit(back.shield.matrix.diagonal().imag).all()


def test_spec_from_json_revalidates():
    obj = spec_to_json(random_spec(2, 2, (2, 2), seed=0))
    corrupt = json.loads(json.dumps(obj))
    corrupt["unitaries"][0]["data"][0] = [2.0, 0.0]
    with pytest.raises(ValueError):
        spec_from_json(corrupt)

    corrupt = json.loads(json.dumps(obj))
    corrupt["shield"]["data"][0] = [1.5, 0.0]
    with pytest.raises(StateValidationError):
        spec_from_json(corrupt)


def test_matrix_from_json_checks_length():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


def test_dumps_is_sorted_and_newline_terminated():
    text = dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert dumps({"a": 2, "b": 1}) == text


def test_reports_serialize_without_numpy_leakage():
    spec = random_spec(2, 2, (2, 2), seed=2)
    bound = report_to_json(ed_lower_bound(spec, restarts=4, seed=0))
    cert = report_to_json(ef_certificate(spec, samples=5, seed=0))
    # json.dumps raises TypeError on any stray numpy scalar
    round_trip = json.loads(dumps(bound))
    assert round_trip["best_pair"] == [0, 1]
    assert json.loads(dumps(cert))["passed"] is True


def test_write_json_file_and_stdout(tmp_path, capsys):
    path = tmp_path / "out.json"
    write_json({"x": 1}, str(path))
    assert read_json(str(path)) == {"x": 1}
    write_json({"x": 1}, "-")
    assert json.loads(capsys.readouterr().out) == {"x": 1}


def test_float_repr_survives_round_trip():
    vals = [0.1, 1 / 3, np.pi, 2**-52, 1e300]
    obj = matrix_to_json(np.array([vals], dtype=complex))
    back, _ = matrix_from_json(json.loads(json.dumps(obj)))
    assert [z.real for z in back[0]] == vals


EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300,
               1e16, 0.1, 1 / 3]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    values=st.lists(
        st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=72, max_size=72,
    ),
    with_layout=st.booleans(),
    block=st.integers(1, 40),
)
def test_write_matrix_bytes_equal_the_indent_encoder(shape, values, with_layout, block):
    """Signed zeros, subnormals, 1e+-300 and integral floats are written as
    json writes them, for any number of rows per block."""
    rows, cols = shape
    mat = np.array(values[: 2 * rows * cols]).view(complex).reshape(rows, cols)
    lay = layout([("K0", 2, 0, "key"), ("S0", 3, 0, "shield")]) if with_layout else None
    out = io.StringIO()
    with mock.patch.object(serialize, "WRITE_BLOCK", block), contextlib.redirect_stdout(out):
        write_matrix(mat, lay, "-")
    assert out.getvalue() == dumps(matrix_to_json(mat, lay))


def test_write_matrix_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        write_matrix(np.array([[np.nan]]), None, str(path))
    assert not path.exists()
    with pytest.raises(ValueError):
        write_json({"m": {"data": np.array([[1.0, complex(0.0, np.nan)]])}}, str(path))
    assert not path.exists()


@pytest.mark.parametrize("obj", [
    {"rows": 1, "cols": 1, "x": np.eye(1)},
    {"data": [np.eye(1)]},
    [np.eye(1)],
    {"a": {"data": [0]}, "b": np.eye(1)},
    {"a": {"data": np.eye(1)}, "b": {"data": "\x000"}},  # a plain string like a placeholder
    {"a": {"data": np.eye(1)}, "b": "\\u0000"},
])
def test_write_json_refuses_an_ndarray_outside_a_data_slot(tmp_path, obj):
    """A stray ndarray would be written as its placeholder string, and a
    string that reads as one would take a matrix; the writer refuses both
    before the file is opened."""
    path = tmp_path / "stray.json"
    with pytest.raises(ValueError, match="data"):
        write_json(obj, str(path))
    assert not path.exists()


def test_write_json_streams_matrices_at_two_depths_as_dumps_writes_them(tmp_path):
    """Matrices given as ndarrays, one in a matrix object and two in a list
    a level deeper, come out in the bytes of `dumps` of the plain-list
    form; a plain `"data": [0]`, before or after them, is no placeholder."""
    rng = np.random.default_rng(7)
    mats = [rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
            for r, c in [(3, 3), (2, 1), (1, 4)]]
    mats[0][1:, :] = 0.0
    lay = layout([("K0", 3, 0, "key")])

    def obj(matrix):
        return {"a": {"data": [0]}, "state": matrix(mats[0], lay), "tol": 0.5,
                "ops": [matrix(mats[1], None), matrix(mats[2], None)], "z": {"data": [1]}}

    path = tmp_path / "two_depths.json"
    write_json(obj(lambda m, lay: {**matrix_to_json(m, lay), "data": m}), str(path))
    assert path.read_text() == dumps(obj(matrix_to_json))
    write_json({"plain": {"data": [0]}}, str(path))
    assert path.read_text() == dumps({"plain": {"data": [0]}})


ZERO_PAIRS = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)]


@settings(max_examples=80, deadline=None)
@given(
    cols=st.integers(1, 9),
    runs=st.lists(
        st.tuples(
            st.integers(1, 30),
            st.one_of(
                st.sampled_from(ZERO_PAIRS),
                st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGE_FLOATS)),
            ),
        ),
        min_size=1, max_size=12,
    ),
    block=st.integers(1, 40),
)
@example(cols=1, runs=[(1, (0.0, 0.0))], block=1)
@example(cols=3, runs=[(15, (0.0, 0.0))], block=2)
@example(cols=7, runs=[(49, (0.0, 0.0))], block=1 << 15)
def test_write_matrix_zero_runs_equal_the_indent_encoder(cols, runs, block):
    """Runs of +0.0 entries, beside entries with one -0.0 part, written
    with rows per block such that runs straddle block edges; the examples
    are all-zero matrices."""
    flat = [pair for n, pair in runs for _ in range(n)]
    rows = -(-len(flat) // cols)
    flat += [(0.0, 0.0)] * (rows * cols - len(flat))
    mat = np.array(flat).view(complex).reshape(rows, cols)
    out = io.StringIO()
    with mock.patch.object(serialize, "WRITE_BLOCK", block), contextlib.redirect_stdout(out):
        write_matrix(mat, None, "-")
    assert out.getvalue() == dumps(matrix_to_json(mat))


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 2), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 40),
)
def test_write_matrix_of_private_states_equals_the_indent_encoder(d, dims, seed, block):
    """A private state is mostly +0.0 outside its d^2 key blocks."""
    assume(d ** len(dims) * np.prod(dims) <= 128)
    rho = build_private_state(random_spec(d, len(dims), dims, seed=seed)).rho
    out = io.StringIO()
    with mock.patch.object(serialize, "WRITE_BLOCK", block), contextlib.redirect_stdout(out):
        write_matrix(rho.matrix, rho.layout, "-")
    assert out.getvalue() == dumps(state_to_json(rho))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        dumps({"tol": value})


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("rows,cols", [(0, 0), (1, 1), (3, 2), (5, 4)])
def test_data_text_at_every_depth_equals_the_indent_encoder(depth, rows, cols):
    """The data list, nested `depth` lists deep, is laid out as json lays
    out a nested value: each line after the first indented 2 * depth more;
    a block of 3 entries makes block edges fall inside the matrix."""
    rng = np.random.default_rng(depth + rows)
    mat = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    mat[:, -1:] = 0.0  # a +0.0 run in every row
    if mat.size:
        mat[0, 0] = complex(-0.0, 0.0)
    pairs = mat.view(float).reshape(-1, 2).tolist()
    expected = json.dumps(pairs, indent=2).replace("\n", "\n" + "  " * depth)
    with mock.patch.object(serialize, "WRITE_BLOCK", 3):
        text = "".join(serialize._data_text(mat, 2 * (depth + 1)))
    assert text == expected


def _two_qubit_spec(shield, u1):
    lay = layout([("S0", 2, 0, "shield"), ("S1", 2, 1, "shield")])
    return PrivateStateSpec(
        d=2, parties=2, shield_dims=(2, 2),
        unitaries=(UnitaryOp(np.eye(4, dtype=complex)), UnitaryOp(u1)),
        shield=validate_state(shield, lay),
    )


def _bell_shield_spec():
    """Bell shield twisted by Z on party 0: kron(diag(1, -1), I) has -0.0
    real parts, which must go through `%r`, not the +0.0 run."""
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    z_i = np.kron(np.diag([1.0, -1.0]).astype(complex), np.eye(2))
    assert np.signbit(z_i.real[z_i.real == 0]).any()
    return _two_qubit_spec(np.outer(bell, bell.conj()), z_i)


def _one_entry_spec():
    """Shield |00><00| with identity unitaries: mostly exact-zero runs."""
    return _two_qubit_spec(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), np.eye(4, dtype=complex))


@st.composite
def random_specs(draw):
    d = draw(st.integers(2, 4))
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    rank = draw(st.integers(1, int(np.prod(dims))))
    return random_spec(d, len(dims), dims, seed=draw(st.integers(0, 2**32 - 1)), shield_rank=rank)


@settings(max_examples=25, deadline=None)
@given(spec=random_specs(), block=st.sampled_from([1, 3, 16, 1 << 15]))
@example(spec=_bell_shield_spec(), block=1)
@example(spec=_bell_shield_spec(), block=1 << 15)
@example(spec=_one_entry_spec(), block=3)
@example(spec=_one_entry_spec(), block=1 << 15)
@example(spec=random_spec(2, 2, (1, 3), seed=5), block=2)
@example(spec=random_spec(3, 3, (1, 1, 1), seed=6), block=1)
def test_write_spec_bytes_equal_the_indent_encoder(spec, block):
    """Each matrix of a spec sits at its own depth (the shield two lists
    deep, each unitary three), and all come out as json writes them."""
    out = io.StringIO()
    with mock.patch.object(serialize, "WRITE_BLOCK", block), contextlib.redirect_stdout(out):
        write_spec(spec, "-")
    assert out.getvalue() == dumps(spec_to_json(spec))


def test_read_json_refuses_deep_nesting_as_a_value_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError, match="nested too deeply"):
        read_json(str(path))
