"""JSON interchange for matrices, layouts, specs, and reports.

Complex matrices are stored row-major as [re, im] pairs. Output is always
`json.dumps(obj, sort_keys=True, indent=2)` so that identical inputs give
byte-identical files; nothing time- or host-dependent is ever embedded.
Every file, report, state or spec, is written by `write_json`. A matrix
object may hold its ndarray itself as "data" (`write_matrix`, `write_spec`):
json's `default` hook lays out a placeholder string there, and the [re, im]
pairs are streamed into its place a block of rows at a time, without the
indent encoder, in the bytes of `dumps` of the plain-list object.

Sizes read from JSON (dimensions, row and column counts, party indices)
must be JSON integers: a string, a float or a bool raises ValueError rather
than being cast.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from numbers import Integral
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .linalg import Factor, SubsystemLayout, as_complex
from .private_states import PrivateStateSpec, shield_layout
from .states import DensityMatrix, validate_state, validate_unitary


# Entries per block of rows that `_data_text` formats at once; bounds the
# text held in memory while a large matrix is written.
WRITE_BLOCK = 1 << 15

# A placeholder, the string "\0k" (k: the matrix's index), as `dumps` lays
# it out as a "data" value at any depth; group 1 is the key's indent.
_SLOT = re.compile(r'^( *)"data": ("\\u0000(\d+)")', re.M)


def _size(value: Any, what: str) -> int:
    """A size or index read from JSON; only integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def layout_to_json(lay: SubsystemLayout) -> list[dict[str, Any]]:
    return [
        {"label": f.label, "dim": f.dim, "party": f.party, "role": f.role}
        for f in lay.factors
    ]


def layout_from_json(obj: list[dict[str, Any]]) -> SubsystemLayout:
    return SubsystemLayout(
        factors=tuple(
            Factor(
                label=str(f["label"]),
                dim=_size(f["dim"], "layout dim"),
                party=_size(f["party"], "layout party"),
                role=str(f["role"]),
            )
            for f in obj
        )
    )


def _matrix_obj(
    mat: np.ndarray, lay: SubsystemLayout | None, data: list | np.ndarray
) -> dict[str, Any]:
    out: dict[str, Any] = {"rows": mat.shape[0], "cols": mat.shape[1], "data": data}
    if lay is not None:
        out["layout"] = layout_to_json(lay)
    return out


def matrix_to_json(
    mat: np.ndarray, lay: SubsystemLayout | None = None
) -> dict[str, Any]:
    mat = np.ascontiguousarray(mat, dtype=complex)
    return _matrix_obj(mat, lay, mat.view(float).reshape(-1, 2).tolist())


def _data_text(mat: np.ndarray, indent: int) -> Iterator[str]:
    """`dumps`' text of `mat`'s [re, im] pairs as a list whose entries sit
    `indent` spaces in, in pieces, a block of rows at a time.

    Within a block, each run of entries that are exactly +0.0 + 0.0j (most
    of a private state's entries) is one piece, one repeated string, and
    each run of other entries is one piece, one `%` template.
    """
    if mat.size == 0:
        yield "[]"
        return
    pad, inner = "\n" + " " * indent, "\n" + " " * (indent + 2)
    # `%r` of a float is `float.__repr__`, which is how json writes finite floats
    entry = f",{pad}[{inner}%r,{inner}%r{pad}]"
    zero_entry = entry % (0.0, 0.0)
    yield "["
    step = max(1, WRITE_BLOCK // mat.shape[1])
    for start in range(0, mat.shape[0], step):
        block = mat[start : start + step].ravel()
        # +0.0 has all bits clear; -0.0 does not, so it is formatted by `%r`
        zero = (block.view(np.uint64).reshape(-1, 2) == 0).all(axis=1)
        edges = [0, *(np.flatnonzero(zero[1:] != zero[:-1]) + 1).tolist(), zero.size]
        flat = block[~zero].view(float).tolist()
        at = 0
        for lo, hi in zip(edges, edges[1:]):
            if zero[lo]:
                text = zero_entry * (hi - lo)
            else:
                end = at + 2 * (hi - lo)
                text = entry * (hi - lo) % tuple(flat[at:end])
                at = end
            yield text[1:] if start == lo == 0 else text  # no comma before the first
    yield pad[:-2] + "]"


def _spliced(text: str, mats: list[np.ndarray]) -> Iterator[str]:
    """`text` with each placeholder data list replaced by its matrix's."""
    at = 0
    for slot in _SLOT.finditer(text):
        yield text[at : slot.start(2)]
        yield from _data_text(mats[int(slot[3])], len(slot[1]) + 2)
        at = slot.end(2)
    yield text[at:]


def write_matrix(
    mat: np.ndarray, lay: SubsystemLayout | None, path: str | None
) -> None:
    """Write `dumps(matrix_to_json(mat, lay))` to a file or stdout, in the
    same bytes but a block of rows at a time, so memory stays near the
    matrix's own size."""
    write_json(_matrix_obj(mat, lay, mat), path)


def matrix_from_json(obj: dict[str, Any]) -> tuple[np.ndarray, SubsystemLayout | None]:
    """Inverse of `matrix_to_json`; every bit of every entry survives."""
    rows, cols = _size(obj["rows"], "rows"), _size(obj["cols"], "cols")
    pairs = np.array(obj["data"])
    if pairs.dtype.kind not in "biuf":
        raise ValueError("matrix data must be [re, im] pairs of numbers")
    if pairs.shape != (rows * cols, 2):
        raise ValueError(
            f"matrix data has shape {pairs.shape}, expected ({rows * cols}, 2)"
        )
    lay = layout_from_json(obj["layout"]) if "layout" in obj else None
    return pairs.astype(float, copy=False).view(complex).reshape(rows, cols), lay


def state_to_json(state: DensityMatrix) -> dict[str, Any]:
    return matrix_to_json(state.matrix, state.layout)


def _spec_obj(
    spec: PrivateStateSpec, matrix: Callable[[np.ndarray], dict[str, Any]]
) -> dict[str, Any]:
    return {
        "d": spec.d,
        "parties": spec.parties,
        "shield_dims": list(spec.shield_dims),
        "unitaries": [matrix(u.matrix) for u in spec.unitaries],
        "shield": matrix(spec.shield.matrix),
    }


def spec_to_json(spec: PrivateStateSpec) -> dict[str, Any]:
    return _spec_obj(spec, matrix_to_json)


def write_spec(spec: PrivateStateSpec, path: str | None) -> None:
    """Write `dumps(spec_to_json(spec))` to a file or stdout, in the same
    bytes but with each matrix streamed as `write_matrix` streams a state."""
    write_json(_spec_obj(spec, lambda mat: _matrix_obj(mat, None, mat)), path)


def spec_from_json(obj: dict[str, Any]) -> PrivateStateSpec:
    """Rebuild a spec, re-validating the shield state and every unitary.

    Input of the wrong structure (say a number where a list belongs), a
    missing key or an infinite size raises ValueError, like input of the
    right structure with bad values.
    """
    try:
        dims = tuple(_size(x, "shield dim") for x in obj["shield_dims"])
        shield_mat, _ = matrix_from_json(obj["shield"])
        shield = validate_state(shield_mat, shield_layout(dims))
        unitaries = tuple(
            validate_unitary(matrix_from_json(u)[0]) for u in obj["unitaries"]
        )
        return PrivateStateSpec(
            d=_size(obj["d"], "d"),
            parties=_size(obj["parties"], "parties"),
            shield_dims=dims,
            unitaries=unitaries,
            shield=shield,
        )
    except KeyError as exc:
        raise ValueError(f"malformed spec: missing key {exc.args[0]!r}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed spec: {exc}") from exc


def report_to_json(report: Any) -> Any:
    """Dataclass (possibly nested) to plain JSON-ready structures."""
    return dataclasses.asdict(report)


def _json_pieces(obj: Any) -> Iterable[str]:
    """The text of `dumps(obj)`, in pieces; see `write_json`."""
    mats: list[np.ndarray] = []

    def placeholder(value: Any) -> str:
        if not (isinstance(value, np.ndarray) and value.ndim == 2):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        mats.append(np.ascontiguousarray(as_complex(value)))
        return f"\0{len(mats) - 1}"

    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=placeholder)
    # one `\u0000` per placeholder and none besides: slots are placeholders
    if mats and not text.count("\\u0000") == len(_SLOT.findall(text)) == len(mats):
        raise ValueError('an ndarray may stand only as a matrix\'s "data", beside no NUL string')
    return _spliced(text + "\n", mats) if mats else (text + "\n",)


def dumps(obj: Any) -> str:
    """Deterministic JSON text; NaN or an infinity raises ValueError, as
    they are not JSON."""
    return "".join(_json_pieces(obj))


def write_json(obj: Any, path: str | None) -> None:
    """Write `dumps(obj)` to a file, or stdout when path is None/'-'; an
    ndarray that is not a "data" value, a non-finite entry, or (where
    there are ndarrays) a string holding NUL or the text `\\u0000`, raises
    ValueError before the file is opened."""
    _write_pieces(_json_pieces(obj), path)


def write_text(text: str, path: str | None) -> None:
    """Write text to a file, or stdout when path is None/'-'."""
    _write_pieces((text,), path)


def _write_pieces(pieces: Iterable[str], path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def read_json(path: str) -> Any:
    """Parse a JSON file; input nested too deeply for the parser raises
    ValueError, as other malformed JSON does."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from exc
