"""JSON interchange for matrices, layouts, specs, and reports.

Complex matrices are stored row-major as [re, im] pairs. Output is always
`json.dumps(obj, sort_keys=True, indent=2)` so that identical inputs give
byte-identical files; nothing time- or host-dependent is ever embedded.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any

import numpy as np

from .linalg import Factor, SubsystemLayout
from .private_states import PrivateStateSpec, shield_layout
from .states import DensityMatrix, validate_state, validate_unitary


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
                dim=int(f["dim"]),
                party=int(f["party"]),
                role=str(f["role"]),
            )
            for f in obj
        )
    )


def matrix_to_json(
    mat: np.ndarray, lay: SubsystemLayout | None = None
) -> dict[str, Any]:
    mat = np.asarray(mat, dtype=complex)
    out: dict[str, Any] = {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in mat.ravel()],
    }
    if lay is not None:
        out["layout"] = layout_to_json(lay)
    return out


def matrix_from_json(obj: dict[str, Any]) -> tuple[np.ndarray, SubsystemLayout | None]:
    """Inverse of `matrix_to_json`; every bit of every entry survives."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
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


def state_from_json(obj: dict[str, Any]) -> DensityMatrix:
    mat, lay = matrix_from_json(obj)
    return validate_state(mat, lay)


def spec_to_json(spec: PrivateStateSpec) -> dict[str, Any]:
    return {
        "d": spec.d,
        "parties": spec.parties,
        "shield_dims": list(spec.shield_dims),
        "unitaries": [matrix_to_json(u.matrix) for u in spec.unitaries],
        "shield": matrix_to_json(spec.shield.matrix),
    }


def spec_from_json(obj: dict[str, Any]) -> PrivateStateSpec:
    """Rebuild a spec, re-validating the shield state and every unitary.

    Input of the wrong structure (say a number where a list belongs) or an
    infinite size raises ValueError, like input of the right structure with
    bad values.
    """
    try:
        dims = tuple(int(x) for x in obj["shield_dims"])
        shield_mat, _ = matrix_from_json(obj["shield"])
        shield = validate_state(shield_mat, shield_layout(dims))
        unitaries = tuple(
            validate_unitary(matrix_from_json(u)[0]) for u in obj["unitaries"]
        )
        return PrivateStateSpec(
            d=int(obj["d"]),
            parties=int(obj["parties"]),
            shield_dims=dims,
            unitaries=unitaries,
            shield=shield,
        )
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed spec: {exc}") from exc


def report_to_json(report: Any) -> Any:
    """Dataclass (possibly nested) to plain JSON-ready structures."""
    return dataclasses.asdict(report)


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(obj: Any, path: str | None) -> None:
    """Write deterministic JSON to a file, or stdout when path is None/'-'."""
    write_text(dumps(obj), path)


def write_text(text: str, path: str | None) -> None:
    """Write text to a file, or stdout when path is None/'-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
