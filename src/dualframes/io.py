"""JSON wire formats for frames, windows, operators and lattices.

Complex numbers are two-element arrays ``[re, im]``.  Frames are stored
as ``{"dim": d, "vectors": [...]}`` with one entry per frame vector;
windows as ``{"samples_per_unit": s, "period": P, "values": [...]}``;
operators as ``{"rows": r, "cols": c, "entries": [...]}`` in row-major
order; lattices as ``{"a": "p/q", "b": "p/q"}`` with exact rational
strings.  Values round-trip bit-exactly (floats are serialized with full
precision).
"""

from __future__ import annotations

import json
from fractions import Fraction
import numpy as np

from .errors import ParseError
from .frames import Frame
from .gabor import GaborLattice, GridSpec, SampledWindow


def _pairs(values: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _from_pairs(pairs, what: str) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed complex pairs in {what}") from exc


def frame_to_dict(frame: Frame) -> dict:
    return {
        "dim": frame.dim,
        "vectors": [_pairs(frame.synthesis[:, k]) for k in range(frame.count)],
    }


def frame_from_dict(data: dict) -> Frame:
    try:
        dim = int(data["dim"])
        vectors = data["vectors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"frame JSON must carry 'dim' and 'vectors': {exc}") from exc
    cols = [_from_pairs(v, "frame vector") for v in vectors]
    if not cols:
        raise ParseError("frame JSON has no vectors")
    if any(c.shape[0] != dim for c in cols):
        raise ParseError("frame vector length disagrees with 'dim'")
    return Frame._adopt(np.column_stack(cols))


def window_to_dict(window: SampledWindow) -> dict:
    return {
        "samples_per_unit": window.grid.samples_per_unit,
        "period": window.grid.period,
        "values": _pairs(window.values),
    }


def window_from_dict(data: dict) -> SampledWindow:
    try:
        grid = GridSpec(int(data["samples_per_unit"]), int(data["period"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"window JSON must carry grid fields: {exc}") from exc
    values = _from_pairs(data.get("values", []), "window values")
    if values.shape[0] != grid.total:
        raise ParseError(
            f"window JSON has {values.shape[0]} values, grid needs {grid.total}"
        )
    return SampledWindow(grid, values)


def operator_to_dict(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": _pairs(m.reshape(-1)),
    }


def operator_from_dict(data: dict) -> np.ndarray:
    try:
        rows, cols = int(data["rows"]), int(data["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"operator JSON must carry 'rows' and 'cols': {exc}") from exc
    entries = _from_pairs(data.get("entries", []), "operator entries")
    if entries.shape[0] != rows * cols:
        raise ParseError(
            f"operator JSON has {entries.shape[0]} entries, expected {rows * cols}"
        )
    return entries.reshape(rows, cols)


def lattice_to_dict(lat: GaborLattice) -> dict:
    return {"a": str(lat.a), "b": str(lat.b)}


def lattice_from_dict(data: dict) -> GaborLattice:
    try:
        return GaborLattice(Fraction(str(data["a"])), Fraction(str(data["b"])))
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"lattice JSON must carry rational 'a' and 'b': {exc}") from exc


def load_json(path) -> dict:
    """The JSON object in ``path``; ParseError for a missing file, malformed JSON
    or any other JSON value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def dump_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def save_frame(frame: Frame, path) -> None:
    dump_json(frame_to_dict(frame), path)


def load_frame(path) -> Frame:
    return frame_from_dict(load_json(path))


def save_window(window: SampledWindow, path) -> None:
    dump_json(window_to_dict(window), path)


def load_window(path) -> SampledWindow:
    return window_from_dict(load_json(path))


def save_operator(matrix, path) -> None:
    dump_json(operator_to_dict(matrix), path)


def load_operator(path) -> np.ndarray:
    return operator_from_dict(load_json(path))
