"""JSON wire formats for frames, windows, operators and lattices.

Complex numbers are two-element arrays ``[re, im]``.  Frames are stored
as ``{"dim": d, "vectors": [...]}`` with one entry per frame vector;
windows as ``{"samples_per_unit": s, "period": P, "values": [...]}``;
operators as ``{"rows": r, "cols": c, "entries": [...]}`` in row-major
order; lattices as ``{"a": "p/q", "b": "p/q"}`` with exact rational
strings.  Values round-trip bit-exactly (floats are serialized with full precision);
the sizes (dim, samples_per_unit, period, rows, cols) are JSON integers >= 0.

Every file is written by ``dump_json`` as one line: ``json.dumps(data)``,
non-finite numbers as ``NaN`` and ``Infinity``, and a newline.  ``save_*``
hand it the values packed as float arrays of ``[re, im]`` pairs; it
streams each such array in chunks of at most ``_CHUNK`` floats, so a save
builds no Python list of the whole array.

The loaders read any layout.  ``load_json`` decodes a frame's ``"vectors"``
one vector at a time into one float buffer and returns them packed, as
``save_frame`` hands them to ``dump_json``, so a load builds no list of
pairs of the whole frame; windows and operators are decoded whole.  A
malformed file gives json's own error, position included.
"""

from __future__ import annotations

import json
import re
from array import array
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import ParseError
from .frames import Frame
from .gabor import GaborLattice, GridSpec, SampledWindow

# Floats per streamed chunk of a packed array (one frame vector if that is more).
_CHUNK = 4096


def _packed(values) -> np.ndarray:
    """``values`` as float64 ``[re, im]`` pairs, shape ``values.shape + (2,)``."""
    z = np.ascontiguousarray(values, dtype=complex)
    return z.view(float).reshape(z.shape + (2,))


def _listed(record: dict) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in record.items()}


def _from_pairs(pairs, what: str) -> np.ndarray:
    """``complex(re, im)`` of each ``[re, im]`` in ``pairs``, converted in one pass;
    ParseError for anything that is not a list of two-number pairs."""
    try:
        pairs = list(pairs)
        if set(map(len, pairs)) - {2}:
            raise ValueError("a pair must hold two numbers")
        floats = array("d", list(chain.from_iterable(pairs)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed complex pairs in {what}") from exc
    return np.frombuffer(floats, dtype=complex)


def _size(data: dict, key: str) -> int:
    """``data[key]`` if it is a JSON integer (not a bool) >= 0, else TypeError."""
    if type(data[key]) is not int or data[key] < 0:
        raise TypeError(f"'{key}' must be an integer >= 0, got {data[key]!r}")
    return data[key]


def _frame_record(frame: Frame) -> dict:
    return {"dim": frame.dim, "vectors": _packed(frame.synthesis.T)}


def frame_to_dict(frame: Frame) -> dict:
    return _listed(_frame_record(frame))


def frame_from_dict(data: dict) -> Frame:
    """The frame whose ``"vectors"`` are lists of ``[re, im]`` pairs or, as
    ``load_json`` returns them, one ``(count, length, 2)`` float array."""
    try:
        dim = _size(data, "dim")
        vectors = data["vectors"]
        if not isinstance(vectors, np.ndarray):
            vectors = list(vectors)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"frame JSON must carry 'dim' and 'vectors': {exc}") from exc
    if not len(vectors):
        raise ParseError("frame JSON has no vectors")
    if isinstance(vectors, np.ndarray):
        values, lengths = vectors.reshape(-1).view(complex), {vectors.shape[1]}
    else:
        values = _from_pairs(chain.from_iterable(vectors), "frame vector")
        lengths = set(map(len, vectors))
    if lengths != {dim}:
        raise ParseError("frame vector length disagrees with 'dim'")
    return Frame._adopt(np.ascontiguousarray(values.reshape(len(vectors), dim).T))


def _window_record(window: SampledWindow) -> dict:
    return {
        "samples_per_unit": window.grid.samples_per_unit,
        "period": window.grid.period,
        "values": _packed(window.values),
    }


def window_to_dict(window: SampledWindow) -> dict:
    return _listed(_window_record(window))


def window_from_dict(data: dict) -> SampledWindow:
    try:
        grid = GridSpec(_size(data, "samples_per_unit"), _size(data, "period"))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"window JSON must carry grid fields: {exc}") from exc
    values = _from_pairs(data.get("values", []), "window values")
    if values.shape[0] != grid.total:
        raise ParseError(
            f"window JSON has {values.shape[0]} values, grid needs {grid.total}"
        )
    return SampledWindow(grid, values)


def _operator_record(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": _packed(m.reshape(-1))}


def operator_to_dict(matrix: np.ndarray) -> dict:
    return _listed(_operator_record(matrix))


def operator_from_dict(data: dict) -> np.ndarray:
    try:
        rows, cols = _size(data, "rows"), _size(data, "cols")
    except (KeyError, TypeError) as exc:
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


_WHITESPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


def _skip(text: str, i: int) -> int:
    return _WHITESPACE.match(text, i).end()


def _items(text: str, i: int, close: str, read) -> int:
    """Walk the items of the object or array opened just before ``text[i]``:
    ``read(j)`` decodes the item at ``j`` and returns the index after it.
    Returns the index after ``close``; ValueError where json would fail."""
    i = _skip(text, i)
    if text.startswith(close, i):
        return i + 1
    while True:
        i = _skip(text, read(i))
        if text.startswith(close, i):
            return i + 1
        if not text.startswith(",", i):
            raise ValueError("expected ',' or the closing bracket")
        i = _skip(text, i + 1)


def _vectors(text: str, start: int):
    """The array at ``text[start]`` and the index after it.  Its elements are
    decoded one at a time; if each is a list of [number, number] pairs, all of
    one length, they come packed as a ``(count, length, 2)`` float array, else
    (frame_from_dict rejects them) as json reads the array."""
    packed, lengths = array("d"), set()

    def vector(i: int) -> int:
        nonlocal packed
        value, i = _DECODER.raw_decode(text, i)
        if packed is not None:
            try:
                if set(map(len, value)) != {2}:
                    raise ValueError("not a list of pairs")
                packed.extend(chain.from_iterable(value))
                lengths.add(len(value))
            except (TypeError, ValueError, OverflowError):
                packed = None  # held: a later syntax error still comes first
        return i

    end = _items(text, start + 1, "]", vector)
    if packed is None or len(lengths) != 1:
        return _DECODER.raw_decode(text, start)
    return np.frombuffer(packed).reshape(-1, lengths.pop(), 2), end


def _decode(text: str):
    """``json.loads(text)``.  A top-level object is walked member by member, its
    ``"vectors"`` through ``_vectors``; any other value, and malformed text, go to
    json.loads, so its values and error texts are json's own."""
    data = {}

    def member(i: int) -> int:
        key, i = _DECODER.raw_decode(text, i)
        i = _skip(text, i)
        if type(key) is not str or not text.startswith(":", i):
            raise ValueError("expected a key and ':'")
        i = _skip(text, i + 1)
        read = _vectors if key == "vectors" and text.startswith("[", i) else _DECODER.raw_decode
        data[key], i = read(text, i)
        return i

    try:
        i = _skip(text, 0)
        if text.startswith("{", i) and _skip(text, _items(text, i + 1, "}", member)) == len(text):
            return data
    except ValueError:
        pass
    return json.loads(text)


def load_json(path) -> dict:
    """The JSON object in ``path``, a frame's ``"vectors"`` packed (see the module
    docstring); ParseError for a missing file, malformed JSON, nesting too deep for
    the decoder, or any other JSON value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _decode(fh.read())
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # json decodes nested values recursively
        raise ParseError(f"{path}: JSON nested too deeply to decode") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def _write_array(fh, values: np.ndarray) -> None:
    """Write ``json.dumps(values.tolist())`` in chunks of whole rows holding at most
    ``_CHUNK`` floats; a longer row is split the same way."""
    row = values[0].size if len(values) else 0
    step = max(1, _CHUNK // max(row, 1))
    fh.write("[")
    for start in range(0, len(values), step):
        if start:
            fh.write(", ")
        if row > _CHUNK:
            _write_array(fh, values[start])
        else:
            fh.write(json.dumps(values[start:start + step].tolist())[1:-1])
    fh.write("]")


def dump_json(data, path) -> None:
    """Write ``json.dumps(data)`` and a newline to ``path``.  A float ndarray value
    of a top-level object stands for its ``tolist()`` and is streamed in chunks."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(data, dict) and any(isinstance(v, np.ndarray) for v in data.values()):
            fh.write("{")
            for i, (key, value) in enumerate(data.items()):
                fh.write(", " if i else "")
                if isinstance(value, np.ndarray):
                    # json.dumps of a one-item object holds its key as json.dumps writes it
                    fh.write(json.dumps({key: None})[1:-len("null}")])
                    _write_array(fh, value)
                else:
                    fh.write(json.dumps({key: value})[1:-1])
            fh.write("}")
        else:
            json.dump(data, fh)
        fh.write("\n")


def save_frame(frame: Frame, path) -> None:
    dump_json(_frame_record(frame), path)


def load_frame(path) -> Frame:
    return frame_from_dict(load_json(path))


def save_window(window: SampledWindow, path) -> None:
    dump_json(_window_record(window), path)


def load_window(path) -> SampledWindow:
    return window_from_dict(load_json(path))


def save_operator(matrix, path) -> None:
    dump_json(_operator_record(matrix), path)


def load_operator(path) -> np.ndarray:
    return operator_from_dict(load_json(path))
