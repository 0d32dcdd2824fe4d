import json
import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualframes import Frame, GaborLattice, GridSpec, ParseError, SampledWindow, sample_bspline
from dualframes import io

from conftest import random_frame


class TestFrameRoundTrip:
    def test_bit_exact(self, tmp_path):
        phi = random_frame(4, 7, seed=80)
        path = tmp_path / "frame.json"
        io.save_frame(phi, path)
        loaded = io.load_frame(path)
        assert np.array_equal(loaded.synthesis, phi.synthesis)

    def test_dict_shape(self, phi0):
        data = io.frame_to_dict(phi0)
        assert data["dim"] == 2
        assert len(data["vectors"]) == 3
        assert data["vectors"][2] == [[1.0, 0.0], [1.0, 0.0]]

    def test_rejects_missing_keys(self):
        with pytest.raises(ParseError):
            io.frame_from_dict({"vectors": []})

    def test_rejects_ragged_vectors(self):
        with pytest.raises(ParseError):
            io.frame_from_dict({"dim": 2, "vectors": [[[1, 0]], [[1, 0], [0, 1]]]})


class TestWindowRoundTrip:
    def test_bit_exact(self, tmp_path):
        w = sample_bspline(3, GridSpec(7, 5))
        path = tmp_path / "window.json"
        io.save_window(w, path)
        loaded = io.load_window(path)
        assert loaded.grid == w.grid
        assert np.array_equal(loaded.values, w.values)

    def test_rejects_wrong_length(self):
        with pytest.raises(ParseError):
            io.window_from_dict(
                {"samples_per_unit": 2, "period": 2, "values": [[1.0, 0.0]]}
            )


class TestOperatorRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(81)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "op.json"
        io.save_operator(m, path)
        assert np.array_equal(io.load_operator(path), m)

    def test_rejects_bad_count(self):
        with pytest.raises(ParseError):
            io.operator_from_dict({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


class TestLattice:
    def test_round_trip(self):
        lat = GaborLattice("1/2", "3/10")
        again = io.lattice_from_dict(io.lattice_to_dict(lat))
        assert again == lat

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            io.lattice_from_dict({"a": "x", "b": "1"})


class TestLoadJson:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            io.load_json(tmp_path / "nope.json")

    def test_malformed_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2,\n "vectors": [}')
        with pytest.raises(ParseError) as err:
            io.load_json(path)
        assert "line 2" in str(err.value)


# Floats whose text json.dump gets wrong most easily: signed zero, the
# smallest subnormal, the largest finite values and integral floats.
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def reference_pairs(values) -> list:
    """The per-element encode the chunked writer replaced."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def reference_bytes(data) -> bytes:
    return (json.dumps(data) + "\n").encode()


def loads_from_parent_layout(path, data, load):
    """``load`` of ``data`` written in the indented layout of earlier files."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    return load(path)


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


@st.composite
def complex_arrays(draw, shape, specials):
    """Complex arrays of ``shape`` spanning the exponent range, with ``specials``
    written into some real and imaginary parts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal(shape + (2,)) * 10.0 ** rng.integers(-300, 300, shape + (2,))
    flat = parts.reshape(-1)
    for i, v in draw(st.lists(st.tuples(st.integers(0, flat.size - 1), st.sampled_from(specials)),
                              max_size=8)):
        flat[i] = v
    return parts.view(complex)[..., 0]


# 2 floats per chunk makes every frame vector its own chunk, split pair by pair
CHUNKS = st.sampled_from([2, 6, io._CHUNK])


class TestSavedBytes:
    """save_* write exactly the bytes json.dumps writes of the per-element lists, and
    the same value in the indented layout of earlier files loads bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 40), count=st.integers(1, 60), chunk=CHUNKS, data=st.data())
    def test_frame(self, tmp_path_factory, dim, count, chunk, data):
        syn = data.draw(complex_arrays((dim, count), EDGE_FLOATS))
        frame = Frame(syn)
        path = tmp_path_factory.mktemp("frame") / "frame.json"
        with mock.patch.object(io, "_CHUNK", chunk):
            io.save_frame(frame, path)
        want = reference_bytes({"dim": dim, "vectors": [reference_pairs(syn[:, k]) for k in range(count)]})
        assert path.read_bytes() == want
        assert reference_bytes(io.frame_to_dict(frame)) == want
        assert np.array_equal(bits(io.load_frame(path).synthesis), bits(syn))
        indented = loads_from_parent_layout(path, io.frame_to_dict(frame), io.load_frame)
        assert np.array_equal(bits(indented.synthesis), bits(syn))

    @settings(max_examples=40, deadline=None)
    @given(samples=st.integers(1, 8), period=st.integers(1, 8), chunk=CHUNKS, data=st.data())
    def test_window(self, tmp_path_factory, samples, period, chunk, data):
        grid = GridSpec(samples, period)
        window = SampledWindow(grid, data.draw(complex_arrays((grid.total,), EDGE_FLOATS)))
        path = tmp_path_factory.mktemp("window") / "window.json"
        with mock.patch.object(io, "_CHUNK", chunk):
            io.save_window(window, path)
        want = reference_bytes({"samples_per_unit": samples, "period": period,
                                "values": reference_pairs(window.values)})
        assert path.read_bytes() == want
        assert reference_bytes(io.window_to_dict(window)) == want
        loaded = io.load_window(path)
        assert loaded.grid == grid
        assert np.array_equal(bits(loaded.values), bits(window.values))
        indented = loads_from_parent_layout(path, io.window_to_dict(window), io.load_window)
        assert indented.grid == grid
        assert np.array_equal(bits(indented.values), bits(window.values))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 60), chunk=CHUNKS, data=st.data())
    def test_operator(self, tmp_path_factory, rows, cols, chunk, data):
        matrix = data.draw(complex_arrays((rows, cols), EDGE_FLOATS + NON_FINITE))
        path = tmp_path_factory.mktemp("operator") / "op.json"
        with mock.patch.object(io, "_CHUNK", chunk):
            io.save_operator(matrix, path)
        want = reference_bytes({"rows": rows, "cols": cols, "entries": reference_pairs(matrix.reshape(-1))})
        assert path.read_bytes() == want
        assert reference_bytes(io.operator_to_dict(matrix)) == want
        assert np.array_equal(bits(io.load_operator(path)), bits(matrix))
        indented = loads_from_parent_layout(path, io.operator_to_dict(matrix), io.load_operator)
        assert np.array_equal(bits(indented), bits(matrix))

    @pytest.mark.parametrize(
        "save, to_dict, value",
        [
            ("save_frame", "frame_to_dict", Frame([[complex(-0.0, 5e-324)]])),
            ("save_window", "window_to_dict", SampledWindow(GridSpec(1, 1), np.array([1.0]))),
            ("save_operator", "operator_to_dict", np.array([[complex(1.7976931348623157e308, -0.0)]])),
        ],
    )
    def test_single_value(self, tmp_path, save, to_dict, value):
        path = tmp_path / "value.json"
        getattr(io, save)(value, path)
        assert path.read_bytes() == reference_bytes(getattr(io, to_dict)(value))

    def test_non_finite_entries_are_written_as_json_writes_them(self, tmp_path):
        path = tmp_path / "op.json"
        io.save_operator(np.array([[complex(np.nan, np.inf), complex(-np.inf, 0.0)]]), path)
        assert path.read_text() == '{"rows": 1, "cols": 2, "entries": [[NaN, Infinity], [-Infinity, 0.0]]}\n'

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_operator(self, tmp_path, shape):
        path = tmp_path / "op.json"
        io.save_operator(np.zeros(shape), path)
        assert path.read_bytes() == reference_bytes({"rows": shape[0], "cols": shape[1], "entries": []})
        assert io.load_operator(path).shape == shape  # sizes of 0 stay valid

    @pytest.mark.parametrize(
        "data", [{"a": [1.5, None, "x\n"], "b": {}}, [1, {"c": []}], "text", 2.5, None, {}],
    )
    def test_plain_json_values(self, tmp_path, data):
        path = tmp_path / "data.json"
        io.dump_json(data, path)
        assert path.read_bytes() == reference_bytes(data)


def frame_data(pairs):
    return {"dim": 2, "vectors": [pairs]}


def window_data(pairs):
    return {"samples_per_unit": 1, "period": 2, "values": pairs}


def operator_data(pairs):
    return {"rows": 1, "cols": 2, "entries": pairs}


def decoded(kind, pairs):
    """What each loader returns of two pairs, as one complex array."""
    if kind == "frame":
        return io.frame_from_dict(frame_data(pairs)).synthesis.reshape(-1)
    if kind == "window":
        return io.window_from_dict(window_data(pairs)).values
    return io.operator_from_dict(operator_data(pairs)).reshape(-1)


MALFORMED_PAIRS = {
    "string number": [["1", 0], [0, 1]],
    "null": [[None, 0], [0, 1]],
    "1-element pair": [[1], [0, 1]],
    "3-element pair": [[1, 0, 0], [0, 1]],
    "one level too deep": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    "object for a pair": [{"re": 1, "im": 0}, [0, 1]],
    "object for the list": {"re": [1, 0], "im": [0, 1]},
    "null for the list": None,
    "integer beyond float range": [[10**400, 0], [0, 1]],
}

WELL_FORMED_PAIRS = {
    "ints": [[1, 0], [0, -2]],
    "bools": [[True, False], [False, True]],
    "floats": [[0.5, -0.0], [1e300, 5e-324]],
    "mixed": [[1, 0.5], [True, 2]],
    "ints beyond int64": [[10**20, 0], [2**64 + 1, -(2**70)]],
}


class TestDecodeStrictness:
    @pytest.mark.parametrize("kind", ["frame", "window", "operator"])
    @pytest.mark.parametrize("pairs", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS)
    def test_rejects_malformed_pairs(self, kind, pairs):
        with pytest.raises(ParseError):
            decoded(kind, pairs)

    @pytest.mark.parametrize(
        "vectors",
        [
            [[[1, 0], [0, 1]], [[1, 0]]],
            [],
            {"v": [[1, 0], [0, 1]]},
            None,
            5,
            [[[1, 0], [0, 1], [1, 1]]],
        ],
        ids=["ragged", "empty", "object", "null", "number", "longer than dim"],
    )
    def test_rejects_malformed_frame_vectors(self, vectors):
        with pytest.raises(ParseError):
            io.frame_from_dict({"dim": 2, "vectors": vectors})

    # sizes were once read with int(), which truncated 2.9 to 2 and took "2" and true
    @pytest.mark.parametrize(
        "load, data",
        [
            (io.frame_from_dict, {"dim": 2.9, "vectors": [[[1, 0], [0, 1]]]}),
            (io.frame_from_dict, {"dim": "2", "vectors": [[[1, 0], [0, 1]]]}),
            (io.frame_from_dict, {"dim": True, "vectors": [[[1, 0]]]}),
            (io.window_from_dict, {"samples_per_unit": 1.7, "period": 1, "values": [[1, 0]]}),
            (io.window_from_dict, {"samples_per_unit": 1, "period": True, "values": [[1, 0]]}),
            (io.operator_from_dict, {"rows": 1.5, "cols": 1, "entries": [[1, 0]]}),
            # -1 * -1 entries passed the count check and reached reshape
            (io.operator_from_dict, {"rows": -1, "cols": -1, "entries": [[1, 0]]}),
            (io.frame_from_dict, {"dim": -2, "vectors": [[[1, 0], [0, 1]]]}),
            (io.window_from_dict, {"samples_per_unit": -1, "period": 1, "values": [[1, 0]]}),
        ],
        ids=["dim 2.9", "dim string", "dim true", "samples_per_unit 1.7", "period true", "rows 1.5",
             "rows -1", "dim -2", "samples_per_unit -1"],
    )
    def test_rejects_non_integer_sizes(self, load, data):
        with pytest.raises(ParseError, match="must be an integer"):
            load(data)

    @pytest.mark.parametrize("kind", ["frame", "window", "operator"])
    @pytest.mark.parametrize("pairs", WELL_FORMED_PAIRS.values(), ids=WELL_FORMED_PAIRS)
    def test_accepts_json_numbers(self, kind, pairs):
        got = decoded(kind, pairs)
        want = np.array([complex(re, im) for re, im in pairs], dtype=complex)
        assert got.dtype == np.complex128
        assert np.array_equal(bits(got), bits(want))


class TestTracedEntryPoints:
    """The benchmark's tracer measures io.bytes_written and io.save_s by wrapping
    io.dump_json(data, path) and io.load_json(path) by name."""

    @pytest.mark.parametrize(
        "save, load, value",
        [
            ("save_frame", "load_frame", Frame.from_vectors([(1, 0), (0, 1), (1, 1)])),
            ("save_window", "load_window", sample_bspline(2, GridSpec(4, 4))),
            ("save_operator", "load_operator", np.eye(3)),
        ],
    )
    def test_one_call_each(self, save, load, value, tmp_path, monkeypatch):
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append((name, args, kwargs))
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(io, "dump_json", counted("dump_json", io.dump_json))
        monkeypatch.setattr(io, "load_json", counted("load_json", io.load_json))
        path = tmp_path / "value.json"
        getattr(io, save)(value, path)
        assert [(name, len(args), args[1], kwargs) for name, args, kwargs in calls] == [
            ("dump_json", 2, path, {})
        ]
        calls.clear()
        getattr(io, load)(path)
        assert calls == [("load_json", (path,), {})]


def reference_load(path):
    """The reference for ``load_json``: ``json.load`` of the file, or the
    ParseError text for what json rejects or for any value but an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            return f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
    return data if isinstance(data, dict) else f"{path}: expected a JSON object"


def loaded(path):
    try:
        return io.load_json(path)
    except ParseError as exc:
        return str(exc)


def assert_same_load(got, want) -> bool:
    """``got`` (load_json's) equals ``want`` (json.load's) key by key, a packed
    ``"vectors"`` compared bit for bit with the list it stands for; True if it was packed."""
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return False
    assert list(got) == list(want)
    packed = isinstance(got.get("vectors"), np.ndarray)
    for key, value in got.items():
        if isinstance(value, np.ndarray):
            listed = np.array(want[key], dtype=float)
            assert value.shape == listed.shape and value.shape[-1] == 2
            assert np.array_equal(value.view(np.uint64), listed.view(np.uint64))
        else:  # json.dumps tells 1, 1.0 and true apart and writes NaN alike
            assert json.dumps(value) == json.dumps(want[key])
    return packed


def small_records():
    """Frame, window and operator records with a few entries each, edge floats included."""
    rng = np.random.default_rng(2020)
    values = rng.standard_normal(16) * 10.0 ** rng.integers(-300, 300, 16)
    values[:len(EDGE_FLOATS)] = EDGE_FLOATS
    pairs = [[float(re), float(im)] for re, im in values.reshape(-1, 2)]
    return [
        {"dim": 2, "vectors": [pairs[0:2], pairs[2:4], pairs[4:6]]},
        {"dim": 1, "vectors": [pairs[6:7]]},
        {"vectors": [pairs[0:3], pairs[3:6]], "dim": 3},
        {"samples_per_unit": 2, "period": 2, "values": pairs[:4]},
        {"rows": 2, "cols": 2, "entries": pairs[4:8]},
    ]


# Text spliced into documents: brackets, separators, literals, numbers and
# their parts, whitespace, a byte order mark and a non-ASCII letter.
SPLICES = ["[", "]", "{", "}", ",", ":", '"', '"vectors"', '"dim": 2, ', "[1, 0]", "[]", "{}",
           "null", "true", "NaN", "-Infinity", "1e400", "-0", "0.5", "e", "-", ".", "9" * 30,
           " ", "\n", "\t", "\ufeff", "é", "\\", "[[1, 0], [0, 1]]"]
# Values put in place of one node of a record.
NODES = [0, -0.0, 1.5, 10**400, True, None, "1", "", [], {}, [1], [1, 2], [1, 2, 3],
         [[1, 0]], [[1, 0], [0, 1]], [[[1, 0]]], {"re": 1, "im": 0}, float("nan"), float("inf")]


def mutate_tree(rng, node):
    """``node`` with one item replaced, dropped or repeated somewhere below it."""
    if isinstance(node, dict) and node:
        key = rng.choice(list(node))
        if rng.random() < 0.7:
            return {**node, key: mutate_tree(rng, node[key])}
        return {k: v for k, v in node.items() if k != key}
    if isinstance(node, list) and node:
        at = rng.randrange(len(node))
        choice = rng.random()
        if choice < 0.6:
            return node[:at] + [mutate_tree(rng, node[at])] + node[at + 1:]
        return node[:at] + node[at + 1:] if choice < 0.8 else node[:at] + [node[at]] + node[at:]
    return rng.choice(NODES)


def mutate_text(rng, text):
    """``text`` with one span deleted, spliced, repeated or cut off."""
    at = rng.randrange(len(text) + 1)
    end = min(len(text), at + rng.randrange(1, 8))
    choice = rng.random()
    if choice < 0.3:
        return text[:at] + text[end:]
    if choice < 0.7:
        return text[:at] + rng.choice(SPLICES) + text[at:]
    if choice < 0.9:
        return text[:end] + text[at:]
    return text[:at]


def mutated_documents(count, seed):
    """``count`` documents from ``small_records``: mutated records written with
    json.dumps in a random layout, about half of them with their text mutated too."""
    rng = random.Random(seed)
    records = small_records()
    for _ in range(count):
        record = rng.choice(records)
        for _ in range(rng.randrange(3)):
            record = mutate_tree(rng, record)
        indent = rng.choice([None, None, 0, 1, "\t"])
        text = json.dumps(record, indent=indent)
        for _ in range(rng.randrange(3) if rng.random() < 0.5 else 0):
            text = mutate_text(rng, text)
        yield text


class TestDecodeParity:
    """load_json decodes a frame's vectors one at a time and packs them; on
    every document it gives what json.load gave, value or error text."""

    def test_mutated_documents(self, tmp_path):
        path = tmp_path / "doc.json"
        outcomes = {"packed": 0, "other object": 0, "error": 0}
        for text in mutated_documents(12_000, seed=20):
            path.write_text(text, encoding="utf-8")
            want = reference_load(path)
            if assert_same_load(loaded(path), want):
                outcomes["packed"] += 1
            else:
                outcomes["error" if isinstance(want, str) else "other object"] += 1
        # every path is taken often: packed frames, other objects, malformed text
        assert min(outcomes.values()) >= 1000, outcomes

    @pytest.mark.parametrize(
        "text",
        [
            # a ragged vector early and a syntax error late: the syntax error is reported
            '{"dim": 2, "vectors": [[[1, 0]], [[1, 0], [0, 1]]], "x": [1,]}',
            '{"dim": 2, "vectors": [[["1", 0], [0, 1]]] "x": 1}',
            '{"dim": 2, "vectors": [[[1, 0], [0, 1]],]}',
            '{"dim": 2, "vectors": [[[1, 0], [0, 1]]]} {}',
            '\ufeff{"dim": 1, "vectors": [[[1, 0]]]}',
            '[{"dim": 1, "vectors": [[[1, 0]]]}]',
            '{"dim": 1, "vectors": [[[1, 0]]], "dim": 2, "vectors": [[[0, 1], [1, 0]]]}',
            '{"dim": 1, "vectors": [[[1e400, 0]]]}',
            '{"dim": 0, "vectors": [[]]}',
            '{"dim": 1, "vectors": []}',
            ' \n{ "dim" : 1 , "vectors" : [ [ [ NaN , -Infinity ] ] ] }\t',
            '{"dim": 1, "vectors": [[[1, 0]]], 1: 2}',
            '{"dim": 1, null: 2}',
        ],
    )
    def test_edge_documents(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        assert_same_load(loaded(path), reference_load(path))

    def test_benchmark_input_files(self, tmp_path):
        """The cli-files benchmark's inputs load as json.load reads them, and each
        loader returns what the whole-tree decode gives, bit for bit."""
        root = Path(__file__).resolve().parents[1]
        sys.path.insert(0, str(root / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(root / "perfbench"))
        workloads.build_cli_files(1, 1, str(tmp_path), str(root / "src"))
        paths = sorted(tmp_path.glob("*.json"))
        assert len(paths) == 10
        for path in paths:
            want = reference_load(path)
            assert assert_same_load(io.load_json(path), want) == path.name.startswith(("phi", "psi"))
            kind = path.name.split("-")[0].split(".")[0]
            if kind == "op":
                got, tree = io.load_operator(path), io.operator_from_dict(want)
            elif kind.startswith("window"):
                got, tree = io.load_window(path).values, io.window_from_dict(want).values
            else:
                got, tree = io.load_frame(path).synthesis, io.frame_from_dict(want).synthesis
            assert np.array_equal(bits(got), bits(tree))


def test_frame_load_peaks_at_half_of_a_whole_tree_load(tmp_path):
    """A 256x384 frame load holds one vector's pairs at a time, not the list of
    all of them that json.load builds (about 300k objects)."""
    path = tmp_path / "frame.json"
    io.save_frame(random_frame(256, 384, seed=20), path)

    def peak(load):
        tracemalloc.start()
        try:
            load(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def whole_tree(p):
        with open(p, encoding="utf-8") as fh:
            return io.frame_from_dict(json.load(fh))

    assert peak(io.load_frame) <= peak(whole_tree) / 2
