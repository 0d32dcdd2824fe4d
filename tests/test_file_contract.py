"""The input contract, fuzzed: a malformed file or argument gives exit 2 or 3
and one line on stderr, never a traceback.

Each file test starts from small valid files and mutates one of them: a value
is replaced by a float, a string, a bool, a huge integer, NaN or Infinity, or
by a value of the wrong type; a value gains a level of nesting; a key or an
item is dropped.  The argument test draws the command-line values: grids,
rationals from 1e-400 to 1e400, window specs, coefficients, seeds and scales.
The commands run in-process through ``cli.main``; an exception that leaves
``main`` is an escape (the installed command would print a traceback), and so
is a warning, which the tier-1 settings turn into one.
"""

import copy
import io as stdio
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualframes import (
    DimensionMismatch,
    Frame,
    GaborLattice,
    ParseError,
    SampledWindow,
    bessel_bound_difference,
    canonical_dual,
    ck_dual1,
    io,
    sample_bspline,
)
from dualframes.cli import SIZE_BUDGET, main
from dualframes.gabor import GridSpec

DEEP = 100_000  # nested arrays: past any recursion limit of the json decoder
FUZZ = settings(max_examples=40, deadline=None)


def run(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, stdout discarded."""
    err = stdio.StringIO()
    with redirect_stdout(stdio.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(code: int, err: str) -> None:
    assert code in (0, 2, 3)
    assert "Traceback" not in err and len(err.splitlines()) <= 1
    assert (code == 0) == (err == "")


# --------------------------------------------------------------------- inputs

GRID = GridSpec(2, 6)
LAT = GaborLattice(1, Fraction(1, 3))  # b * P = 2; ck_dual1 of the order-2 B-spline needs b <= 1/3
PHI = Frame.from_vectors([(1, 0), (0, 1), (1, 1)])


def _documents() -> dict:
    g = sample_bspline(2, GRID)
    scale = sample_bspline(3, GRID)
    nearby = np.array(PHI.synthesis) + 1e-3 * np.array([[1, -1, 0.5], [0.25, 1, -0.5]])
    return {
        "phi": io.frame_to_dict(PHI),
        "dual": io.frame_to_dict(canonical_dual(PHI)),
        "near": io.frame_to_dict(Frame(nearby)),
        "op": io.operator_to_dict(0.9 * np.eye(2)),
        "g": io.window_to_dict(g),
        "gd": io.window_to_dict(ck_dual1(g, 2, LAT.b)),
        "scale": io.window_to_dict(SampledWindow(GRID, scale.values * (1.0 + 0.25 * np.cos(GRID.points())))),
    }


DOCUMENTS = _documents()  # valid file contents, by name, as JSON values


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    """Each valid document written to its own file, and a path for the mutated one."""
    root = tmp_path_factory.mktemp("contract")
    paths = {name: str(root / f"{name}.json") for name in DOCUMENTS}
    for name, doc in DOCUMENTS.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    paths["mutated"] = str(root / "mutated.json")
    return paths


# The file arguments of each file-reading subcommand, as {name} of a document.
COMMANDS = {
    "frame-info": ["frame-info", "{phi}"],
    "dual canonical": ["dual", "{phi}"],
    "dual approx": ["dual", "{phi}", "--mode", "approx", "--op-file", "{op}", "--theta", "random:1:0.5"],
    "dual gdual": ["dual", "{phi}", "--mode", "gdual", "--op-file", "{op}"],
    "verify": ["verify", "{phi}", "{dual}"],
    "perturb": ["perturb", "{phi}", "{near}", "{dual}"],
    "gabor window": ["gabor", "window", "--window", "{g}"],
    "gabor dual": ["gabor", "dual", "--window", "{g}", "--support", "2", "--b", "1/3"],
    "gabor verify": ["gabor", "verify", "--window", "{g}", "--dual", "{gd}", "--a", "1", "--b", "1/3"],
    "gabor weight": ["gabor", "weight", "--window", "{g}", "--a", "1"],
    "gabor approx-dual": ["gabor", "approx-dual", "--window", "{g}", "--dual", "{gd}", "--scale-window", "{scale}",
                          "--a", "1", "--b", "1/3"],
}


def test_valid_files_pass(files):
    for argv in COMMANDS.values():
        assert run([word.format(**files) for word in argv]) == (0, "")


# ------------------------------------------------------------------ mutations

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**30), 2**63, -1, 0, 1e308, 5e-324]),
    st.integers(),
    st.booleans(),
)
WRONG = st.one_of(st.text(max_size=4), st.sampled_from([None, [], {}, [[]], {"re": 1}]).map(copy.deepcopy))


def _locations(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three mutations at drawn locations."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_locations(doc))))
        if not path:
            doc = draw(st.one_of(WRONG, st.just([doc]), NUMBERS))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        how = draw(st.sampled_from(["number", "wrong type", "nest", "drop"]))
        if how == "drop":
            del parent[key]
        elif how == "nest":
            parent[key] = [value]
        else:
            parent[key] = draw(NUMBERS if how == "number" else WRONG)
    return doc


def write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # NaN and Infinity as json writes them


# ------------------------------------------------------------------- loaders

LOADERS = {"frame": (io.load_frame, "phi"), "window": (io.load_window, "g"), "operator": (io.load_operator, "op")}


@pytest.mark.parametrize("loader, name", LOADERS.values(), ids=LOADERS)
@FUZZ
@given(data=st.data())
def test_loader_fuzz(loader, name, data, files):
    write(files["mutated"], data.draw(mutated(DOCUMENTS[name])))
    try:
        loader(files["mutated"])
    except (ParseError, DimensionMismatch, ValueError):  # what cli.main reports with exit 3
        pass


# ---------------------------------------------------------------- subcommands


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
@FUZZ
@given(data=st.data())
def test_subcommand_fuzz(argv, data, files):
    names = [word[1:-1] for word in argv if word.startswith("{")]
    name = data.draw(st.sampled_from(names))
    write(files["mutated"], data.draw(mutated(DOCUMENTS[name])))
    paths = {**files, name: files["mutated"]}
    assert_contract(*run([word.format(**paths) for word in argv]))


# ----------------------------------------------------------- deep nesting


@pytest.mark.parametrize(
    "key, argv",
    [
        ('"dim": 2, "vectors"', ["frame-info", "{path}"]),
        ('"samples_per_unit": 2, "period": 6, "values"', ["gabor", "weight", "--window", "{path}", "--a", "1"]),
        ('"rows": 2, "cols": 2, "entries"', ["dual", "{phi}", "--mode", "approx", "--op-file", "{path}"]),
    ],
    ids=["frame", "window", "operator"],
)
def test_deep_nesting_exits_3(key, argv, files):
    with open(files["mutated"], "w", encoding="utf-8") as fh:
        fh.write("{" + key + ": " + "[" * DEEP + "]" * DEEP + "}")
    code, err = run([word.format(path=files["mutated"], **files) for word in argv])
    assert code == 3 and err.startswith("error: ") and "nested too deeply" in err
    assert_contract(code, err)


def scaled(name: str, factor: float, first_only=False) -> dict:
    """The document ``name`` with its numbers times ``factor``, or only its first pair."""
    doc = copy.deepcopy(DOCUMENTS[name])
    pairs = [pair for vector in doc["vectors"] for pair in vector] if "vectors" in doc else doc["values"]
    for pair in pairs[:1] if first_only else pairs:
        pair[:] = [factor * x for x in pair]
    return doc


def with_entry(name: str, value: float) -> dict:
    """The operator document ``name`` with its first entry's real part set to ``value``."""
    doc = copy.deepcopy(DOCUMENTS[name])
    doc["entries"][0][0] = value
    return doc


# Finite files whose sums or products overflow: (command, documents replaced, exit code, error text).
OVERFLOWS = {
    "verify, ||W||^2": ("verify", {"dual": scaled("dual", 1e200, first_only=True)}, 3,
                        "squared operator norm overflows"),
    "verify, dense mixed operator": ("verify", {"phi": scaled("phi", 1e200), "dual": scaled("dual", 1e200)}, 3,
                                     "non-finite"),
    "dual gdual, near-identity certificate": ("dual gdual", {"op": with_entry("op", 1.7976931348623031e308)}, 2,
                                              "condition number inf"),
    "gabor weight": ("gabor weight", {"g": scaled("g", 1e200)}, 3, "shift-energy weight"),
    "gabor verify, lattice sums": ("gabor verify", {"g": scaled("g", 1e200), "gd": scaled("gd", 1e200)}, 3,
                                   "non-finite"),
    "gabor approx-dual, blocks": ("gabor approx-dual", {"scale": scaled("scale", 1e200)}, 3, "non-finite"),
}


@pytest.mark.parametrize("command, docs, exit_code, message", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflow_gives_one_error_line(command, docs, exit_code, message, tmp_path, files):
    paths = dict(files)
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        write(paths[name], doc)
    code, err = run([word.format(**paths) for word in COMMANDS[command]])
    assert code == exit_code and err.startswith("error: ") and message in err
    assert_contract(code, err)


def test_bessel_bound_difference_overflow_raises():
    with pytest.raises(ValueError, match="squared operator norm overflows"):
        bessel_bound_difference(PHI, Frame(1e200 * np.array(PHI.synthesis)))


# ----------------------------------------------------------------- arguments

# Each Gabor command over the drawn values, by name; the files are the valid documents.
ARGUMENTS = {
    "gabor window": ["gabor", "window", "--window", "{spec}", "--grid", "{grid}"],
    "gabor dual ck1": ["gabor", "dual", "--window", "{spec}", "--grid", "{grid}", "--b", "{b}",
                       "--support", "{support}"],
    "gabor dual ck2": ["gabor", "dual", "--window", "{spec}", "--grid", "{grid}", "--b", "{b}", "--method", "ck2",
                       "--coeffs", "{coeffs}"],
    "gabor verify": ["gabor", "verify", "--window", "{spec}", "--dual", "{dual_spec}", "--grid", "{grid}",
                     "--a", "{a}", "--b", "{b}"],
    "gabor approx-dual": ["gabor", "approx-dual", "--window", "{spec}", "--dual", "{dual_spec}", "--scale-window",
                          "{scale_spec}", "--grid", "{grid}", "--a", "{a}", "--b", "{b}"],
    "gabor weight": ["gabor", "weight", "--window", "{spec}", "--grid", "{grid}", "--a", "{a}"],
    "gabor sweep char": ["gabor", "sweep", "--char", "--grid", "{grid}", "--step", "{step}"],
    "gabor sweep bspline": ["gabor", "sweep", "--bspline", "{order}", "--samples", "{samples}",
                            "--denominators", "{denominators}"],
    "dual theta": ["dual", "{phi}", "--mode", "approx", "--op-file", "{op}", "--theta", "{theta}"],
}

# A valid value for each placeholder, and what the fuzz draws in its place half the time.
_VALID = {"spec": "bspline:2", "dual_spec": "bspline:2", "scale_spec": "bspline:3", "grid": "10:20", "a": "1",
          "b": "1/10", "step": "1/4", "support": "2", "order": "2", "samples": "4", "denominators": "2:10",
          "coeffs": "0,0.1,0.2", "theta": "random:1:0.5"}
_EXPONENTS = st.sampled_from([-400, -300, -20, -3, 0, 3, 20, 300, 400])
_RATIONAL = st.one_of(
    st.builds("{}/{}".format, st.integers(-2, 8), st.integers(0, 8)),
    st.builds("{}e{}".format, st.integers(1, 9), _EXPONENTS),
    st.sampled_from(["x", "1/2/3", "nan", "inf"]),
)
_INTEGER = st.one_of(st.integers(-2, 6), st.sampled_from(["10" * 20, "x", "2.5"]))
_SPEC = st.one_of(st.builds("bspline:{}".format, _INTEGER), st.builds("char:{}".format, _RATIONAL))
_DRAWN = {
    # small grids run; the named ones are malformed or larger than a budget admits
    "grid": st.one_of(st.builds("{}:{}".format, st.integers(-1, 6), st.integers(-1, 6)),
                      st.sampled_from(["x", "4", "4:x", "1:2048", "1:16384", "1000000000:1000000000"])),
    "spec": _SPEC,
    "dual_spec": _SPEC,
    "scale_spec": st.builds("bspline:{}".format, _INTEGER),
    "a": _RATIONAL,
    "b": _RATIONAL,
    "step": _RATIONAL,
    "support": _INTEGER,
    "order": st.integers(-1, 4).map(str),
    "samples": _INTEGER,
    "denominators": st.sampled_from(["2:4000", "x", "5:2", "1:3"]),
    "coeffs": st.lists(st.one_of(st.floats().map(repr), st.builds("{}e{}".format, st.integers(1, 9), _EXPONENTS)),
                       min_size=1, max_size=5).map(",".join),
    "theta": st.one_of(st.builds("random:{}:{}".format, st.one_of(st.integers(-1, 9), st.just(10**400)),
                                 st.builds("{}e{}".format, st.integers(1, 9), _EXPONENTS)),
                       st.sampled_from(["zero", "random:1", "random:x:1", "random:1:nan", "random:1:-1"])),
}
_VALUES = st.fixed_dictionaries({key: st.one_of(st.just(_VALID[key]), drawn) for key, drawn in _DRAWN.items()})


@pytest.mark.parametrize("argv", ARGUMENTS.values(), ids=ARGUMENTS)
@settings(max_examples=25, deadline=None)
@given(values=_VALUES)
@example(values={**_VALID, "b": "1e400"})  # float(b) raised OverflowError in the dual-generator check
@example(values={**_VALID, "grid": "1:2048", "a": "1", "b": "1"})  # a factor of L P/a = 4M entries
@example(values={**_VALID, "grid": "2:1024", "step": "1"})  # a --char sweep's table of L P = 2M entries
@example(values={**_VALID, "order": "1000", "samples": "1"})  # a --bspline sweep's table of 10^7 entries
@example(values={**_VALID, "order": "3", "samples": "1", "denominators": "2:4000"})  # tables of 7.2e7 in all
def test_argument_fuzz(argv, values, files):
    """Exit 0, 2 or 3, one error line at most, and no array past 16 bytes per budget entry: the
    arrays a Gabor command derives from its grid are held to the budget, not only the grid."""
    tracemalloc.start()
    try:
        code, err = run([word.format(**values, **files) for word in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_contract(code, err)
    assert peak < 16 * 8 * SIZE_BUDGET
