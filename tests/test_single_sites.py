"""One thin SVD call site, one kernel projection, one pair pipeline, one approximate-dual
construction and one form of an annihilator in the library.

Every frame is held by its class factor, so one spectrum class takes every thin SVD
and projects onto ker T.  A second representation of a spectrum would bring its own
``np.linalg.svd(..., full_matrices=False)`` and its own ``kernel_part``; the pair
functions of ``duality`` and ``perturbation`` read factors and blocks, so a dense body
there would read a synthesis matrix or a scattered mixed operator.  A window's approximate
dual is the general construction on its system, so a second body would read powers of S
(``Spectrum.power``) outside ``oplin`` or apply operators to a window's samples
(``LatticeOperator.apply``) in ``gabor``.  An annihilator is held by theta* as a factor, so
a reader of its ``map`` outside ``Annihilator`` would read a second form of it.  These tests
find each, syntactically, in ``src/dualframes``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dualframes"


def parsed() -> dict:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def thin_svd_sites(trees: dict) -> list:
    """(file, line) of every call ``<x>.linalg.svd(..., full_matrices=False)``."""
    sites = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr == "svd"):
                continue
            if not (isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"):
                continue
            if any(k.arg == "full_matrices" and getattr(k.value, "value", True) is False for k in node.keywords):
                sites.append((name, node.lineno))
    return sites


def kernel_part_classes(trees: dict) -> list:
    """(file, class) of every class whose body defines ``kernel_part``."""
    return [
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "kernel_part" for f in node.body)
    ]


def test_one_thin_svd_site():
    assert len(thin_svd_sites(parsed())) == 1, thin_svd_sites(parsed())


def test_one_class_defines_kernel_part():
    assert kernel_part_classes(parsed()) == [("oplin.py", "Spectrum")]


def test_a_second_site_is_found():
    source = (
        "class Spectrum:\n    def kernel_part(self, x):\n        return np.linalg.svd(x, full_matrices=False)\n"
        "class Dense:\n    def kernel_part(self, x):\n        return numpy.linalg.svd(x, full_matrices=False)\n"
        "np.linalg.svd(x, compute_uv=False)\nnp.linalg.svd(x)\nsvd(x, full_matrices=False)\n"
    )
    trees = {"a.py": ast.parse(source)}
    assert thin_svd_sites(trees) == [("a.py", 3), ("a.py", 6)]
    assert kernel_part_classes(trees) == [("a.py", "Spectrum"), ("a.py", "Dense")]


def dense_reads(trees: dict, names=("duality.py", "perturbation.py")) -> list:
    """(file, line, attribute) of every read of ``.synthesis`` or ``.dense`` in ``names``."""
    return sorted(
        (name, node.lineno, node.attr)
        for name in names
        for node in ast.walk(trees[name])
        if isinstance(node, ast.Attribute) and node.attr in ("synthesis", "dense")
    )


def test_pair_functions_read_no_dense_matrix():
    """The pair functions read a frame as its factor and a pair as its blocks: no synthesis
    matrix (``.synthesis``) and no scattered mixed operator (``pair.dense``)."""
    assert dense_reads(parsed()) == []


def test_a_dense_read_is_found():
    source = "x = phi.synthesis @ y\nz = pair.dense\nw = phi._system.synthesis()\nv = phi.spectrum\n"
    trees = {"duality.py": ast.parse(source), "perturbation.py": ast.parse("")}
    assert dense_reads(trees) == [
        ("duality.py", 1, "synthesis"), ("duality.py", 2, "dense"), ("duality.py", 3, "synthesis")]


def method_calls(trees: dict, method: str, names) -> list:
    """(file, line) of every call ``<x>.<method>(...)`` in the files ``names``."""
    return sorted(
        (name, node.lineno)
        for name in names
        for node in ast.walk(trees[name])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == method
    )


def construction_sites(trees: dict) -> list:
    """Calls a second approximate-dual body would make: ``.power(`` outside ``oplin.py``,
    ``.apply(`` in ``gabor.py``."""
    return method_calls(trees, "power", [n for n in trees if n != "oplin.py"]) + method_calls(
        trees, "apply", ["gabor.py"])


def test_one_approximate_dual_construction():
    assert construction_sites(parsed()) == []


def test_a_second_construction_is_found():
    source = "adj = a.apply(spectrum.power(-2).apply(v))\nx = spectrum.power\ny = power(2)\n"
    trees = {"oplin.py": ast.parse("s.power(1)\nb.apply(v)\n"), "gabor.py": ast.parse(source),
             "duality.py": ast.parse("d = phi.spectrum.power(2)\ne = x.apply(v)\n")}
    assert construction_sites(trees) == [("duality.py", 1), ("gabor.py", 1), ("gabor.py", 1), ("gabor.py", 1)]


def map_reads(trees: dict) -> list:
    """(file, line) of every ``.map`` attribute outside the body of a class ``Annihilator``."""
    own = {id(node) for tree in trees.values() for cls in ast.walk(tree)
           if isinstance(cls, ast.ClassDef) and cls.name == "Annihilator" for node in ast.walk(cls)}
    return sorted(
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "map" and id(node) not in own
    )


def test_annihilators_are_read_as_factors():
    assert map_reads(parsed()) == []


def test_a_map_read_is_found():
    source = ("class Annihilator:\n    def f(self):\n        return self.map\n"
              "def g(theta):\n    return theta.map\n"
              "class Other:\n    def h(self, theta):\n        return adjoint(theta.map)\n"
              "lengths = set(map(len, rows))\n")
    assert map_reads({"a.py": ast.parse(source)}) == [("a.py", 5), ("a.py", 8)]
