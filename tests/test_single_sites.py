"""One thin SVD call site and one kernel projection in the library.

Every frame is held by its class factor, so one spectrum class takes every thin SVD
and projects onto ker T.  A second representation of a spectrum would bring its own
``np.linalg.svd(..., full_matrices=False)`` and its own ``kernel_part``; these tests
find either, syntactically, in ``src/dualframes``.
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
