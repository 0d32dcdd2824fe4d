"""One call site each of ``np.linalg.svd``, ``solve`` and ``inv``, one kernel projection, one
pair pipeline, one approximate-dual construction and one form of an annihilator in the library.

Every SVD goes through one helper, ``oplin._svd``, which keeps singular values exact under
powers of 2, so a second ``np.linalg.svd`` (of any mode) would read values by another rule;
every solve and inverse is a block value's, under its guard.  Every frame is held by its class
factor, so one spectrum class projects onto ker T.  A second representation of a spectrum
would bring its own ``kernel_part``; the pair
functions of ``duality`` and ``perturbation`` read factors and blocks, so a dense body
there would read a synthesis matrix or a scattered mixed operator.  A window's approximate
dual is the general construction on its system, so a second body would read powers of S
(``Spectrum.power``) outside ``oplin`` or apply operators to a window's samples
(``LatticeOperator.apply``) in ``gabor``.  An annihilator is held by theta* as a factor, so
a reader of its ``map`` outside ``Annihilator`` would read a second form of it.  A block
value is built by one checked constructor, ``LatticeOperator._of``, reached from outside
``oplin`` only through a factor's or a value's classes; it inverts itself under the one
invertibility guard, so an ``np.linalg.inv`` outside ``LatticeOperator`` or a second
comparison against ``COND_CUTOFF`` would be a second path.  Every square is a product,
``x * x`` (``oplin._squared`` for a bound or a norm): ``x ** 2`` of a Python float calls
``pow``, which is not correctly rounded, so it would not scale exactly with ``x``.  A pair's
record (``frames._Pair``) computes every fact it keeps, so a record built, or a fact stored on
one, outside ``frames.py`` would be a second owner of that fact.  Every stack of block
arithmetic is computed under the ``np.errstate`` of ``oplin._checked``, so one outside it and
the few sites that compute their own samples or singular values would be a second overflow
policy; two operands' classes are paired by ``oplin._paired`` only, so another ``zip`` of
their ``.groups`` would pair them unchecked.  These tests find each, syntactically, in
``src/dualframes``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dualframes"


def parsed() -> dict:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


LINALG = ("svd", "solve", "inv")


def linalg_sites(trees: dict) -> dict:
    """For each routine of ``LINALG``, (file, line) of every call ``<x>.linalg.<routine>(...)``."""
    return {r: sorted((name, line) for name, line, _ in _calls(trees, r, "linalg")) for r in LINALG}


def kernel_part_classes(trees: dict) -> list:
    """(file, class) of every class whose body defines ``kernel_part``."""
    return [
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "kernel_part" for f in node.body)
    ]


def test_one_linalg_site_per_routine():
    sites = linalg_sites(parsed())
    assert {r: len(s) for r, s in sites.items()} == dict.fromkeys(LINALG, 1), sites


def test_one_class_defines_kernel_part():
    assert kernel_part_classes(parsed()) == [("oplin.py", "Spectrum")]


def test_a_second_site_is_found():
    source = (
        "class Spectrum:\n    def kernel_part(self, x):\n        return np.linalg.svd(x, full_matrices=False)\n"
        "class Dense:\n    def kernel_part(self, x):\n        return numpy.linalg.svd(x, full_matrices=False)\n"
        "np.linalg.svd(x, compute_uv=False)\nnp.linalg.svd(x)\nsvd(x, full_matrices=False)\n"
        "np.linalg.solve(a, b)\nlinalg.solve(a, b)\nvalue.solve(f)\nnumpy.linalg.inv(a)\ninv(a)\n"
    )
    trees = {"a.py": ast.parse(source)}
    assert linalg_sites(trees) == {"svd": [("a.py", 3), ("a.py", 6), ("a.py", 7), ("a.py", 8)],
                                   "solve": [("a.py", 10), ("a.py", 11)], "inv": [("a.py", 13)]}
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


def class_bodies(trees: dict, cls_name: str) -> set:
    """The ids of every node inside a class named ``cls_name``."""
    return {id(node) for tree in trees.values() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == cls_name for node in ast.walk(cls)}


def map_reads(trees: dict) -> list:
    """(file, line) of every ``.map`` attribute outside the body of a class ``Annihilator``."""
    own = class_bodies(trees, "Annihilator")
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


def _calls(trees: dict, attr: str, owner: str) -> list:
    """(file, line, node) of every call ``<...>.<owner>.<attr>(...)`` or ``<owner>.<attr>(...)``."""
    return [
        (name, node.lineno, node)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == attr
        and getattr(node.func.value, "id", getattr(node.func.value, "attr", None)) == owner
    ]


def block_constructions(trees: dict) -> list:
    """(file, line) of every call ``LatticeOperator._of(`` outside ``oplin.py``."""
    return sorted((name, line) for name, line, _ in _calls(trees, "_of", "LatticeOperator") if name != "oplin.py")


def inverse_sites(trees: dict) -> list:
    """(file, line) of every call ``<x>.linalg.inv(`` outside the body of a class ``LatticeOperator``."""
    own = class_bodies(trees, "LatticeOperator")
    return sorted((name, line) for name, line, node in _calls(trees, "inv", "linalg") if id(node) not in own)


def cutoff_comparisons(trees: dict) -> list:
    """(file, line) of every comparison that reads ``COND_CUTOFF`` (or ``<x>.COND_CUTOFF``)."""
    return sorted(
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(getattr(n, "id", getattr(n, "attr", None)) == "COND_CUTOFF" for n in ast.walk(node))
    )


def test_block_values_are_built_in_oplin_only():
    assert block_constructions(parsed()) == []


def test_only_a_block_value_inverts():
    assert inverse_sites(parsed()) == []


def test_one_invertibility_guard():
    assert len(cutoff_comparisons(parsed())) == 1, cutoff_comparisons(parsed())


def test_a_second_guard_path_is_found():
    oplin = ("class LatticeOperator:\n    def inverse(self):\n        return np.linalg.inv(self.b)\n"
             "    def ok(self):\n        return smin > smax / COND_CUTOFF\n"
             "def inverse(m):\n    return np.linalg.inv(m)\n"
             "x = LatticeOperator._of(None, None, groups)\n")
    other = ("d = LatticeOperator._of(grid, lat, groups)\ne = oplin.LatticeOperator._of(grid, lat, groups)\n"
             "f = numpy.linalg.inv(a) @ b\ng = inv(a)\nh = value._of(groups)\n"
             "if kappa >= tolerances.COND_CUTOFF:\n    pass\nradius = (COND_CUTOFF - 1) / (COND_CUTOFF + 1)\n")
    trees = {"oplin.py": ast.parse(oplin), "frames.py": ast.parse(other)}
    assert block_constructions(trees) == [("frames.py", 1), ("frames.py", 2)]
    assert inverse_sites(trees) == [("frames.py", 3), ("oplin.py", 7)]
    assert cutoff_comparisons(trees) == [("frames.py", 6), ("oplin.py", 5)]


def power_squares(trees: dict) -> list:
    """(file, line) of every square taken as a power: ``x ** 2`` or ``x **= 2``."""
    return sorted(
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
        and getattr(getattr(node, "right", None) or node.value, "value", None) == 2
    )


def test_every_square_is_a_product():
    assert power_squares(parsed()) == []


def test_a_power_square_is_found():
    source = ("y = x ** 2\nz = (a + b) ** 2.0\nw **= 2\n"
              "v = x * x\nu = 2 ** x\nt = s ** p\nr = 2.0**-e\nq = x ** 3\n\"\"\"x ** 2\"\"\"\n")
    assert power_squares({"a.py": ast.parse(source)}) == [("a.py", 1), ("a.py", 2), ("a.py", 3)]


def _named(node, name: str) -> bool:
    """Whether ``node`` is ``name`` or ``<x>.name``."""
    return getattr(node, "id", getattr(node, "attr", None)) == name


def pair_record_writes(trees: dict) -> list:
    """(file, line) outside ``frames.py`` of every ``_Pair(...)`` call and every attribute set
    (a store, a delete or a ``setattr``) on a pair record: a ``_pair(...)`` call, or a name
    that the file binds to one or annotates ``_Pair``."""
    sites = []
    for name, tree in trees.items():
        if name == "frames.py":
            continue
        nodes = list(ast.walk(tree))
        records = {t.id for n in nodes if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                   and _named(n.value.func, "_pair") for t in n.targets if isinstance(t, ast.Name)}
        records |= {n.arg for n in nodes if isinstance(n, ast.arg) and _named(n.annotation, "_Pair")}

        def is_record(x) -> bool:
            return getattr(x, "id", None) in records or isinstance(x, ast.Call) and _named(x.func, "_pair")

        def sets_a_fact(n) -> bool:
            if isinstance(n, ast.Attribute):
                return not isinstance(n.ctx, ast.Load) and is_record(n.value)
            if not isinstance(n, ast.Call):
                return False
            setter = _named(n.func, "setattr") or _named(n.func, "__setattr__")
            return _named(n.func, "_Pair") or setter and bool(n.args) and is_record(n.args[0])

        sites += [(name, n.lineno) for n in nodes if sets_a_fact(n)]
    return sorted(sites)


def test_only_frames_sets_a_pair_fact():
    assert pair_record_writes(parsed()) == []


def test_a_pair_fact_set_elsewhere_is_found():
    source = (
        "def _whitened(phi, pair: _Pair):\n    if pair.whitened is None:\n"
        "        pair.whitened = phi.spectrum.inv_root @ pair.mixed\n    return pair.whitened\n"
        "def _theta_part(phi, partner):\n    pair = _pair(phi, partner)\n    if pair.theta is None:\n"
        "        pair.theta = phi.spectrum.kernel_part(partner._system)\n        pair.theta_norm += 0.0\n"
        "    return pair.theta\n"
        "frames._pair(phi, psi).theta = None\nrecord = frames._Pair(phi, psi)\nsetattr(pair, 'theta', None)\n"
        "object.__setattr__(_pair(phi, psi), 'theta', None)\ndel pair.whitened\n"
        "report.verdicts = {}\nx = _pair(phi, psi).mixed\n"
    )
    own = "pair = view._pairs[psi] = _Pair(view, psi)\npair.theta = None\n"
    trees = {"duality.py": ast.parse(source), "frames.py": ast.parse(own)}
    assert pair_record_writes(trees) == [("duality.py", n) for n in (3, 8, 9, 11, 12, 13, 14, 15)]


def _sites(trees: dict, wanted) -> list:
    """(file, qualified name of the innermost enclosing function, its decorators included, or None
    at module level, line) of every node for which ``wanted(node)`` holds."""
    sites = []

    def visit(name, node, qual, func):
        if wanted(node):
            sites.append((name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            inner = (f"{qual}.{child.name}" if qual else child.name) if scope else qual
            visit(name, child, inner, func if not scope or isinstance(child, ast.ClassDef) else inner)

    for name, tree in trees.items():
        visit(name, tree, None, None)
    return sorted(sites, key=lambda s: (s[0], s[2]))


ERRSTATE_SITES = {("oplin.py", "_svd"), ("oplin.py", "_frobenius_shows"), ("oplin.py", "_checked"),
                  ("frames.py", "Frame._squares"), ("gabor.py", "_system"), ("gabor.py", "walnut_weight"),
                  ("gabor.py", "janssen_residual_table")}


def stray_errstates(trees: dict) -> list:
    """(file, function, line) of every ``errstate`` (``np.errstate`` or a bare name) outside the
    sites of ``ERRSTATE_SITES``: block arithmetic is computed under the one of ``oplin._checked``."""
    return [s for s in _sites(trees, lambda n: _named(n, "errstate")) if s[:2] not in ERRSTATE_SITES]


def test_every_errstate_lies_in_a_named_site():
    assert stray_errstates(parsed()) == []


def test_an_errstate_elsewhere_is_found():
    oplin = ("def _checked(indexes, stacks):\n    with np.errstate(over='ignore'):\n        pass\n"
             "class ClassFactor:\n    @np.errstate(over='ignore')\n    def __sub__(self, other):\n        pass\n"
             "    def blocks(self, other):\n        def inner():\n            with numpy.errstate(invalid='ignore'):\n"
             "                pass\n")
    gabor = ("@np.errstate(over='ignore')\ndef walnut_weight(g, a):\n    pass\n"
             "with errstate(over='ignore'):\n    pass\nold = np.seterr(over='ignore')\n")
    trees = {"oplin.py": ast.parse(oplin), "gabor.py": ast.parse(gabor), "duality.py": ast.parse(
        "def _with_mixed(phi, a):\n    with np.errstate(over='ignore'):\n        pass\n")}
    assert stray_errstates(trees) == [("duality.py", "_with_mixed", 2), ("gabor.py", None, 4),
                                      ("oplin.py", "ClassFactor.__sub__", 5), ("oplin.py", "ClassFactor.blocks.inner", 10)]


def stray_pairings(trees: dict) -> list:
    """(file, function, line) of every ``zip(...)`` that reads ``.groups`` in an argument, outside
    ``oplin._paired``: two operands' classes are paired there only."""
    def reads_groups(node) -> bool:
        return isinstance(node, ast.Call) and _named(node.func, "zip") and any(
            isinstance(n, ast.Attribute) and n.attr == "groups" for a in node.args for n in ast.walk(a))
    return [s for s in _sites(trees, reads_groups) if s[:2] != ("oplin.py", "_paired")]


def test_only_the_pairing_zips_two_operands():
    assert stray_pairings(parsed()) == []


def test_a_second_pairing_is_found():
    oplin = ("def _paired(first, *others):\n    return zip(*([s for _, s in x.groups] for x in (first, *others)))\n"
             "class LatticeOperator:\n    def distance(self, other):\n        pairs = zip(self.groups, other.groups)\n"
             "def _checked(indexes, stacks):\n    return zip(indexes, stacks)\n")
    duality = ("def _with_mixed(phi, a, star):\n    stacks = [b for (_, b), f in zip(a.groups, dual)]\n"
               "    return [s + t for s, (_, t) in zip(stacks, star.groups)]\n"
               "pairs = zip((f for _, f in x.groups), y)\nrows = zip(points, values)\n")
    trees = {"oplin.py": ast.parse(oplin), "duality.py": ast.parse(duality),
             "frames.py": ast.parse("def _paired(x, y):\n    return zip(x.groups, y.groups)\n")}
    assert stray_pairings(trees) == [("duality.py", "_with_mixed", 2), ("duality.py", "_with_mixed", 3),
                                     ("duality.py", None, 4), ("frames.py", "_paired", 2),
                                     ("oplin.py", "LatticeOperator.distance", 5)]
