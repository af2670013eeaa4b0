import ast
import sys
from pathlib import Path

import pytest

import disentsim
from disentsim.entangle import ThetaFamily

ALLOWED = {"numpy", "disentsim"} | set(sys.stdlib_module_names)


def test_package_imports_only_numpy_and_the_standard_library():
    # the package depends on numpy alone (pyproject.toml); scipy and other
    # installed packages must not creep in, at module level or inside a function
    found = []
    for path in sorted(Path(disentsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []  # relative: disentsim
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] not in ALLOWED]
    assert not found, found


def _private_numpy_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, dotted name) of every import of a private numpy module or name
    (a part after ``numpy`` that starts with one underscore), and of every
    attribute chain on ``np``/``numpy`` that reaches one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in ("np", "numpy")):
                continue
            names = [".".join(["numpy", *reversed(parts)])]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] == "numpy" and any(
            p.startswith("_") and not p.startswith("__") for p in n.split(".")[1:])]
    return found


def test_only_qcore_touches_private_numpy():
    # qcore.eigh calls the LAPACK gufunc behind np.linalg.eigh.  qcore imports
    # it with the package, so a numpy release that moves it makes
    # `import disentsim` fail; this test keeps the name in that one module
    found = []
    for path in sorted(Path(disentsim.__file__).parent.glob("*.py")):
        names = _private_numpy_names(ast.parse(path.read_text(encoding="utf-8")))
        if path.name == "qcore.py":
            assert [n for _, n in names] == ["numpy.linalg._umath_linalg"], names
        else:
            found += [f"{path.name}:{line} {n}" for line, n in names]
    assert not found, found


def test_private_numpy_guard_sees_every_form():
    src = ("import numpy._core\nfrom numpy.linalg import _umath_linalg, LinAlgError\n"
           "from numpy.linalg._umath_linalg import eigh_lo\nx = np.linalg._umath_linalg.eigh_lo\n"
           "import numpy.linalg\ny = np.__version__\nz = np.linalg.eigh\n")
    assert [n for _, n in _private_numpy_names(ast.parse(src))] == [
        "numpy._core", "numpy.linalg._umath_linalg", "numpy.linalg._umath_linalg.eigh_lo",
        "numpy.linalg._umath_linalg.eigh_lo", "numpy.linalg._umath_linalg"]


def _matmuls(tree: ast.AST) -> list[int]:
    """Lines of every ``a @ b`` and ``a @= b`` in a tree."""
    return sorted(node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))


def _function(module: str, qualname: str) -> ast.AST:
    """The definition of a module-level function or a method (``Class.name``)."""
    tree = ast.parse((Path(disentsim.__file__).parent / module).read_text(encoding="utf-8"))
    *owner, name = qualname.split(".")
    scope = tree.body
    if owner:
        scope = next(n for n in scope if isinstance(n, ast.ClassDef) and n.name == owner[0]).body
    return next(n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name)


@pytest.mark.parametrize("module, qualname", [("dynamics.py", "_mme_stage"),
                                              ("dynamics.py", "_sle_block_step"),
                                              ("entangle.py", "ThetaEngine.coefficients")])
def test_hot_path_products_skip_matmul_dispatch(module, qualname):
    # these kernels' one-state (or always 2-D) products go through np.dot: the
    # BLAS call of @ with its bits, without matmul's gufunc dispatch, which
    # costs about 0.3 us a product at these sizes; a stack takes np.matmul
    assert _matmuls(_function(module, qualname)) == [], (module, qualname)


def test_matmul_guard_sees_every_form():
    src = "def f(a, b):\n    c = a @ b\n    c @= b\n    return np.dot(a, b), np.matmul(a, b)\n"
    assert _matmuls(ast.parse(src)) == [2, 3]


def _dimension_parameters(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every function parameter named d_a, d_b or factor, and
    of every call of math.isqrt (or of an isqrt imported from math)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            found += [(node.lineno, p.arg) for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                                     a.vararg, a.kwarg)
                      if p is not None and p.arg in ("d_a", "d_b", "factor")]
        elif isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "isqrt"
                    and isinstance(f.value, ast.Name) and f.value.id == "math") or (
                    isinstance(f, ast.Name) and f.id == "isqrt"):
                found.append((node.lineno, "math.isqrt"))
    return sorted(found)


def test_no_dimension_parameters():
    # the spin pair is the package's one Hilbert space: no function takes
    # subsystem dimensions or a factorization, and none infers a dimension
    # from a grid's size
    found = []
    for path in sorted(Path(disentsim.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line} {n}"
                  for line, n in _dimension_parameters(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found


def test_dimension_guard_sees_every_form():
    src = ("def f(rho, d_a, d_b=2):\n    return math.isqrt(len(rho))\n"
           "class A:\n    def __init__(self, spec, *, factor=None):\n        pass\n"
           "g = lambda d_a: isqrt(d_a)\ndef h(d, n):\n    return m.isqrt(n)\n")
    assert _dimension_parameters(ast.parse(src)) == [
        (1, "d_a"), (1, "d_b"), (2, "math.isqrt"), (4, "factor"), (6, "d_a"), (6, "math.isqrt")]


def _family_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, text) of every place a tree names a Theta family: the
    ``ThetaFamily`` enum (or a member of it), a ``.family`` attribute, or a
    string that is a family's value."""
    values = {f.value for f in ThetaFamily}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "ThetaFamily":
            found.append((node.lineno, "ThetaFamily"))
        elif isinstance(node, ast.Attribute) and node.attr == "family":
            found.append((node.lineno, ".family"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                node.value in values):
            found.append((node.lineno, node.value))
    return sorted(found)


@pytest.mark.parametrize("qualname", ["ThetaEngine.matrix", "ThetaEngine.grid"])
def test_theta_engine_runs_one_path(qualname):
    # every family is coefficients(e) @ ops: __init__ sets up each family's
    # operators and its map to e, and matrix and grid never ask which family
    # they run
    assert _family_names(_function("entangle.py", qualname)) == [], qualname


def test_family_guard_sees_every_form():
    src = ("def f(self, x):\n    if self.spec.family is ThetaFamily.THERMALIZATION:\n"
           "        return ThetaFamily('corr-suppress')\n"
           "    g = lambda s: s.family.value == 'bloch-derank-a'\n"
           "    return self._to_e(x), 'family'\n")
    assert _family_names(ast.parse(src)) == [
        (2, ".family"), (2, "ThetaFamily"), (3, "ThetaFamily"), (3, "corr-suppress"),
        (4, ".family"), (4, "bloch-derank-a")]
