import ast
import sys
from pathlib import Path

import disentsim

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
