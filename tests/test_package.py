"""The package's public names."""

import ast
from pathlib import Path

import arid

SRC = Path(arid.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in arid.__all__ if not hasattr(arid, name)]
    assert not missing, f"names in arid.__all__ that do not resolve: {missing}"
    assert len(set(arid.__all__)) == len(arid.__all__)
    # The batch fit and its windowing, which the README documents, are among them.
    assert {"fit_ar_batch", "delay_windows"} <= set(arid.__all__)


def test_every_exported_name_is_used_inside_the_package():
    """A public name that no module of the package reads is surface that only the tests reach."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(set(arid.__all__) - used)
    assert not unused, f"names in arid.__all__ that no module of the package uses: {unused}"
