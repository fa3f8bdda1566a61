"""The package's exports are the names of the README's Library example."""
import ast
import pathlib
import re

import anesopt

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example_names():
    """The names of the README's `from anesopt import (...)` block."""
    block = re.search(r"^from anesopt import \(.*?\)$", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert block is not None
    (node,) = ast.parse(block.group(0)).body
    return [alias.name for alias in node.names]


def test_all_is_the_readme_library_example():
    names = _library_example_names()
    assert names == anesopt.__all__
    namespace = {}
    exec(f"from anesopt import ({', '.join(names)})", namespace)
    assert all(namespace[name] is getattr(anesopt, name) for name in names)

