"""The package's exports are the names of the README's Library example, and
every name the benchmark's tracer wraps exists."""
import ast
import importlib.util
import pathlib
import re

import anesopt

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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



def test_every_name_the_benchmark_tracer_wraps_exists():
    # the tracer looks each name up in its owner's __dict__ and fails on a
    # missing one; __dict__ and not getattr, which binds the classmethod
    # LTISystem.from_matrices afresh on every lookup
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    saved = tracing.install(tracing.Tracer())
    tracing.uninstall(saved)
    assert saved
    for owner, attr, old in saved:
        assert owner.__dict__[attr] is old, (owner, attr)
