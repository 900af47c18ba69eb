"""The full-table oracles stay off the run path, and importing the package
stays light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghrlab

PACKAGE = Path(ghrlab.__file__).resolve().parent


def oracle_imports(source: str) -> list[int]:
    """Lines of `source`, the text of a module of the package ghrlab, that
    import ghrlab.oracle or a name from it, at any depth of the syntax
    tree.  Every module sits at the package's top level, so a relative
    import names ghrlab or one of its modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"ghrlab.{base}" if base else "ghrlab"
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "ghrlab.oracle" or name.startswith("ghrlab.oracle.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source",
    [
        "import ghrlab.oracle",
        "import ghrlab.oracle as table",
        "from ghrlab import oracle",
        "from ghrlab.oracle import delta_table",
        "from . import bitkit, oracle",
        "from .oracle import DeltaTable",
        "def f():\n    if True:\n        from .oracle import delta_table\n",
        "class C:\n    def m(self):\n        import ghrlab.oracle\n",
    ],
)
def test_oracle_import_finder_sees_every_form(source):
    assert oracle_imports(source)


def test_oracle_import_finder_passes_other_imports():
    source = "import ghrlab.relation\nfrom . import bitkit\nfrom .relation import delta_table_rows\n"
    assert not oracle_imports(source)


def test_no_module_but_init_imports_the_oracle():
    """No run path can build a full table: only the package namespace
    imports ghrlab.oracle."""
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__" and (lines := oracle_imports(path.read_text()))
    }
    assert not found
    assert oracle_imports((PACKAGE / "__init__.py").read_text())


def test_package_import_leaves_numpy_random_unloaded():
    # numpy.random keeps about 0.6 MB resident once imported; runs load it
    # only when they build their first stream (bitkit.Rng)
    probe = "import sys, numpy; print('numpy.random' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout.strip() == "True":
        pytest.skip("a bare import numpy loads numpy.random")
    run = "import sys, ghrlab; from ghrlab import cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", run],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "False"
