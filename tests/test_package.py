"""Tests for the package's lazy export table and the README's library
quick start."""

import importlib
import re
from pathlib import Path

import levyxva


def test_every_export_resolves_to_its_module_attribute():
    # A deleted or renamed function must not leave a stale export behind.
    for name, module_name in levyxva._EXPORTS.items():
        module = importlib.import_module(f"levyxva.{module_name}")
        assert getattr(levyxva, name) is getattr(module, name), name


def test_all_lists_the_exports_sorted():
    assert levyxva.__all__ == sorted(levyxva._EXPORTS)


def test_readme_quick_start_runs():
    # The documented example reuses the fast CVA legs in ``greeks``, which
    # refuses legs priced with other arguments than it is given.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
