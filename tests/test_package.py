"""Tests for the package's lazy export table."""

import importlib

import levyxva


def test_every_export_resolves_to_its_module_attribute():
    # A deleted or renamed function must not leave a stale export behind.
    for name, module_name in levyxva._EXPORTS.items():
        module = importlib.import_module(f"levyxva.{module_name}")
        assert getattr(levyxva, name) is getattr(module, name), name


def test_all_lists_the_exports_sorted():
    assert levyxva.__all__ == sorted(levyxva._EXPORTS)
