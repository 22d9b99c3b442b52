"""The docstring examples of every gkmcalc module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import gkmcalc

# import_module, not getattr: the package re-exports functions whose names
# shadow their modules (gkmcalc.root_system is the factory function).
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(gkmcalc.__path__, "gkmcalc.")
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
