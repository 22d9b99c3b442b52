"""The benchmark's layer tracer names only attributes that exist.

``perfbench/layertrace.py`` wraps functions and methods of gkmcalc by name.
Every name it lists must either resolve (a method must sit in its class's
own ``__dict__``, which is where the tracer replaces it) or belong to a
gkmcalc submodule that no longer exists, which the tracer skips.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "layertrace", Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


def _module(name):
    if importlib.util.find_spec(f"gkmcalc.{name}") is None:
        return None
    return importlib.import_module(f"gkmcalc.{name}")


@pytest.mark.parametrize(
    "mod_name,attr", [(m, a) for m, a, _ in layertrace.FUNCTIONS]
)
def test_traced_function_exists(mod_name, attr):
    mod = _module(mod_name)
    if mod is not None:
        assert callable(getattr(mod, attr, None)), f"gkmcalc.{mod_name}.{attr}"


@pytest.mark.parametrize(
    "mod_name,cls_name,attr", [(m, c, a) for m, c, a, _ in layertrace.METHODS]
)
def test_traced_method_is_defined_on_its_class(mod_name, cls_name, attr):
    mod = _module(mod_name)
    if mod is not None:
        cls = getattr(mod, cls_name)
        assert attr in cls.__dict__, f"gkmcalc.{mod_name}.{cls_name}.{attr}"
