"""Every layer module's ``__all__`` names something that module defines.

The benchmark tracer wraps the functions a layer lists in ``__all__`` and
skips names it cannot find, so a stale entry would drop that layer's spans
without any error; this test makes it one.
"""
import ast
import importlib
import inspect

import pytest

LAYERS = ("fock", "measurement", "em", "wigner", "recover", "io_csv", "config")


def top_level_names(module) -> set[str]:
    """Names bound by a def, class or assignment at the top of the module's source."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_are_defined_in_their_layer(layer):
    module = importlib.import_module(f"clicktomo.{layer}")
    defined = top_level_names(module)
    assert module.__all__, f"{layer} exports nothing"
    for name in module.__all__:
        assert hasattr(module, name), f"clicktomo.{layer}.__all__ names {name!r}, which does not exist"
        assert name in defined, f"clicktomo.{layer}.__all__ names {name!r}, which it imports but does not define"
