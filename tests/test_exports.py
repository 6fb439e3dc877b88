"""Every layer module's ``__all__`` names something that module defines and the package uses.

The benchmark tracer wraps the functions a layer lists in ``__all__`` and
skips names it cannot find, so a stale entry would drop that layer's spans
without any error; this test makes it one.  A name that only tests use
belongs in ``tests/oracles.py``, not in a layer's ``__all__``.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import clicktomo

LAYERS = ("fock", "measurement", "em", "wigner", "recover", "io_csv", "config")
# Exported names that no module of the package uses, each with the reason it stays
USED_OUTSIDE_THE_PACKAGE = {
    ("io_csv", "read_rho_csv"): "bench/chain.py reads rho.csv back with it",
}


def bound_names(node) -> set[str]:
    """Names a top-level statement binds by a def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def top_level_names(module) -> set[str]:
    """Names bound by a def, class or assignment at the top of the module's source."""
    return set().union(*map(bound_names, ast.parse(inspect.getsource(module)).body))


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_are_defined_in_their_layer(layer):
    module = importlib.import_module(f"clicktomo.{layer}")
    defined = top_level_names(module)
    assert module.__all__, f"{layer} exports nothing"
    for name in module.__all__:
        assert hasattr(module, name), f"clicktomo.{layer}.__all__ names {name!r}, which does not exist"
        assert name in defined, f"clicktomo.{layer}.__all__ names {name!r}, which it imports but does not define"


def _package_uses() -> list[tuple[str, set[str], set[str]]]:
    """(module, names bound, names and attributes used) of every top-level statement in the package's source."""
    uses = []
    for path in sorted(Path(clicktomo.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            uses.append((path.stem, bound_names(node), used))
    return uses


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_are_used_by_the_package(layer):
    """Each exported name is used in src/clicktomo/ outside its own definition; the strings of
    ``__all__`` and an import that is never used do not count."""
    uses = _package_uses()
    unused = [
        name
        for name in importlib.import_module(f"clicktomo.{layer}").__all__
        if (layer, name) not in USED_OUTSIDE_THE_PACKAGE
        and not any(name in used and not (module == layer and name in bound) for module, bound, used in uses)
    ]
    assert not unused, f"clicktomo.{layer}.__all__ names {unused}, which no module of the package uses"
