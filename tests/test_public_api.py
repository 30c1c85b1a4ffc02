"""The public surface cannot regrow: every name in ordersafe.__all__ is read
by another module of the package or listed under "Public API" in README."""

import ast
import pathlib
import re

import ordersafe
import ordersafe.isotonic

SRC = pathlib.Path(ordersafe.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

RETIRED = {
    "acceptance_member_type_a", "acceptance_member_type_b", "in_polar_orthant",
    "face_dimension", "SingularMatrixError", "minmax_project",
    "tree_order_consistency", "umbrella_consistency", "UmbrellaCheck",
}
ISOTONIC = {"WeightedSeries", "IsotonicFit", "av", "pava", "SplitCheck",
            "simple_order_consistency"}


def _owners():
    """Each re-exported name and the module __init__ imports it from."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _names_read(path):
    """Every identifier a module reads: names, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _readme_api():
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section))


def test_every_exported_name_has_a_caller_or_is_documented():
    owners = _owners()
    reads = {path.stem: _names_read(path) for path in SRC.glob("*.py")
             if path.stem != "__init__"}
    api = _readme_api()
    orphans = [name for name in ordersafe.__all__ if name not in api and not any(
        name in names for module, names in reads.items() if module != owners[name])]
    assert orphans == []


def test_retired_routes_and_isotonic_stay_out_of_the_namespace():
    exported = set(ordersafe.__all__)
    assert not exported & (RETIRED | ISOTONIC)
    assert not RETIRED & set(dir(ordersafe.isotonic))
    public = {name for name, value in vars(ordersafe.isotonic).items()
              if not name.startswith("_")
              and getattr(value, "__module__", None) == "ordersafe.isotonic"}
    assert public == ISOTONIC
