"""Static guards on the source modules, read with ``ast``: no module
imports a name it never reads, the U(2) layer holds no D_8 move of its
own, so a hand table of first moves cannot come back unnoticed, and the CLI
builds no isometry itself, so a second isometry grammar cannot either; nor
does the CLI read a private attribute, of argparse or anything else.  One
guard reads the imported package: it exports no ``Fraction`` state action,
so a second action beside the integer maps cannot come back either."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pennyflip"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def imported_names(module: ast.Module) -> dict[str, set[str]]:
    """The names each module-level import binds, by the last component of
    the module they come from; ``from . import x`` binds module ``x``."""
    bound: dict[str, set[str]] = {}
    for node in module.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.name, set()).add(
                    alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                source = (node.module.rpartition(".")[2] if node.module
                          else alias.name)
                bound.setdefault(source, set()).add(alias.asname or alias.name)
    return bound


def constructor_calls(module: ast.Module) -> list[int]:
    """The lines that build an isometry or an angle, ``PlanarIsometry(...)``
    or ``Angle(...)``, by bare name or as an attribute."""
    return [node.lineno for node in ast.walk(module)
            if isinstance(node, ast.Call)
            and {getattr(node.func, key, None) for key in ("id", "attr")}
            & {"PlanarIsometry", "Angle"}]


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    module = parse(name)
    read = {node.id for node in ast.walk(module)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {bound for names in imported_names(module).values()
              for bound in names} - read
    assert not unused, f"{name} never reads {sorted(unused)}"


def test_unitary_takes_no_d8_move_of_its_own():
    module = parse("unitary.py")
    imports = imported_names(module)
    assert not {"angles", "games", "orbits"} & set(imports)
    assert imports["dihedral"] == {"PlanarIsometry"}
    assert not constructor_calls(module)


def test_the_fraction_state_action_is_the_tests_own():
    # the package acts on states only as integer maps on grid indices; the
    # Fraction action on a CoinState is the oracle in tests/test_states.py
    import pennyflip
    from pennyflip import games, states
    assert not hasattr(states, "act") and not hasattr(games, "act")
    assert "act" not in pennyflip.__all__


def test_cli_parses_isometries_only_through_dihedral():
    module = parse("cli.py")
    imports = imported_names(module)
    assert "angles" not in imports
    assert imports["dihedral"] == {"PlanarIsometry"}
    assert not constructor_calls(module)


def test_cli_reads_only_public_attributes():
    # the option tables rest on argparse's public API, which holds across
    # Python versions; dunders such as __name__ are public
    private = [(node.lineno, node.attr) for node in ast.walk(parse("cli.py"))
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not (node.attr.startswith("__")
                        and node.attr.endswith("__"))]
    assert not private, private
