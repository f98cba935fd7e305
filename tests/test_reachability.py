"""Every top-level name in `src/leavittk` is reached from the CLI or from
the package's public names.

The roots are every public (not underscored) top-level name of `cli.py`,
every name that `leavittk/__init__.py` imports (the one list of
documented library API), and every name mentioned at module level
outside a definition, such as in cli's `__main__` block.  A reached
definition reaches every top-level name that it mentions as a Name or
an Attribute, defaults and decorators included.  Names match across
modules by spelling alone, so the walk can over-reach but never flags a
name that some reached body mentions.
"""
import ast
from pathlib import Path

import leavittk

SRC = Path(leavittk.__file__).parent


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _mentions(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unreached(sources):
    """`module:line name` for each top-level definition that no root
    reaches, in source order; `sources` maps module names, `__init__`
    and `cli` among them, to their source text."""
    defs, todo = [], []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            names = _defined_names(node)
            if module == "__init__":
                if isinstance(node, ast.ImportFrom):
                    todo += [alias.name for alias in node.names]
            elif names:
                defs += [(module, node.lineno, name, node) for name in names]
            else:
                todo += _mentions(node)
    todo += [name for module, _, name, _ in defs
             if module == "cli" and not name.startswith("_")]
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, _, defined, node in defs:
            if defined == name:
                todo.extend(_mentions(node))
    return [f"{module}:{line} {name}"
            for module, line, name, _ in defs if name not in reached]


def test_every_src_name_is_reached():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert {"__init__", "cli", "groups", "matrices"} <= set(sources)
    assert unreached(sources) == []


SYNTHETIC = {
    "__init__": "from .core import api\n",
    "cli": (
        "from . import core\n"
        "from .core import LIMIT\n"
        "\n"
        "def _offset():\n"
        "    return LIMIT\n"
        "\n"
        "def main():\n"
        "    return core._by_attribute() + _offset()\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    raise SystemExit(_exit_code())\n"
        "\n"
        "def _exit_code():\n"
        "    return 0\n"
    ),
    "core": (
        "LIMIT = 10\n"
        "\n"
        "def _decorator(f):\n"
        "    return f\n"
        "\n"
        "def _default():\n"
        "    return 0\n"
        "\n"
        "@_decorator\n"
        "def api(x=_default()):\n"
        "    return x\n"
        "\n"
        "def _by_attribute():\n"
        "    return 1\n"
        "\n"
        "def _dead():\n"
        "    return api() + _by_attribute()\n"
    ),
}


def test_walk_flags_exactly_the_dead_helper():
    assert unreached(SYNTHETIC) == ["core:16 _dead"]
    # without the package's import list, the API and its helpers are dead
    no_api = dict(SYNTHETIC, __init__="")
    assert unreached(no_api) == ["core:3 _decorator", "core:6 _default",
                                 "core:10 api", "core:16 _dead"]
    # cli's own helpers are checked too: only its public names are roots
    dead_cli = dict(SYNTHETIC, cli=SYNTHETIC["cli"].replace(
        "_offset()\n\n", "LIMIT\n\n"))
    assert unreached(dead_cli) == ["cli:4 _offset", "core:16 _dead"]
