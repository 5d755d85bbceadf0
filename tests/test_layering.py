"""Layer boundaries: each module imports only the layers below it.

The table below is checked on the source with ``ast``; an import inside an
``if TYPE_CHECKING:`` block counts like any other.  Every
module must also import cleanly when it is the first one a fresh interpreter
loads, which catches cycles that only a particular import order hides.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_SIMENV_CORE = {"hetsel.simenv", "hetsel.simenv.env", "hetsel.simenv.loop"}

#: Module -> the hetsel modules it may import.  ``hetsel.harness`` modules may
#: import anything but the CLI; the package root and the CLI sit on top.
ALLOWED = {
    "hetsel.trg": set(),
    "hetsel.simenv.loop": set(),
    "hetsel.simenv.env": {"hetsel.simenv.loop"},
    "hetsel.simenv": {"hetsel.simenv.env", "hetsel.simenv.loop"},
    "hetsel.gll": {"hetsel.trg"} | _SIMENV_CORE,
    "hetsel.mrrm": {"hetsel.gll", "hetsel.trg"} | _SIMENV_CORE,
    "hetsel.mobility": {"hetsel.trg"} | _SIMENV_CORE,
    # The one exception: scenario files configure every layer, so the module
    # that parses them imports them all.
    "hetsel.simenv.scenario": {"hetsel.gll", "hetsel.mrrm", "hetsel.trg",
                               "hetsel.mobility"} | _SIMENV_CORE,
}
TOP = {"hetsel", "hetsel.cli"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = {_module_name(p): p for p in sorted((SRC / "hetsel").rglob("*.py"))}


def _imports(tree: ast.Module):
    """Yield ``(node, at_top_level)`` for every import statement."""
    def visit(node: ast.AST, top: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, top
            else:
                yield from visit(child, False)
    yield from visit(tree, True)


def _targets(module: str, node: ast.AST) -> list[str]:
    """Absolute names of the hetsel modules an import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            package = module if MODULES[module].name == "__init__.py" else module.rpartition(".")[0]
            for _ in range(node.level - 1):
                package = package.rpartition(".")[0]
            base = f"{package}.{base}" if base else package
        names = []
        for alias in node.names:
            submodule = f"{base}.{alias.name}"
            names.append(submodule if submodule in MODULES else base)
    return [name for name in names if name == "hetsel" or name.startswith("hetsel.")]


def _tree(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(encoding="utf-8"))


def test_every_module_has_a_rule():
    unruled = [m for m in MODULES
               if m not in ALLOWED and m not in TOP and not m.startswith("hetsel.harness")]
    assert unruled == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_imports_follow_the_layer_table(module):
    imported = {target for node, _ in _imports(_tree(module))
                for target in _targets(module, node)} - {module}
    if module.startswith("hetsel.harness"):
        assert "hetsel.cli" not in imported
    elif module not in TOP:
        assert imported - ALLOWED[module] == set()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_imports_only_at_module_top_level(module):
    nested = [f"line {node.lineno}" for node, top in _imports(_tree(module)) if not top]
    assert nested == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_getattr(module):
    names = [node.name for node in _tree(module).body if isinstance(node, ast.FunctionDef)]
    assert "__getattr__" not in names


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_link_layer_touches_only_links():
    """GLL owns link state only: flow ``serving`` pointers and resource
    charges belong to the environment and the decision layer."""
    tree = _tree("hetsel.gll")
    serving_writes = [
        f"line {node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "serving"
        and isinstance(node.ctx, (ast.Store, ast.Del))]
    charge_calls = [
        f"line {node.lineno}: {node.func.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("release_cell_resources", "map_flow", "unmap_flow")]
    assert serving_writes == []
    assert charge_calls == []
