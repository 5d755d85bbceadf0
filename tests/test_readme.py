"""README.md stays true to the package: every ``hetsel.<name>`` it mentions
resolves, and its ``python`` example runs from the repository root."""

from __future__ import annotations

import importlib
import re

from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text()


def _mentioned_names() -> list[str]:
    """Every dotted ``hetsel.<name>`` that opens a code span, as written."""
    return sorted(set(re.findall(r"`(hetsel(?:\.[A-Za-z_]\w*)+)", README)))


def _resolves(dotted: str) -> bool:
    """True when ``dotted`` names a module, or an attribute reached from the
    longest importable module prefix."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_every_hetsel_name_the_readme_mentions_resolves():
    names = _mentioned_names()
    assert names
    assert [name for name in names if not _resolves(name)] == []


def test_the_readme_python_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert "handovers" in capsys.readouterr().out
