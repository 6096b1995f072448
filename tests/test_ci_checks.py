"""CI's table of run checks (.github/ci_checks.py) against the configs, the
workflow and README, without running any check."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from smtde.cli import load_config

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ci_checks",
                                               ROOT / ".github" / "ci_checks.py")
ci_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_checks)


def named_rows(path):
    """The row names that the ``python .github/ci_checks.py`` commands of a
    file give, in order; a command ends at the first word that is not a name."""
    words = path.read_text(encoding="utf-8").split()
    names = []
    for i in range(1, len(words)):
        if words[i - 1:i + 1] == ["python", ".github/ci_checks.py"]:
            for word in words[i + 1:]:
                if word == "\\":
                    continue
                if not re.fullmatch(r"\w[\w-]*", word):
                    break
                names.append(word)
    return names


@pytest.mark.parametrize("name", list(ci_checks.ROWS))
def test_row_variant_is_a_valid_config(tmp_path, name):
    # a renamed config, a removed field or a bad override fails here
    row = ci_checks.ROWS[name]
    shipped = json.loads((ROOT / "configs" / f"{row.config}.json").read_text())
    for dotted in row.overrides:
        section, key = dotted.split(".")
        assert key in shipped[section]
    path = ci_checks.write_variant(row.config, row.overrides, tmp_path / "c.json")
    load_config(json.loads(path.read_text()))
    assert row.check in ("rss", "rss-over-base", "exit", "converged", "threads")
    assert row.threads >= 1 and row.reason


@pytest.mark.parametrize("path", [".github/workflows/tests.yml", "README.md"])
def test_commands_name_every_row_once(path):
    names = named_rows(ROOT / path)
    assert sorted(names) == sorted(ci_checks.ROWS)
