"""The example files in the README parse as written."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from ranguard.cli import build_parser
from ranguard.ransim import parse_scenario
from ranguard.xapp import parse_policy

README = Path(__file__).resolve().parents[1] / "README.md"


def ini_blocks(heading: str) -> list[str]:
    """The ```ini blocks of one README section: from its heading to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n") + len(heading) + 2
    end = re.search(r"\n#{1,3} ", text[start:])
    section = text[start:] if end is None else text[start : start + end.start()]
    return re.findall(r"```ini\n(.*?)```", section, re.S)


@pytest.mark.parametrize(
    "heading, parse",
    [("### Scenario files", parse_scenario), ("### Policy files", parse_policy)],
    ids=["scenario", "policy"],
)
def test_readme_examples_parse(heading, parse):
    blocks = ini_blocks(heading)
    assert blocks, f"no ini block under {heading!r}"
    for block in blocks:
        parse(block)


def test_readme_library_imports_resolve():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"\n## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    imports = [node for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)]
    assert imports
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), {})


def cli_commands() -> list[str]:
    """Each `ranguard` command of the README's CLI block, its backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"\n## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("ranguard ")]


def test_readme_cli_commands_parse():
    commands = cli_commands()
    assert commands
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
