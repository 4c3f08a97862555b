"""The example files in the README parse as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

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
