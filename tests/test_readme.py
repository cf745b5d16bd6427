"""The README's documented library entry points and subcommands exist."""

import re
from pathlib import Path

from pumpcausal.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_import():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "from pumpcausal import" in block
    exec(compile(block, str(README), "exec"), {})


def test_subcommands_are_the_cli_commands():
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Subcommands: (.*?)\.\s", text, re.DOTALL).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == list(main.commands)
