"""The README's documented library entry points, subcommands and config
defaults match the code."""

import re
from pathlib import Path

from pumpcausal.cli import _parser
from pumpcausal.pipeline import PipelineConfig, load_config

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
    (commands,) = (action.choices for action in _parser()._actions if action.dest == "command")
    assert re.findall(r"`([^`]+)`", sentence) == list(commands)


def test_config_example_holds_the_defaults(tmp_path):
    text = README.read_text(encoding="utf-8")
    example = tmp_path / "readme.ini"
    example.write_text(text.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    assert load_config(example) == PipelineConfig()
