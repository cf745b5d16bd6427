"""The README's documented library entry points exist."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_import():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "from pumpcausal import" in block
    exec(compile(block, str(README), "exec"), {})
