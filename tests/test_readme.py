"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README.md has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out
