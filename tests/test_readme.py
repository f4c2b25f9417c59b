"""The README's library quick start runs against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.DOTALL)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
