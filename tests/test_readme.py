"""The README's Python snippets run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_snippets():
    assert len(BLOCKS) >= 4


def test_readme_python_snippets_run_in_order():
    namespace: dict = {}
    for number, block in enumerate(BLOCKS, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
