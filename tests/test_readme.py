"""README's "Library quickstart" block runs as shown."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    assert "\n## Library quickstart\n" in text
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under the Library quickstart heading"
    exec(compile(block.group(1), "README.md (Library quickstart)", "exec"), {})
