"""README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README.name} quickstart", "exec"), namespace)
    assert namespace["distance"].shape == (namespace["driver"].n_steps + 1,)
