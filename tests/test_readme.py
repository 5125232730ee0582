"""README.md's ``python`` examples run, in order, in one namespace, so an
example that names a parameter or unpacks a return value cannot drift from
the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    namespace = {}
    for block in blocks:
        # pad with the lines above the block, so a traceback names README's line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)
