"""README.md's ``python`` examples run, in order, in one namespace, so an
example that names a parameter or unpacks a return value cannot drift from
the code; and README's claims about the code's layout hold."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src" / "mmsets"


def test_readme_python_examples_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    namespace = {}
    for block in blocks:
        # pad with the lines above the block, so a traceback names README's line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)


def _calls(tree) -> set:
    """The names called under ``tree``, bare or as an attribute: ``f`` for
    both ``f(...)`` and ``T.f(...)``."""
    return {getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_tensor_holds_only_the_ops_the_package_calls():
    """Each function of ``mmsets.tensor`` that records on the tape (calls
    ``register_op``) is called by another module of the package; an op that
    only tests call belongs in tests/helpers.py."""
    assert "only the ops the package calls" in " ".join(README.read_text().split())
    tree = ast.parse((SRC / "tensor.py").read_text())
    ops = {fn.name for fn in tree.body
           if isinstance(fn, ast.FunctionDef) and "register_op" in _calls(fn)}
    assert {"linear", "scatter_rows"} <= ops
    called = set().union(*(_calls(ast.parse(path.read_text()))
                           for path in SRC.glob("*.py") if path.name != "tensor.py"))
    assert sorted(ops - called) == []
