"""The package's lazily re-exported names and README's Quickstart."""

import ast
import importlib
from pathlib import Path

import pytest

import regmap

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_is_the_object_its_module_defines():
    for name, module in regmap._MODULE_OF.items():
        defined = getattr(importlib.import_module(f"regmap.{module}"), name)
        # __getattr__ itself, then the attribute it leaves in the package
        assert regmap.__getattr__(name) is defined
        assert getattr(regmap, name) is defined


def test_dir_lists_all():
    listed = dir(regmap)
    assert listed == sorted(listed)
    assert set(regmap.__all__) <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'regmap' has no attribute 'nope'$"):
        regmap.nope


def test_readme_quickstart_gives_the_values_in_its_comments():
    # An expression is checked against the comment on its last line, an
    # assignment against a comment line right after it.
    text = README.read_text(encoding="utf-8")
    source = text.split("## Quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            comment = lines[node.end_lineno - 1].split("#", 1)[1]
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            following = lines[node.end_lineno] if node.end_lineno < len(lines) else ""
            if not (isinstance(node, ast.Assign) and following.startswith("#")):
                continue
            value = namespace[node.targets[0].id]
            comment = following[1:]
        assert repr(value) == comment.strip()
        checked.append(comment.strip())
    assert len(checked) == 3
