"""Package-wide properties: the documented public surface, and no verdict
that `python -O` could strip."""

import ast
import pathlib
import re

import sympf2

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_public_api_lists_all_exports():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for item in re.findall(r"^- from `(\w+)`: (.*?)(?=^- |\Z)", section, re.M | re.S):
        module, names = item
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = module
    assert sorted(listed) == sorted(sympf2.__all__)
    for name, module in listed.items():
        assert getattr(sympf2, name).__module__ == f"sympf2.{module}", name


def test_library_code_has_no_assert_statements():
    # python -O strips assert statements, so a check must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "sympf2").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
