"""The code the tier-1 run executes imports only what that run has: the
standard library, the package, the tests' and the benchmark's own
modules, and the packages tier1.yml installs. The workflow runs
perfbench/run.py too, so perfbench is scanned with the rest. A package
present on one machine but not installed by the workflow (an
arbitrary-precision library, say) would pass locally and fail there."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
PYPROJECT = ROOT / "pyproject.toml"
# the package, the tests' modules and perfbench's, which imports its siblings by name
LOCAL = {"holderlab", "helpers", "oracle", "conftest", "run", "traced"}


def installed_by_workflow():
    """Package names on the workflow's `pip install` line."""
    line = re.search(r"pip install ([^\n]+)", WORKFLOW.read_text())
    assert line, "no pip install line in %s" % WORKFLOW
    return {re.split(r"[<>=\[]", word)[0] for word in line.group(1).split() if word[0] != "-"}


def declared_by_pyproject():
    """Package names in pyproject.toml's dependencies and its test
    extra, read with a regex: Python 3.10 has no tomllib."""
    text = PYPROJECT.read_text()
    names = set()
    for key in ("dependencies", "test"):
        block = re.search(r"^%s = \[(.*?)\]" % key, text, re.M | re.S)
        assert block, "no %s list in %s" % (key, PYPROJECT)
        for req in re.findall(r'"([^"]+)"', block.group(1)):
            names.add(re.split(r"[<>=~!;\[ ]", req)[0])
    return names


def imported_packages(path):
    """(line, top-level package) of every absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_tier1_code_imports_only_what_the_workflow_installs():
    allowed = set(sys.stdlib_module_names) | LOCAL | installed_by_workflow()
    stray = [
        "%s:%d imports %s" % (path.relative_to(ROOT), line, name)
        for folder in ("src", "tests", "bench", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in imported_packages(path)
        if name not in allowed
    ]
    assert not stray, stray


def test_workflow_installs_what_pyproject_declares():
    assert installed_by_workflow() == declared_by_pyproject()
