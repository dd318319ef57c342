"""The code the tier-1 run executes imports only what that run has: the
standard library, the package and the tests' own modules, and the
packages tier1.yml installs. A package present on one machine but not
installed by the workflow (an arbitrary-precision library, say) would
pass locally and fail there."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
LOCAL = {"holderlab", "helpers", "conftest"}


def installed_by_workflow():
    """Package names on the workflow's `pip install` line."""
    line = re.search(r"pip install ([^\n]+)", WORKFLOW.read_text())
    assert line, "no pip install line in %s" % WORKFLOW
    return {re.split(r"[<>=\[]", word)[0] for word in line.group(1).split() if word[0] != "-"}


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
        for folder in ("src", "tests", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in imported_packages(path)
        if name not in allowed
    ]
    assert not stray, stray
