"""Every name a projdiff module imports is read there or exported.

An import nothing reads tells a reader the module depends on something
it does not use.
"""

import ast
import os

import pytest

PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "projdiff")

# perfbench/tracer.py patches sampler.position_project and
# sampler.novelty_project by name; sampler itself never calls them.
ALLOWED = {("sampler", "position_project"), ("sampler", "novelty_project")}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source that no expression reads and
    __all__ does not list."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read and name not in exported)


MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    with open(os.path.join(PACKAGE_DIR, module + ".py")) as fh:
        unused = unused_imports(fh.read())
    assert [name for name in unused if (module, name) not in ALLOWED] == []


def test_checker_sees_unread_and_exported_names():
    source = "import os\nimport numpy as np\nfrom .core import Sequence, decode\n__all__ = ['decode']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["Sequence", "os"]
