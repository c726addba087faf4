"""The package's public names, and the README's Library example run as written."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pellprime

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pellprime"


def test_every_exported_name_exists():
    modules = [pellprime] + [
        importlib.import_module(f"pellprime.{info.name}")
        for info in pkgutil.iter_modules(pellprime.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_no_package_module_imports_the_test_oracles():
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[-1] == "oracles" for n in names), path


def _library_block():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_as_written():
    block = _library_block()
    namespace = {}
    exec(block, namespace)
    shown = re.search(r"^report\.pseudoprimes\s+#\s*(\(.*\))$", block, re.M)
    assert namespace["report"].pseudoprimes == ast.literal_eval(shown.group(1))
    # the outcome each verdict line shows in its comment
    for line in block.splitlines():
        m = re.match(r"^(\S.*\.outcome)\s+#\s*(\w+)", line)
        if m:
            assert eval(m.group(1), namespace).name == m.group(2), line


def test_package_exports_what_the_readme_uses():
    imported = re.search(r"from pellprime import \((.*?)\)", _library_block(),
                         re.S).group(1)
    readme_names = {name.strip() for name in imported.split(",")}
    assert set(pellprime.__all__) == readme_names | {
        "build_test", "grid_scan", "Outcome", "Verdict"}
