"""The package's public names, and the README's Library example run as written."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pellprime
from pellprime.search import METHODS, build_test
from pellprime.sieve import Segment

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pellprime"


def test_every_exported_name_exists():
    modules = [pellprime] + [
        importlib.import_module(f"pellprime.{info.name}")
        for info in pkgutil.iter_modules(pellprime.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def _imports(path):
    """The last dotted name of every module a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            if node.module is None:  # from . import name
                names.update(alias.name for alias in node.names)
    return {name.split(".")[-1] for name in names}


def test_names_imported_between_modules_are_exported():
    # A name that one package module imports from another is part of that
    # module's interface, so its __all__ lists it.
    checked = 0
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module):
                continue
            module = importlib.import_module(f"pellprime.{node.module}")
            for alias in node.names:
                if not alias.name.startswith("_"):
                    assert alias.name in module.__all__, (
                        path.name, node.module, alias.name)
                    checked += 1
    assert checked


def test_no_package_module_imports_the_test_oracles():
    for path in SRC.glob("*.py"):
        assert "oracles" not in _imports(path), path


def test_only_the_scan_imports_the_sieve():
    # The scan builds the sieve's record, and its stripe kernel is the only
    # code that settles verdicts from it.
    for path in SRC.glob("*.py"):
        if path.name != "search.py":
            assert "sieve" not in _imports(path), path


def test_only_the_scan_imports_the_kernel():
    # The stripe bitmasks are built and read behind kernel.py, which the
    # scan calls and which reads the sieve's record only through the public
    # methods of the Segment the scan hands it.
    for path in SRC.glob("*.py"):
        if path.name != "search.py":
            assert "kernel" not in _imports(path), path
    assert not _imports(SRC / "kernel.py") & {"sieve", "search"}


def _segment_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "Segment" in (getattr(node.func, "id", None),
                              getattr(node.func, "attr", None))]


def test_only_the_sieve_builds_a_sieve_record():
    # The record's layout is private to sieve.py: no other module reads its
    # private fields.  The scan builds one record per stripe, in
    # _scan_stripe and outside its chunk loop, and no other package module
    # builds one.
    private = {name for name in Segment.__slots__ if name.startswith("_")}
    for path in SRC.glob("*.py"):
        if path.name == "sieve.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)}
        assert not read & private, path
        built = len(_segment_calls(tree))
        if path.name == "search.py":
            (stripe,) = [node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "_scan_stripe"]
            assert built == len(_segment_calls(stripe)) == 1
            assert not any(_segment_calls(loop) for loop in ast.walk(stripe)
                           if isinstance(loop, (ast.For, ast.While)))
        else:
            assert built == 0, path


def test_no_per_n_test_takes_a_sieve():
    values = {"P": 1, "Q": 2, "R": 1, "D": 3, "x": 2, "y": 1, "a": 2,
              "selfridge": True, "variant": "v-companion"}
    for method, forms in METHODS.items():
        for form in forms:
            test, _ = build_test(method, {k: values[k] for k in form.names})
            assert "sieve" not in inspect.signature(test).parameters, (
                method, form.names)


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


# Run in a fresh ``python -S``: without ``site``, whose .pth files may
# import typing, the interpreter loads only what the package asks for.
# VERDICT_METHODS are the nine tests bench/run.py builds for its set-up
# time.
IMPORT_PATH = """\
import json, sys
import pellprime, pellprime.cli
from pellprime.search import build_test, scan_range
VERDICT_METHODS = [
    ("fermat", {"a": 2}), ("strong-base", {"a": 2}),
    ("lucas", {"selfridge": True}), ("double-lucas", {"selfridge": True}),
    ("matrix", {"selfridge": True}), ("pell", {"D": 3, "x": 2, "y": 1}),
    ("strong-pell", {"D": 3, "x": 2, "y": 1}),
    ("gen-pell", {"selfridge": True}), ("pell-variant", {})]
for method, params in VERDICT_METHODS:
    build_test(method, params)[0](2**61 + 1)
heavy = ("multiprocessing", "concurrent.futures.process", "dataclasses",
         "inspect", "typing")
loaded = [name for name in heavy if name in sys.modules]
scan = ("lucas", {"selfridge": True}, 3, 20000)
pooled = scan_range(*scan, jobs=2, chunk_odds=512)
print(json.dumps({
    "loaded": loaded, "pool_loaded": "multiprocessing" in sys.modules,
    "pooled": pooled.canonical_json(),
    "alone": scan_range(*scan, jobs=1, chunk_odds=512).canonical_json()}))
"""


def test_a_single_test_loads_no_pool_dataclasses_or_typing():
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", IMPORT_PATH], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    seen = json.loads(done.stdout)
    assert seen["loaded"] == []
    # A scan that fans out loads the pool, and its report is one process's.
    assert seen["pool_loaded"]
    assert seen["pooled"] == seen["alone"]
