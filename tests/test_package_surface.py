"""The package surface: one import path per name.

A package ``__init__.py`` is its docstring. The exceptions are
``repro.migp``, which defines ``MIGP_KINDS`` and ``make_migp`` from its
own modules, and five names ``bench/`` reaches through a package. Every
other importer imports a name from the module that defines it, so each
``repro`` module must also import on its own: an import that only
worked because a package ``__init__`` had loaded a sibling first fails
here.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: Package -> the names it re-exports, by defining module.
FACADES = {
    "checkpoint": {"capture": "repro.checkpoint.core",
                   "restore": "repro.checkpoint.core"},
    "scenarios": {"discover_scenarios": "repro.scenarios.loader",
                  "load_scenario": "repro.scenarios.loader",
                  "run_scenario": "repro.scenarios.engine"},
}

#: What ``repro.migp`` defines itself.
MIGP_DEFINITIONS = {"MIGP_KINDS", "make_migp"}


def _inits():
    return sorted(PACKAGE.glob("*/__init__.py"))


def _imported(init: Path) -> dict:
    """Name bound by each import in ``init`` -> the module it came from
    (a submodule import binds the submodule's own name)."""
    names = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name, alias.name)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update((alias.asname or alias.name, node.module)
                         for alias in node.names)
    return names


def _defined(init: Path) -> set:
    names = set()
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets)
    return names


def test_package_inits_re_export_only_the_bench_facades():
    for init in _inits():
        package = init.parent.name
        imported = _imported(init)
        if package == "migp":
            submodules = {path.stem for path in init.parent.glob("*.py")}
            assert set(imported.values()) == {"repro.migp"}, imported
            assert set(imported) <= submodules, imported
            assert _defined(init) == MIGP_DEFINITIONS
            continue
        assert imported == FACADES.get(package, {}), package
        assert not _defined(init), package


def test_facades_come_from_their_defining_modules():
    for package, names in FACADES.items():
        for name, module in names.items():
            value = getattr(importlib.import_module(f"repro.{package}"),
                            name)
            assert value.__module__ == module, name


#: Forks one child per module from an interpreter that has imported no
#: ``repro`` module, so each child imports its module from nothing.
_IMPORT_EACH = """
import importlib, os, sys, traceback
failed = []
for name in sys.argv[1:]:
    pid = os.fork()
    if pid == 0:
        try:
            importlib.import_module(name)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    if os.waitpid(pid, 0)[1] != 0:
        failed.append(name)
print(" ".join(failed))
"""


def test_every_module_imports_on_its_own():
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in PACKAGE.rglob("*.py")
        if path.stem != "__main__"
    )
    assert len(modules) > 90
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH, *modules],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == [], completed.stderr
