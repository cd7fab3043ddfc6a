"""The names the benchmark, the tools and the demos take from the package.

The benchmark and the tools run outside the test suite, so deleting or
renaming a name only they use would otherwise surface as a failed benchmark
run.  The test reads the scripts' source and runs none of them.  The other
way round, every name the package exports, and every field of a result
type it exports, must be read by code outside the tests: a public name only
tests call is a second way into a result, and a field only tests read is a
value nothing reports.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import harmoniccascade
from harmoniccascade import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(path for folder in ("perfbench", "tools", "demos")
                 for path in (ROOT / folder).glob("*.py"))


def _package_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "harmoniccascade"):
            for alias in node.names:
                yield node.module, alias.name


def _patched_cli_names(tree: ast.AST) -> list[str]:
    # the keys of the patches dict in perfbench/workloads._instrumented_cli,
    # which swaps cli's module names for traced wrappers
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_instrumented_cli")
    patches = next(node.value for node in ast.walk(func)
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "patches"
                           for t in node.targets))
    return [ast.literal_eval(key) for key in patches.keys]


def test_names_used_by_benchmark_tools_and_demos_exist():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SCRIPTS}
    imported = [(path, module, name) for path, tree in trees.items()
                for module, name in _package_imports(tree)]
    assert imported
    missing = [f"{path.relative_to(ROOT)}: {name} from {module}"
               for path, module, name in imported
               if not (hasattr(importlib.import_module(module), name)
                       or importlib.util.find_spec(f"{module}.{name}"))]
    patched = _patched_cli_names(trees[ROOT / "perfbench" / "workloads.py"])
    assert patched
    missing += [f"perfbench/workloads.py rebinds cli.{name}"
                for name in patched if not hasattr(cli, name)]
    assert not missing, "no such name: " + "; ".join(missing)


def _cli_attribute_reads(tree: ast.AST):
    # names bound to the module by `from harmoniccascade import cli [as x]`
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "harmoniccascade"
             for alias in node.names if alias.name == "cli"}
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in bound]


def test_attributes_read_off_cli_exist():
    read = [(path, name) for path in SCRIPTS
            for name in _cli_attribute_reads(
                ast.parse(path.read_text(encoding="utf-8")))]
    assert {"main", "build_config"} <= {name for _, name in read}
    missing = [f"{path.relative_to(ROOT)}: cli.{name}"
               for path, name in read if not hasattr(cli, name)]
    assert not missing, "no such name: " + "; ".join(missing)


def _names_read(tree: ast.AST):
    # what an ast.Name or an ast.Attribute reads
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def _non_test_trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for folder in ("src", "demos", "tools", "perfbench")
            for path in (ROOT / folder).rglob("*.py")]


def test_every_package_export_has_a_non_test_reader():
    read = {name for tree in _non_test_trees() for name in _names_read(tree)}
    unread = [name for name in harmoniccascade.__all__ if name not in read]
    assert not unread, "exported but read only by tests: " + ", ".join(unread)


def test_every_result_field_has_a_non_test_reader():
    # a string constant counts too: perfbench reads GridSummary's fields
    # through getattr
    trees = _non_test_trees()
    read = {name for tree in trees for name in _names_read(tree)}
    read |= {node.value for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    fields = [(name, field.name) for name in harmoniccascade.__all__
              if dataclasses.is_dataclass(obj := getattr(harmoniccascade, name))
              for field in dataclasses.fields(obj)]
    assert fields
    unread = [f"{name}.{field}" for name, field in fields if field not in read]
    assert not unread, "field read only by tests: " + ", ".join(unread)
