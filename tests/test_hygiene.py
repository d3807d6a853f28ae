"""Static checks over the package source: no unused import, no
module-level private function that nothing in the package references, and
no public module-level function or class, and no public method or property
of a class, that only the tests use; no except clause that names
JSONDecodeError; no JSON parse outside `files.parse_json`; no JSON
serialization outside `files.dump_json` but `cli.main`'s error line; no file
write outside `files.py`; no directory made outside `cli._out_dir`; and no
CLI option that no test or bench run passes."""

import argparse
import ast
from pathlib import Path

import polycap
from polycap.cli import build_parser

SRC = Path(polycap.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "perfbench"


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, every attribute it names, and the
    entries of its __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in MODULES.items():
        used = used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno}: {bound}")
    assert unused == []


def test_no_unreferenced_private_functions():
    used = set().union(*(used_names(tree) for tree in MODULES.values()))
    unreferenced = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


def test_no_public_names_only_the_tests_use():
    """A public function, class, method or property must be read by the
    package or by the bench harness; one that only the tests reach belongs
    in the tests. Dunders are exempt: the language calls them."""
    bench = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(BENCH.glob("*.py"))
        if not path.name.startswith("test_")
    ]
    assert bench, f"no bench modules under {BENCH}"
    used = set().union(*(used_names(tree) for tree in [*MODULES.values(), *bench]))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    unreferenced = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (*defs, ast.ClassDef)) and not node.name.startswith("_") and node.name not in used:
                unreferenced.append(f"{name}:{node.lineno}: {node.name}")
            if isinstance(node, ast.ClassDef):
                unreferenced += [
                    f"{name}:{method.lineno}: {node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, defs) and not method.name.startswith("_") and method.name not in used
                ]
    assert unreferenced == []


def test_no_except_clause_names_json_decode_error():
    """json.loads raises a plain ValueError for an integer past Python's
    integer-string digit limit, and UnicodeDecodeError is a ValueError too: a
    reader of outside JSON that catches only JSONDecodeError lets such input
    out as a raw exception (exit 3). Catch ValueError, the parent of both."""
    named = [
        f"{name}:{handler.lineno}"
        for name, tree in MODULES.items()
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        and "JSONDecodeError" in used_names(handler.type)
    ]
    assert named == []


def nodes_inside(module: str, function: str) -> set[int]:
    """The ids of every AST node of the module-level `function` of `module`
    (none if it has no such function: nothing is exempt then)."""
    return {
        id(inner)
        for node in MODULES[module].body
        if getattr(node, "name", None) == function
        for inner in ast.walk(node)
    }


def test_json_is_parsed_only_by_the_one_parser():
    """`files.parse_json` is the one parser of JSON text: it reports each key
    repeated within an object, which `json.loads` alone drops silently, and
    raises only ValueError, which every caller catches. A reader that called
    `json.load` or `json.loads` itself would skip both rules."""
    inside = nodes_inside("files.py", "parse_json")
    elsewhere = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
            and isinstance(node.value, ast.Name) and node.value.id == "json"
            or isinstance(node, ast.ImportFrom) and node.module == "json"
        )
    ]
    assert elsewhere == []


def test_json_is_written_only_by_the_one_writer():
    """`files.dump_json` is the one serializer of JSON output: keys sorted and
    every character written as itself, so each document polycap emits is
    UTF-8 with one key order. The one exemption is `cli.main`'s error line:
    stderr writes in the locale's encoding with `backslashreplace`, so only
    ASCII-escaped JSON is valid there under every locale."""
    inside = nodes_inside("files.py", "dump_json") | nodes_inside("cli.py", "main")
    elsewhere = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if id(node) not in inside
        and isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ]
    assert elsewhere == []


def test_directories_are_made_only_by_out_dir():
    """`cli._out_dir` claims a command's `--out`: it makes the directory and
    removes an older run's manifest from it. A module that made a directory
    itself (`mkdir`, `makedirs`) could write outputs without that claim."""
    inside = nodes_inside("cli.py", "_out_dir")
    made = [
        f"{name}:{node.lineno}: {called}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if id(node) not in inside and isinstance(node, ast.Call)
        and (called := getattr(node.func, "attr", getattr(node.func, "id", None))) in ("mkdir", "makedirs")
    ]
    assert made == []


def test_files_are_written_only_through_atomic_write():
    """Every output goes through `files.atomic_write`, so a crash mid-write
    cannot leave a half-written file: no module but `files.py` calls
    `write_bytes`, `write_text`, `os.replace`, `os.rename` or `os.open`, or
    opens a file with a mode that writes (or one not spelled as a literal)."""
    writes = []
    for name, tree in MODULES.items():
        if name == "files.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            on_os = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os"
            if called in ("write_bytes", "write_text") or on_os and called in ("replace", "rename", "open"):
                writes.append(f"{name}:{node.lineno}: {called}")
            elif called == "open":  # open(file, mode) or path.open(mode)
                positional = node.args[1:] if isinstance(func, ast.Name) else node.args
                mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
                mode = mode or (positional[0] if positional else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                    writes.append(f"{name}:{node.lineno}: open mode {ast.unparse(mode)}")
    assert writes == []


def test_every_cli_option_is_passed_by_some_run():
    """Each option of each `polycap` subcommand appears in some list or
    tuple literal that starts with that subcommand (an argv, or a test's
    (command, option, ...) parameters), in the tests, the golden pin script
    or the bench workloads. An option no run passes is untested:
    `prepare --min-count` once left an empty `--out` behind unseen."""
    [commands] = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        (name, option)
        for name, sub in commands.items()
        for action in sub._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    passed = set()
    for path in [*sorted(TESTS.glob("*.py")), TESTS / "golden" / "pin.py", BENCH / "workloads.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.List, ast.Tuple)) or not node.elts:
                continue
            command, *rest = node.elts
            if isinstance(command, ast.Constant) and command.value in commands:
                passed.update(
                    (command.value, e.value.split("=")[0])
                    for e in rest
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
    assert sorted(options - passed) == []
