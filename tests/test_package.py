"""The package's export list and its import structure."""

import ast
from pathlib import Path

import reslice

PACKAGE = Path(reslice.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert len(set(reslice.__all__)) == len(reslice.__all__)
    assert [name for name in reslice.__all__ if not hasattr(reslice, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from reslice import *", namespace)
    assert set(reslice.__all__) <= set(namespace)


def imported_names(path):
    """Dotted names a module imports: ``from a import b`` gives ``a.b``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{a.name}" for a in node.names)


def test_only_the_pipeline_imports_the_path_search():
    # the path search is a comparison reference that export no longer
    # runs; reslice.pipeline imports the names bench/tracing.py patches on
    # it, and nothing else may come to depend on the module
    importers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = {n for n in imported_names(path)
                 if n == "reslice.path_search" or n.startswith("reslice.path_search.")}
        if names:
            importers[path.name] = names
    assert importers == {"pipeline.py": {"reslice.path_search.build_reorder_graph",
                                         "reslice.path_search.decompose_paths",
                                         "reslice.path_search.order_channels",
                                         "reslice.path_search.reduce_producers"}}


def test_the_planner_picks_no_order():
    # every strategy's channel order is chosen in reslice.pipeline; the
    # planner only lays out the order it is given, band by band
    names = {n for n in imported_names(PACKAGE / "planner.py")
             if n == "reslice.ordering" or n.startswith("reslice.ordering.")}
    assert names == {"reslice.ordering.band_layouts"}


def json_dump_callers(path):
    """``module.function`` for each call of ``json.dump`` or ``json.dumps``
    in a module (``module.<module>`` outside any function)."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("dump", "dumps")
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "json"):
                yield f"{path.stem}.{owner}"
            yield from visit(child, owner)
    return set(visit(ast.parse(path.read_text(), str(path)), "<module>"))


def test_only_the_file_writer_and_stats_output_call_json_dump():
    # every file goes through graph._dump_json so that all share one
    # layout; `reslice stats --json` prints to stdout
    callers = set().union(*(json_dump_callers(p) for p in PACKAGE.glob("*.py")))
    assert callers <= {"graph._dump_json", "cli.cmd_stats"}
    imported = {n for p in PACKAGE.glob("*.py") for n in imported_names(p)}
    assert not imported & {"json.dump", "json.dumps"}
