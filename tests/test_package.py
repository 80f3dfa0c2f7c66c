"""The package's export list and its import structure."""

import ast
import importlib
from pathlib import Path

import pytest

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


def test_segmentation_alone_decides_the_output_lock():
    # Segment.output_lock_reason is the one record of why output mode keeps
    # a layout: masks import nothing from the planner, and no module imports
    # a refusal or join-trace helper from it
    masks = {n for n in imported_names(PACKAGE / "masks.py")
             if n == "reslice.planner" or n.startswith("reslice.planner.")}
    assert masks == set()
    from_planner = {n.rsplit(".", 1)[1] for p in PACKAGE.glob("*.py") for n in imported_names(p)
                    if n.startswith("reslice.planner.")}
    assert not {n for n in from_planner if "refusal" in n or "trace" in n}


def test_only_the_graph_module_spells_a_mode():
    # every other module names a mode as graph.MODE_INPUT or MODE_OUTPUT
    spelled = {path.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Constant) and node.value in ("input", "output")}
    assert spelled == {"graph.py"}


def owners(path, matches):
    """``module.function`` for each node of a module that ``matches``
    (``module.<module>`` outside any function)."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if matches(child):
                yield f"{path.stem}.{owner}"
            yield from visit(child, owner)
    return set(visit(ast.parse(path.read_text(), str(path)), "<module>"))


def calls_json_dump(node):
    """A call of ``json.dump`` or ``json.dumps``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")


def test_only_the_file_writer_and_stats_output_call_json_dump():
    # every file goes through graph._dump_json so that all share one
    # layout; `reslice stats --json` prints to stdout
    callers = set().union(*(owners(p, calls_json_dump) for p in PACKAGE.glob("*.py")))
    assert callers <= {"graph._dump_json", "cli.cmd_stats"}
    imported = {n for p in PACKAGE.glob("*.py") for n in imported_names(p)}
    assert not imported & {"json.dump", "json.dumps"}


def builds_json_encoder(node):
    """A call that builds a JSON encoder: ``JSONEncoder(...)`` or the C
    encoder's ``c_make_encoder(...)``, under either spelling."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in ("JSONEncoder", "c_make_encoder")


def test_the_file_writer_builds_its_one_encoder_at_module_level():
    # JSONEncoder.encode builds a new C encoder on every call; the writer
    # encodes every value and key with one, built when the module loads
    builders = set().union(*(owners(p, builds_json_encoder) for p in PACKAGE.glob("*.py")))
    assert builders == {"graph.<module>"}
    tree = ast.parse((PACKAGE / "graph.py").read_text())
    made = [n for n in ast.walk(tree) if builds_json_encoder(n)
            and ast.unparse(n.func).rsplit(".", 1)[-1] == "c_make_encoder"]
    assert len(made) == 1


def calls_build_parser(node):
    """A call of ``build_parser``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "build_parser")


def test_the_command_line_parser_is_built_once_per_process():
    # building the four-command parser costs about as much as parsing with
    # it; reslice.cli builds it when the module loads, and main reuses it
    assert owners(PACKAGE / "cli.py", calls_build_parser) == {"cli.<module>"}


def reads_version(node):
    """A read of a ``"version"`` key: ``obj["version"]`` or
    ``obj.get("version", ...)``."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        key = node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "get" and node.args):
        key = node.args[0]
    else:
        return False
    return isinstance(key, ast.Constant) and key.value == "version"


def test_only_expect_version_reads_a_file_version():
    # every reader checks its file's version through graph._expect_version,
    # so that all refuse the same values (a bool, a float, a missing key)
    readers = set().union(*(owners(p, reads_version) for p in PACKAGE.glob("*.py")))
    assert readers == {"graph._expect_version"}


READ_MODES = {"r", "rt", "tr", "rb", "br"}


def writes_a_file(node):
    """A call that can write a file: ``write_text``, ``write_bytes``, or an
    ``open`` whose mode may be other than a constant read mode. The mode is
    the second argument of ``open(path, mode)``; in ``x.open(...)`` it may
    be the first (``Path.open(mode)``) or the second (``io.open(path,
    mode)``), so such a call reads only if both are constant read modes."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:2]
    modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
    return not all(isinstance(m, ast.Constant) and m.value in READ_MODES for m in modes)


@pytest.mark.parametrize("code, writes", [
    ("open(p, 'wb')", True), ("open(p, mode='a')", True), ("open(p, 'r+')", True),
    ("open(p, m)", True), ("Path(p).open('x')", True), ("io.open(p, 'w')", True),
    ("p.write_text(s)", True), ("p.write_bytes(b)", True),
    ("open(p)", False), ("open(p, 'rb')", False), ("Path(p).open()", False),
    ("Path(p).open('rb')", False),
    ("p.read_text()", False),
])
def test_the_writer_check_reads_open_modes(code, writes):
    assert any(writes_a_file(n) for n in ast.walk(ast.parse(code))) == writes


def test_only_the_file_writer_opens_a_file_for_writing():
    # one writer lays out every file; bytes payloads must not grow a second
    writers = set().union(*(owners(p, writes_a_file) for p in PACKAGE.glob("*.py")))
    assert writers == {"graph._dump_json"}


def builds_copy_stats(node):
    """A call of ``CopyStats(...)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "CopyStats")


def test_one_function_defines_the_copy_count():
    # a plan's copy cost is read off the plan in SegmentPlan.stats and
    # summed by copy_report; no planner counts on its own
    builders = set().union(*(owners(p, builds_copy_stats) for p in PACKAGE.glob("*.py")))
    assert builders == {"planner.stats", "planner.copy_report"}


def traced_names():
    """``(owner, attribute)`` for each entry of ``PATCHES`` in
    bench/tracing.py, read from its source: the owner as dotted text."""
    path = PACKAGE.parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    [patches] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["PATCHES"]]
    return [(ast.unparse(entry.elts[0]), entry.elts[1].value) for entry in patches.elts]


def resolve(dotted):
    """The object a dotted name such as ``reslice.graph.ModelGraph`` names:
    a module of the package, then attributes."""
    package, module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_name_the_tracer_patches_exists():
    # the benchmark's tracer replaces these attributes at install; one that
    # a refactor drops would otherwise fail only there
    names = traced_names()
    assert len(names) > 10 and all(owner.startswith("reslice.") for owner, _ in names)
    assert [f"{owner}.{attr}" for owner, attr in names
            if not hasattr(resolve(owner), attr)] == []
