"""Source hygiene: every name a library module imports is used in that module,
every name in a module's ``__all__`` is defined there, the package exports
exactly the module lists, and every error type is raised somewhere.

No linter ships with the project, so this walks each module's syntax tree
with the standard library. ``__init__.py`` is skipped because its imports are
the package's re-exports, and ``from __future__`` imports are directives.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "ionseries"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_guard_flags_an_unused_name():
    source = "import os\nfrom typing import List, Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["List"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(source: str):
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


EXPORTING = [p for p in MODULES if "__all__" in top_level_names(p.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("path", EXPORTING, ids=[p.name for p in EXPORTING])
def test_module_exports_are_defined_there(path):
    module = importlib.import_module(f"ionseries.{path.stem}")
    assert set(module.__all__) <= top_level_names(path.read_text(encoding="utf-8"))


def test_package_exports_are_the_module_lists():
    import ionseries

    modules = ("errors", "model", "series", "rwa", "oracle", "states")
    expected = ["__version__"]
    for name in modules:
        expected += importlib.import_module(f"ionseries.{name}").__all__
    assert [p.stem for p in EXPORTING] == sorted(modules)
    assert ionseries.__all__ == expected
    assert all(hasattr(ionseries, name) for name in ionseries.__all__)


def referenced_names(source: str):
    """Names a module reads, as bare names, attributes or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_names(sources: dict):
    """``module.name`` for each top-level binding that is neither in its module's
    ``__all__`` nor read by any of ``sources`` (module name -> source text)."""
    used = set().union(*(referenced_names(s) for s in sources.values()))
    dead = []
    for module, source in sources.items():
        exported = set()
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        names = top_level_names(source) - exported - used - {"__all__"}
        dead += [f"{module}.{name}" for name in sorted(names)]
    return dead


def test_dead_code_guard_flags_an_unread_name():
    sources = {
        "a": '__all__ = ["f"]\ndef f():\n    return _g()\ndef _g():\n    pass\n_UNUSED = 1\n',
        "b": "from .a import f\nclass Spare:\n    pass\n",
    }
    assert dead_names(sources) == ["a._UNUSED", "b.Spare"]


def test_no_dead_top_level_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_names(sources) == []


def raised_names(source: str):
    """Names of the exceptions a module raises, as ``raise X`` or ``raise X(...)``,
    by bare name or attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_raise_guard_finds_names_and_attributes():
    source = ("def f(x):\n    if x:\n        raise ValueError('x')\n"
              "    try:\n        pass\n    except KeyError:\n        raise\n"
              "    raise errors.PoleError\n")
    assert raised_names(source) == {"ValueError", "PoleError"}


def test_every_error_type_is_raised():
    """An error type that nothing raises is dead API that callers still catch."""
    from ionseries import errors

    raised = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))
    assert sorted(set(errors.__all__) - raised) == []


#: Modules that start threads, and the attributes that read the CPU allowance.
THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}
CPU_READS = {"sched_getaffinity", "cpu_count", "process_cpu_count"}


def thread_sites(source: str):
    """Sorted line numbers where a module imports a thread-starting module."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] in THREAD_MODULES for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in THREAD_MODULES:
                lines.add(node.lineno)
    return sorted(lines)


def cpu_reads(source: str):
    """Sorted line numbers where a module reads the CPU allowance."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name in CPU_READS for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in CPU_READS:
            lines.add(node.lineno)
    return sorted(lines)


def test_thread_guard_flags_imports_and_cpu_reads():
    source = ("import os, threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "from os import cpu_count\nn = len(os.sched_getaffinity(0))\nm = os.getpid()\n")
    assert thread_sites(source) == [1, 2]
    assert cpu_reads(source) == [3, 4]


def test_only_states_starts_threads():
    """states._run_pair is the one thread runner."""
    sites = {p.name: thread_sites(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert [name for name, lines in sorted(sites.items()) if lines] == ["states.py"]


def test_no_module_reads_the_cpu_allowance():
    """No path depends on the CPU count: states._run_pair starts its thread
    whatever the allowance, and only the work selects the serial path."""
    reads = {p.name: cpu_reads(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in reads.items() if lines} == {}


#: threading's synchronisation primitives: workers that share nothing need none.
SYNC_PRIMITIVES = {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
                   "Barrier"}


def thread_uses(source: str):
    """``(where, name)`` for each reference to ``Thread`` or to a primitive in
    SYNC_PRIMITIVES, by attribute, bare name or import; ``where`` is the
    top-level function (or class) that holds it, or ``<module>``."""
    uses = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            uses += [(where, n) for n in names if n == "Thread" or n in SYNC_PRIMITIVES]
    return uses


def test_thread_use_guard_flags_threads_and_primitives():
    source = ("import threading\nfrom threading import Event\n"
              "def run():\n    t = threading.Thread(target=len)\n    lock = threading.Lock()\n"
              "class Pool:\n    def start(self):\n        return Thread()\n"
              "def other():\n    return threading.get_ident()\n")
    assert thread_uses(source) == [("<module>", "Event"), ("run", "Thread"), ("run", "Lock"),
                                   ("Pool", "Thread")]


def test_only_the_runner_makes_threads_and_nothing_locks():
    """Only states._run_pair constructs a Thread, and its jobs share no
    lock, event, condition or semaphore, so no module creates one."""
    uses = {p.name: thread_uses(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert {name: found for name, found in uses.items() if found} == {
        "states.py": [("_run_pair", "Thread")]}


def local_package_imports(source: str):
    """Sorted line numbers where a function imports a module of the package, by
    a relative import or by the name ``ionseries``. Other lazy imports (such as
    ``model``'s of scipy) are not flagged."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                if node.level > 0 or (node.module or "").split(".")[0] == "ionseries":
                    lines.add(node.lineno)
            elif isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "ionseries" for alias in node.names):
                    lines.add(node.lineno)
    return sorted(lines)


def test_local_import_guard_flags_package_imports_in_functions():
    source = ("from . import model\nimport ionseries\n"
              "def f():\n    from .series import series_to_fock\n    from scipy.linalg import expm\n"
              "    def g():\n        import ionseries.states\n    return g\n"
              "class C:\n    def m(self):\n        from ionseries import oracle\n")
    assert local_package_imports(source) == [4, 7, 11]


def test_no_module_imports_the_package_inside_a_function():
    """Every module imports its package dependencies at module level, so the
    import graph has no cycle hidden behind a deferred import."""
    sites = {p.name: local_package_imports(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in sites.items() if lines} == {}


def ionseries_namespaces():
    """``{module name: copy of its namespace}`` for every loaded ionseries module."""
    return {key: dict(vars(m)) for key, m in list(sys.modules.items())
            if key == "ionseries" or key.startswith("ionseries.")}


def test_benchmark_tracer_installs_and_restores():
    """``perfbench/spans.py``'s Tracer patches every layer it names and its
    uninstall puts each original back: a library name the benchmark patches
    that goes missing fails here, not only in a benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {(module, func): getattr(importlib.import_module(module), func)
                 for module, func, _, _ in spans.LAYERS}
    before = ionseries_namespaces()

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, func), original in originals.items():
            assert getattr(sys.modules[module], func).__wrapped__ is original, (module, func)
    finally:
        tracer.uninstall()
    after = ionseries_namespaces()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys(), key
        assert all(after[key][name] is value for name, value in names.items()), key
