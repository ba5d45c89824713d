"""The reachability census (``scripts/census.py``) on synthetic trees."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"


def _load_census():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


census = _load_census()

#: A production entry point and the package it lives in.
CLI = """
from repro.lib import used

def main():
    return used()
"""


def tree(root: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (path -> source) under ``root``, plus the CLI."""
    files = {"src/repro/__init__.py": "", "src/repro/cli.py": CLI, **files}
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def findings(root: Path) -> dict[str, set[str]]:
    return {kind: {node.id for node in nodes}
            for kind, nodes in census.Census(root).findings().items()}


def test_tells_test_bench_and_unreferenced_definitions_apart(tmp_path):
    root = tree(tmp_path, {
        "src/repro/lib.py": """
            def used():
                return 1

            def for_tests():
                return 2

            def for_examples():
                return 3

            def nobody():
                return 4

            class Box:
                def open(self):
                    return 5

                def peek(self):
                    return 6
            """,
        "tests/test_lib.py": """
            from repro.lib import Box, for_tests

            def test_it():
                assert for_tests() == 2
                assert Box().peek() == 6
            """,
        "examples/demo.py": """
            from repro.lib import for_examples
            print(for_examples())
            """,
    })
    found = findings(root)
    assert found["test-only"] == {"repro.lib:for_tests", "repro.lib:Box",
                                  "repro.lib:Box.peek"}
    assert found["bench/example-only"] == {"repro.lib:for_examples"}
    assert found["never referenced"] == {"repro.lib:nobody",
                                         "repro.lib:Box.open"}


def test_registered_class_is_reachable(tmp_path):
    root = tree(tmp_path, {
        "src/repro/lib.py": """
            _REGISTRY = {}

            def used():
                return [stage.compute() for stage in _REGISTRY.values()]

            def register(cls):
                _REGISTRY[cls.name] = cls()
                return cls

            @register
            class Stage:
                name = "stage"

                def compute(self):
                    return 1

            class Unregistered:
                def compute(self):
                    return 2
            """,
    })
    found = findings(root)
    assert found["never referenced"] == {"repro.lib:Unregistered",
                                         "repro.lib:Unregistered.compute"}


def test_reference_from_unreachable_code_does_not_count(tmp_path):
    root = tree(tmp_path, {
        "src/repro/lib.py": """
            def used():
                return 1

            def dead():
                return helper() + Widget().size()

            def helper():
                return 2

            class Widget:
                def size(self):
                    return 3
            """,
    })
    assert findings(root)["never referenced"] == {
        "repro.lib:dead", "repro.lib:helper", "repro.lib:Widget",
        "repro.lib:Widget.size"}


def test_pep562_table_entry_is_a_reexport_not_a_use(tmp_path):
    root = tree(tmp_path, {
        "src/repro/lib.py": """
            from repro.pkg import Exported

            def used():
                return Exported()
            """,
        "src/repro/pkg/__init__.py": """
            from importlib import import_module

            _EXPORTS = {"Exported": "repro.pkg.impl",
                        "Listed": "repro.pkg.impl"}
            __all__ = list(_EXPORTS)

            def __getattr__(name):
                return getattr(import_module(_EXPORTS[name]), name)
            """,
        "src/repro/pkg/impl.py": """
            class Exported:
                pass

            class Listed:
                pass
            """,
    })
    found = findings(root)
    assert found["never referenced"] == {"repro.pkg.impl:Listed"}


def test_perfbench_wrapped_names_are_kept(tmp_path):
    root = tree(tmp_path, {
        "src/repro/lib.py": """
            def used():
                return 1

            def run_level1():
                return 1

            def run_level2():
                return 2

            class Solver:
                def solve(self):
                    return 3

                def unwrapped(self):
                    return 4
            """,
        "perfbench/traced.py": """
            from repro import lib
            from repro.lib import Solver

            def install(wrap):
                for level in (1, 2):
                    wrap(lib, f"run_level{level}", "flow")
                wrap(Solver, "solve", "sat")
            """,
    })
    assert findings(root)["never referenced"] == {"repro.lib:Solver.unwrapped"}


def test_write_only_field_is_listed(tmp_path):
    root = tree(tmp_path, {
        "src/repro/lib.py": """
            from dataclasses import dataclass

            @dataclass
            class Result:
                value: int
                journal: list

            def used():
                result = Result(1, [])
                return result.value
            """,
        "tests/test_lib.py": """
            from repro.lib import Result

            def test_journal():
                assert Result(1, [2]).journal == [2]
            """,
    })
    assert census.Census(root).write_only() == [
        ("repro.lib:Result", "journal", 7)]


def _check(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "--check",
                           "--root", str(root)],
                          capture_output=True, text=True, timeout=60)


PLANTED = {
    "src/repro/lib.py": """
        def used():
            return 1

        def planted():
            return 2
        """,
    "tests/test_lib.py": """
        from repro.lib import planted

        def test_planted():
            assert planted() == 2
        """,
}


def test_check_fails_on_a_planted_test_only_definition(tmp_path):
    clean = _check(tree(tmp_path / "clean", {
        "src/repro/lib.py": "def used():\n    return 1\n"}))
    assert clean.returncode == 0, clean.stderr
    planted = _check(tree(tmp_path / "planted", PLANTED))
    assert planted.returncode == 1
    assert "repro.lib:planted is test-only" in planted.stderr


@pytest.mark.parametrize("line, passes", [
    ("repro.lib:planted", False),
    ("repro.lib:planted the tests use it", False),
    ("repro.lib:planted ROADMAP item 4 decides it", True),
    ("repro.lib:planted kept for examples/demo.py", True),
])
def test_check_needs_an_allowlist_reason(tmp_path, line, passes):
    root = tree(tmp_path, {**PLANTED,
                           "scripts/census_allowlist.txt": line + "\n"})
    result = _check(root)
    assert (result.returncode == 0) == passes, result.stderr


def test_check_fails_on_a_stale_allowlist_line(tmp_path):
    root = tree(tmp_path, {
        "src/repro/lib.py": "def used():\n    return 1\n",
        "scripts/census_allowlist.txt": "repro.lib:used ROADMAP item 4\n"})
    result = _check(root)
    assert result.returncode == 1
    assert "no longer" in result.stderr
