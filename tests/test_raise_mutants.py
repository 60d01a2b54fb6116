"""tools/raise_mutants.py: the raise-to-pass rewrite alone (the full run
takes minutes and stays out of this suite)."""

import ast
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SOURCE = '''\
def f(x):
    if x < 0: raise ValueError("négatif")  # one line
    try:
        return 1 / x
    except ZeroDivisionError as exc:
        raise ArithmeticError(
            "zero",
        ) from exc
    finally:
        pass


def g():
    try:
        f(0)
    except ArithmeticError:
        raise
'''


@pytest.fixture
def raise_mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import raise_mutants

    return raise_mutants


def test_each_raise_of_an_exception_is_one_span(raise_mutants):
    spans = raise_mutants.raise_spans(SOURCE)
    assert [(line, end_line) for line, _, end_line, _ in spans] == [(2, 2), (6, 8)]


def test_a_mutant_replaces_exactly_one_raise_with_pass(raise_mutants):
    first, second = (raise_mutants.mutate(SOURCE, span) for span in raise_mutants.raise_spans(SOURCE))
    assert first.splitlines()[1] == "    if x < 0: pass  # one line"
    assert first.splitlines()[2:] == SOURCE.splitlines()[2:]
    assert second.splitlines()[:5] == SOURCE.splitlines()[:5]
    assert second.splitlines()[5] == "        pass"
    assert second.splitlines()[6:] == SOURCE.splitlines()[8:]
    for mutant in (first, second):
        raises = [n for n in ast.walk(ast.parse(mutant)) if isinstance(n, ast.Raise)]
        assert len(raises) == 2  # the other raise and the bare re-raise
    namespace = {}
    exec(compile(first, "<first>", "exec"), namespace)
    assert namespace["f"](-2) == -0.5  # the guard is gone


def test_mutants_cover_every_raise_of_a_package(raise_mutants, tmp_path):
    (tmp_path / "a.py").write_text(SOURCE, "utf-8")
    (tmp_path / "b.py").write_text("def h():\n    raise KeyError('k')\n", "utf-8")
    assert [(name, line) for name, line, _ in raise_mutants.mutants(tmp_path)] == [
        ("a.py", 2), ("a.py", 6), ("b.py", 2)]


def test_the_suite_runs_the_acceptance_battery_last(raise_mutants, tmp_path):
    (tmp_path / "tests").mkdir()
    for name in ("test_acceptance.py", "test_b.py", "test_a.py", "conftest.py"):
        (tmp_path / "tests" / name).write_text("", "utf-8")
    command = raise_mutants.suite_command(tmp_path)
    assert "-x" in command
    assert command[-3:] == ["tests/test_a.py", "tests/test_b.py", "tests/test_acceptance.py"]
