"""``tools/reachability.py``: the census reports exactly what no traffic
item calls."""

import importlib.util
import pathlib
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "reachability.py"

SHAPES = '''
def area(w, h):
    return w * h


def perimeter(w, h):
    return 2 * (w + h)


class Box:
    def __init__(self, w, h):
        self.w, self.h = w, h

    @property
    def size(self):
        return area(self.w, self.h)
'''

USE = '''
from census_fixture.shapes import Box


def main():
    return Box(2, 3).size
'''


@pytest.fixture
def reachability():
    spec = importlib.util.spec_from_file_location("tools_reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it there
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fixture_package(tmp_path, monkeypatch):
    package = tmp_path / "census_fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(SHAPES)
    (package / "use.py").write_text(USE)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package
    for name in [m for m in sys.modules if m.startswith("census_fixture")]:
        del sys.modules[name]


def test_census_lists_exactly_the_unreached_function(
    reachability, fixture_package
):
    def traffic():
        from census_fixture.use import main

        assert main() == 6

    defs, unreached, items, failures, changed = reachability.census(
        fixture_package, lambda: [("fixture", traffic)]
    )
    assert items == ["fixture"] and failures == [] and changed == []
    assert {d.key for d in defs} == {
        "shapes.py:area", "shapes.py:perimeter", "shapes.py:Box.__init__",
        "shapes.py:Box.size", "use.py:main",
    }
    assert [d.key for d in unreached] == ["shapes.py:perimeter"]


def test_a_file_edited_mid_census_is_named_and_left_out(
    reachability, fixture_package
):
    # The run executes shapes.py, then an edit shifts every definition
    # in it down by two lines before the counts are mapped: mapped as
    # read at the end, perimeter would look reached and area not.
    shapes = fixture_package / "shapes.py"

    def traffic():
        from census_fixture.use import main

        assert main() == 6
        shapes.write_text("# edited\n\n" + SHAPES)

    defs, unreached, items, failures, changed = reachability.census(
        fixture_package, lambda: [("fixture", traffic)]
    )
    assert failures == [] and changed == ["shapes.py"]
    assert {d.key for d in defs} == {"use.py:main"}
    assert unreached == []
    report = reachability.render(defs, unreached, failures, items, "",
                                 changed)
    assert "- `shapes.py`" in report
    assert "shapes.py:" not in report


def test_a_quiet_item_that_fails_names_its_failing_tests(
    reachability, fixture_package
):
    def pytest_like():
        print("..F")
        print("FAILED tests/test_x.py::test_one - assert 1 == 2")
        print("ERROR tests/test_y.py::test_two")
        print("1 failed, 1 error")
        return 1

    def noisy():
        for k in range(8):
            print(f"line {k}")
        raise RuntimeError("boom")

    _, _, _, failures, _ = reachability.census(
        fixture_package,
        lambda: [("tests", reachability._quiet(pytest_like)),
                 ("noisy", reachability._quiet(noisy))],
    )
    assert failures == [
        "tests: exit 1 -- FAILED tests/test_x.py::test_one - assert 1 == 2"
        " / ERROR tests/test_y.py::test_two",
        "noisy: RuntimeError: boom -- line 3 / line 4 / line 5 / line 6"
        " / line 7",
    ]
