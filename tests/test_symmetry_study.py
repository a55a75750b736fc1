"""scripts/symmetry_study.py counting the native walk's automata against
every complete deterministic automaton."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "symmetry_study.py"


@pytest.fixture
def study():
    spec = importlib.util.spec_from_file_location("symmetry_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("spec, walked, complete", [("member-rev:1", 3, 64), ("member-rev:2", 16, 128)])
def test_native_counts(study, capsys, spec, walked, complete):
    assert study.main([spec, "-n", "2", "--native"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bound 2, counting automata"
    assert lines[1].split() == ["with", "ordering", "constraints:", str(walked)]
    assert lines[2].split() == ["without", "ordering", "constraints:", str(complete)]
