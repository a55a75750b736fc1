"""scripts/bench_pairs.py deciding whether paired runs show a gain."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The parent's runs: median 105, q1 102.5, q3 107.5, so q3 - q1 is 5.
PARENT = [100, 101, 102, 104, 105, 105, 106, 108, 109, 110]


@pytest.mark.parametrize("change, shown", [
    # Lower in every pair, medians 10 apart.
    ([p - 10 for p in PARENT], True),
    # Lower in 9 pairs, the medians still 10 apart.
    ([p - 10 for p in PARENT[:9]] + [PARENT[9] + 1], True),
    # Lower in 8 pairs only.
    ([p - 10 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], False),
    # Lower in every pair, but the medians only 4 apart.
    ([p - 4 for p in PARENT], False),
    # The medians exactly q3 - q1 apart is not enough.
    ([p - 5 for p in PARENT], False),
    # Higher in every pair.
    ([p + 10 for p in PARENT], False),
])
def test_gain_shown(bench, change, shown):
    assert bench.gain_shown(PARENT, change) is shown


def test_summary_line(bench):
    metrics = {
        "wall_s": {"gain_shown": True},
        "setup_s": {"gain_shown": False},
        "verdict_p90_s": {"gain_shown": True},
    }
    assert bench.summary_line("fixtures", metrics) == "fixtures: gain shown in wall_s, verdict_p90_s"
    assert bench.summary_line("mr3-model", {"wall_s": {"gain_shown": False}}) == "mr3-model: gain shown in no metric"
