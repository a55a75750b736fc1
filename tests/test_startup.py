"""What a cold start loads, each case in a fresh interpreter: the tests
around it share one process that has imported everything already, so only
a new process shows a lazy import that fails."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEM = str(ROOT / "problems" / "diseq_unit.smt2")

# Runs regmod.cli.main with regmod.asp unimportable and prints its exit code.
NO_ASP = """
import sys
sys.modules["regmod.asp"] = None
from regmod import cli
print(cli.main(sys.argv[1:]))
"""


def fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_the_native_solver_only():
    out = fresh(
        "import json, sys, regmod\n"
        "print(json.dumps({m: m in sys.modules for m in sys.argv[1:]}))",
        "regmod.driver", "regmod.frontend", "regmod.asp", "dataclasses", "subprocess",
    )
    assert json.loads(out) == {
        "regmod.driver": True,
        "regmod.frontend": True,
        "regmod.asp": False,
        "dataclasses": False,
        "subprocess": False,
    }


def test_native_solve_runs_without_the_asp_module():
    assert fresh(NO_ASP, "solve", PROBLEM).splitlines()[-1] == "0"


def test_errors_are_classified_without_the_asp_module():
    # check_bounds raises DriverError, which main catches after the clauses
    # for the ASP backend's errors; they must not load regmod.asp.
    assert fresh(NO_ASP, "solve", PROBLEM, "--max-states", "0").splitlines()[-1] == "64"


def test_asp_backend_loads_on_first_use():
    code = NO_ASP.replace('sys.modules["regmod.asp"] = None', "")
    missing = str(ROOT / "no-such-solver")
    assert fresh(code, "solve", PROBLEM, "--backend", "asp", "--solver-path", missing).splitlines()[-1] == "64"


# Solves each named problem once, the first solve of its clauses in the
# process, and prints what the cyclic collector then finds after each.
FIRST_SOLVES = """
import gc, json, sys
from pathlib import Path
from regmod.benchmarks import gen_member_rev
from regmod.driver import SolveOptions, solve
from regmod.frontend import parse_problem
gc.disable()
gc.collect()
found = {}
for path in sys.argv[1:]:
    solve(parse_problem(Path(path).read_text()), SolveOptions())
    found[Path(path).name] = gc.collect()
solve(gen_member_rev(3), SolveOptions())
found["member-rev(3)"] = gc.collect()
print(json.dumps(found))
"""


def test_a_first_solve_leaves_nothing_for_the_cyclic_collector():
    # Compiling a clause's joins and plans is part of its first solve.
    paths = sorted(str(path) for path in (ROOT / "problems").glob("*.smt2"))
    found = json.loads(fresh(FIRST_SOLVES, *paths))
    assert len(found) == len(paths) + 1
    assert found == dict.fromkeys(found, 0)
