"""Command line interface.

regmod solve FILE [--backend native|asp] [--solver-path PATH]
                  [--max-states N] [--max-depth N] [--timeout SECONDS]
                  [--no-symmetry-breaking] [--emit-asp DIR] [--count-models]
                  [--json]
regmod gen member-rev K [-o FILE]

Exit codes: 0 satisfiable, 1 unsatisfiable, 2 unknown, 64 usage error
(a missing solver included), 65 input error, 70 internal error (a crash,
a failed or unreadable solver run, or an answer that fails certification).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from . import driver
from .benchmarks import GENERATORS
from .core import BudgetExceeded, SearchTimeout, validate
from .frontend import ParseError, parse_problem, print_problem

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_INPUT = 65
EXIT_SOFTWARE = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="regmod", description="Regular-model CHC satisfiability over ADTs")
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide satisfiability of an SMT-LIB file")
    solve.add_argument("file", help="problem file (SMT-LIB 2 subset)")
    solve.add_argument("--backend", choices=("native", "asp"), default="native")
    solve.add_argument("--solver-path", default="clingo", help="ASP solver binary")
    solve.add_argument("--max-states", type=int, default=8, metavar="N")
    solve.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="cap the counterexample depth (0 disables that phase)",
    )
    solve.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    solve.add_argument("--no-symmetry-breaking", action="store_true")
    solve.add_argument(
        "--emit-asp",
        metavar="DIR",
        default=None,
        help="write both ASP programs per bound and do not solve",
    )
    solve.add_argument(
        "--count-models",
        action="store_true",
        help="count answer sets at the --max-states bound, with and without "
        "symmetry breaking (asp backend)",
    )
    solve.add_argument("--json", action="store_true", dest="as_json")

    gen = sub.add_parser("gen", help="generate a benchmark problem")
    gen.add_argument("generator", choices=sorted(GENERATORS))
    gen.add_argument("k", type=int)
    gen.add_argument("-o", "--output", default=None, metavar="FILE")
    return p


def _load_problem(path: str):
    try:
        # newline="" keeps a lone CR, which parse_problem counts as a column.
        with open(path, encoding="utf-8", newline="") as f:
            text = f.read()
    except OSError as e:
        raise _InputError("cannot read %s: %s" % (path, e))
    except UnicodeDecodeError as e:
        raise _InputError("%s: not UTF-8 at byte %d (%s)" % (path, e.start, e.reason))
    try:
        problem = parse_problem(text)
    except ParseError as e:
        span = e.span
        where = "%s:%d:%d" % (path, span.line, span.column) if span else path
        raise _InputError("%s: %s" % (where, e.message))
    report = validate(problem)
    if not report.ok:
        raise _InputError(
            "%s: invalid problem:\n  %s" % (path, "\n  ".join(report.errors))
        )
    for warning in report.warnings:
        print("warning: %s: %s" % (path, warning), file=sys.stderr)
    return problem


class _InputError(Exception):
    pass


def _emit_asp_programs(problem, args) -> int:
    from . import asp

    out_dir = Path(args.emit_asp)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote: List[str] = []
    ce_capped = False
    for n in range(1, args.max_states + 1):
        path = out_dir / ("model_%02d.lp" % n)
        path.write_text(asp.emit_model_search(problem, n, not args.no_symmetry_breaking))
        wrote.append(str(path))
        depth = n if args.max_depth is None else min(n, args.max_depth)
        if depth == 0 or ce_capped:
            continue
        try:
            ce = asp.emit_counterexample_search(problem, depth)
        except BudgetExceeded:
            ce_capped = True
            continue
        path = out_dir / ("counterexample_%02d.lp" % depth)
        path.write_text(ce)
        if str(path) not in wrote:
            wrote.append(str(path))
    for w in wrote:
        print(w)
    return EXIT_SAT


def _count_models(problem, args) -> int:
    from . import asp

    solver = asp.SolverConfig(
        args.solver_path, time_limit=args.timeout, extra_args=("0", "-q")
    )
    n = args.max_states
    with_sb = driver.count_models(problem, n, solver, True)
    without_sb = driver.count_models(problem, n, solver, False)
    if args.as_json:
        print(
            json.dumps(
                {
                    "bound": n,
                    "with_symmetry_breaking": with_sb[0],
                    "with_exact": with_sb[1],
                    "without_symmetry_breaking": without_sb[0],
                    "without_exact": without_sb[1],
                }
            )
        )
    else:
        print(
            "Model count at %d states with symmetry breaking: %d%s"
            % (n, with_sb[0], "" if with_sb[1] else "+")
        )
        print(
            "Model count at %d states without symmetry breaking: %d%s"
            % (n, without_sb[0], "" if without_sb[1] else "+")
        )
    return EXIT_SAT


def _run_solve(args) -> int:
    driver.check_bounds(args.max_states, args.max_depth, args.timeout)
    problem = _load_problem(args.file)
    if args.emit_asp and args.count_models:
        raise UsageError("--emit-asp and --count-models are mutually exclusive")
    if args.emit_asp:
        return _emit_asp_programs(problem, args)
    if args.count_models:
        if args.backend != "asp":
            raise UsageError("--count-models needs --backend asp")
        return _count_models(problem, args)

    solver = None
    if args.backend == "asp":
        from . import asp

        solver = asp.SolverConfig(args.solver_path, time_limit=args.timeout)
    options = driver.SolveOptions(
        backend=args.backend,
        max_states=args.max_states,
        max_depth=args.max_depth,
        time_limit=args.timeout,
        symmetry_breaking=not args.no_symmetry_breaking,
        solver=solver,
    )
    outcome, log = driver.solve(problem, options)
    if args.as_json:
        print(_json_text(driver.outcome_to_json(outcome, log)))
    else:
        print(driver.render_outcome(outcome, log))
    if isinstance(outcome, driver.Sat):
        return EXIT_SAT
    if isinstance(outcome, driver.Unsat):
        return EXIT_UNSAT
    return EXIT_UNKNOWN


def _json_text(doc: object) -> str:
    """json.dumps(doc, indent=2) for string-keyed dicts, lists and scalars,
    written from an explicit stack: a derivation's JSON nests as deep as
    the derivation, past the depth json.dumps can recurse to."""
    out: List[str] = []
    # Values still to write, each with its nesting level, or text (level None).
    stack: List[Tuple[object, Optional[int]]] = [(doc, 0)]
    while stack:
        value, level = stack.pop()
        if level is None:
            out.append(value)
            continue
        if not value or not isinstance(value, (dict, list)):
            out.append(json.dumps(value))
            continue
        indent = "\n" + "  " * (level + 1)
        if isinstance(value, dict):
            opener, closer = "{", "}"
            entries = [(json.dumps(k) + ": ", v) for k, v in value.items()]
        else:
            opener, closer = "[", "]"
            entries = [("", v) for v in value]
        stack.append(("\n" + "  " * level + closer, None))
        for i in reversed(range(len(entries))):
            label, v = entries[i]
            stack.append((v, level + 1))
            stack.append(((opener if i == 0 else ",") + indent + label, None))
    return "".join(out)


def _run_gen(args) -> int:
    try:
        problem = GENERATORS[args.generator](args.k)
    except ValueError as e:
        raise UsageError(str(e))
    text = print_problem(problem)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print("wrote %s" % args.output)
    return EXIT_SAT


def _asp_errors(*names: str) -> Tuple[type, ...]:
    """The named exception classes of regmod.asp, or none while that module
    is not loaded: only it raises them, so main need not load it to catch
    them."""
    asp = sys.modules.get("regmod.asp")
    return tuple(getattr(asp, name) for name in names) if asp else ()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _run_solve(args)
        return _run_gen(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except _InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except _asp_errors("SolverNotFoundError") as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except _asp_errors("EmitError") as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except (driver.SolverError, *_asp_errors("AspError")) as e:
        # The solver ran but failed, or answered something unreadable.
        print("error: %s" % " ".join(str(e).split()), file=sys.stderr)
        return EXIT_SOFTWARE
    except driver.DriverError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_UNKNOWN
    except SearchTimeout:
        print("error: time limit reached", file=sys.stderr)
        return EXIT_UNKNOWN
    except Exception as e:
        # A crash or a driver.CertificateError: a fault in regmod itself,
        # which must not exit 1 and so claim Unsat.
        detail = " ".join(str(e).split())
        print("internal error: %s: %s" % (type(e).__name__, detail), file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
