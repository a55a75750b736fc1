#!/usr/bin/env python3
"""Compare two captures of tests/golden/engine_trails.json.

    git show REV:tests/golden/engine_trails.json > old.json
    python3 scripts/compare_engine_trails.py old.json tests/golden/engine_trails.json

Checks that both pin the same cases and steps, that every step's trail
entries (or pop mark) are equal, and that each step's hit is None on both
sides or on neither.  Prints the number of steps and of hits whose value
differs, and exits 1 at the first step where anything else differs: a
change to which goal solution the engine keeps shows as hit values alone.
"""

import json
import sys


def main(old_path: str, new_path: str) -> int:
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if old.keys() != new.keys():
        print("the cases differ: %s" % sorted(old.keys() ^ new.keys()))
        return 1
    steps = changed = 0
    for case in old:
        if len(old[case]) != len(new[case]):
            print("%s: %d steps against %d" % (case, len(old[case]), len(new[case])))
            return 1
        for i, (a, b) in enumerate(zip(old[case], new[case])):
            steps += 1
            if a[:-1] != b[:-1] or (a[-1] is None) != (b[-1] is None):
                print("%s step %d: %s against %s" % (case, i, json.dumps(a), json.dumps(b)))
                return 1
            changed += a[-1] != b[-1]
    print("%d steps: trail entries and hit None-ness identical; %d hit values differ" % (steps, changed))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
