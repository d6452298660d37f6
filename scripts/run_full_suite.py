#!/usr/bin/env python3
"""Run the checks of ``wignerlab full-suite`` (default options) for a range
of system sizes and print one summary line per size.

Usage: python scripts/run_full_suite.py [Lmin] [Lmax]

Exits 0 if every check passes, 1 if one fails, 2 on bad arguments.
"""

import sys

from wignerlab.cli import L_LIMIT, full_suite_checks


def run(L: int) -> bool:
    checks = full_suite_checks(L)
    n_pass = sum(c["status"] == "pass" for c in checks)
    n_fail = sum(c["status"] == "fail" for c in checks)
    n_skip = sum(c["status"] == "skipped" for c in checks)
    print(f"L={L}: {n_pass} passed, {n_fail} failed, {n_skip} skipped")
    for c in checks:
        if c["status"] == "fail":
            print(f"  FAIL {c['name']}: measured={c['measured']!r}")
    return n_fail == 0


def main(argv: list[str]) -> int:
    try:
        lmin, lmax = map(int, argv + ["2", "4"][len(argv):])
    except ValueError:  # not an integer, or too many arguments
        lmin = lmax = 0
    if not 2 <= lmin <= lmax <= L_LIMIT:
        print("usage: run_full_suite.py [Lmin] [Lmax]  (integers, "
              f"2 <= Lmin <= Lmax <= {L_LIMIT})", file=sys.stderr)
        return 2
    ok = all([run(L) for L in range(lmin, lmax + 1)])
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
