#!/usr/bin/env python3
"""Tabulate low-lying spectra of every model family over a range of sizes,
using only the in-package Jacobi eigensolver.

Usage: python scripts/spectrum_scan.py [Lmin] [Lmax] [n_levels]

Stops at the first L where no family fits the eigensolve limit.  Exits 2 on
bad arguments, Lmax past ``wignerlab.cli.L_LIMIT`` included.
"""

import sys

from wignerlab.cli import L_LIMIT
from wignerlab.dense import hermitian_eigensolve, materialize, over_limit
from wignerlab.models import Family, ModelSpec, eigensolve_hamiltonian


def main(argv: list[str]) -> int:
    try:
        lmin, lmax, n_levels = map(int, argv + ["2", "3", "4"][len(argv):])
    except ValueError:  # not an integer, or too many arguments
        lmin = lmax = n_levels = 0
    if not (2 <= lmin <= lmax <= L_LIMIT and n_levels >= 1):
        print("usage: spectrum_scan.py [Lmin] [Lmax] [n_levels]  (integers, "
              f"2 <= Lmin <= Lmax <= {L_LIMIT}, n_levels >= 1)", file=sys.stderr)
        return 2
    for L in range(lmin, lmax + 1):
        specs = [ModelSpec(fam, L) for fam in Family]
        specs = [spec for spec in specs
                 if not over_limit(spec.layout.total_sites, "eigensolve")]
        if not specs:  # site counts grow with L: no larger L fits either
            break
        for spec in specs:
            op = materialize(eigensolve_hamiltonian(spec))
            ev = hermitian_eigensolve(op).eigenvalues[:n_levels]
            levels = "  ".join(f"{v:+.6f}" for v in ev)
            print(f"L={L}  {spec.family.value:<16} dim={op.dim:<5} {levels}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
