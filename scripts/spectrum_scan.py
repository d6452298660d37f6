#!/usr/bin/env python3
"""Tabulate low-lying spectra of every model family over a range of sizes,
using only the in-package Jacobi eigensolver.

Usage: python scripts/spectrum_scan.py [Lmin] [Lmax] [n_levels]

Exits 2 on bad arguments.
"""

import sys

from wignerlab.dense import hermitian_eigensolve, materialize, over_limit
from wignerlab.models import Family, ModelSpec, eigensolve_hamiltonian


def main(argv: list[str]) -> int:
    try:
        lmin, lmax, n_levels = map(int, argv + ["2", "3", "4"][len(argv):])
    except ValueError:  # not an integer, or too many arguments
        lmin = lmax = n_levels = 0
    if not (2 <= lmin <= lmax and n_levels >= 1):
        print("usage: spectrum_scan.py [Lmin] [Lmax] [n_levels]  (integers, "
              "2 <= Lmin <= Lmax, n_levels >= 1)", file=sys.stderr)
        return 2
    for L in range(lmin, lmax + 1):
        for fam in Family:
            spec = ModelSpec(fam, L)
            if over_limit(spec.layout.total_sites, "eigensolve"):
                continue
            op = materialize(eigensolve_hamiltonian(spec))
            ev = hermitian_eigensolve(op).eigenvalues[:n_levels]
            levels = "  ".join(f"{v:+.6f}" for v in ev)
            print(f"L={L}  {fam.value:<16} dim={op.dim:<5} {levels}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
