#!/usr/bin/env python3
"""Tabulate low-lying spectra of every model family over a range of sizes,
using only the in-package Jacobi eigensolver.

Usage: python scripts/spectrum_scan.py [Lmin] [Lmax] [n_levels]
"""

import sys

from wignerlab.dense import hermitian_eigensolve, materialize, over_limit
from wignerlab.models import Family, ModelSpec, eigensolve_hamiltonian


def main() -> int:
    lmin = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    lmax = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    n_levels = int(sys.argv[3]) if len(sys.argv) > 3 else 4
    for L in range(lmin, lmax + 1):
        for fam in Family:
            h = eigensolve_hamiltonian(ModelSpec(fam, L))
            if over_limit(h.layout.total_sites, "string", "eigensolve"):
                continue
            op = materialize(h)
            ev = hermitian_eigensolve(op).eigenvalues[:n_levels]
            levels = "  ".join(f"{v:+.6f}" for v in ev)
            print(f"L={L}  {fam.value:<16} dim={op.dim:<5} {levels}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
