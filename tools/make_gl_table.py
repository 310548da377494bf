#!/usr/bin/env python3
"""Regenerate the bundled table of Gauss-Legendre nodes and weights.

Uses scipy (not a runtime dependency of the package): for each doubling
level n = 32, 64, ..., 16384 of `explicit._quad_doubling` it stores the
non-negative half of `scipy.special.roots_legendre(n)`, which is enough
because scipy's nodes and weights are bitwise symmetric about 0.  Before
writing, it checks at every level that the mirrored halves rebuild
scipy's arrays byte for byte.  Run from the repository root:

    python3 tools/make_gl_table.py [outfile]
"""

import sys

import numpy as np
import scipy
from scipy.special import roots_legendre

LEVELS = [2**k for k in range(5, 15)]  # QUAD_START_NODES .. QUAD_MAX_NODES


def main(argv):
    out = argv[1] if len(argv) > 1 else "src/wittkit/data/gauss_legendre.npz"
    arrays = {}
    for n in LEVELS:
        x, w = roots_legendre(n)
        h, hw = x[n // 2:], w[n // 2:]
        assert (h > 0).all(), f"n={n}: half holds a non-positive node"
        assert np.concatenate([-h[::-1], h]).tobytes() == x.tobytes(), f"n={n}: x not symmetric"
        assert np.concatenate([hw[::-1], hw]).tobytes() == w.tobytes(), f"n={n}: w not symmetric"
        arrays[f"x{n}"], arrays[f"w{n}"] = h, hw
        print(f"n={n}", file=sys.stderr)
    np.savez_compressed(out, **arrays)
    print(f"wrote {len(LEVELS)} levels (scipy {scipy.__version__}) to {out}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv)
