"""Layer microbenchmarks: the Baseline rows of ROADMAP.md, timed from outside.

Run in a fresh interpreter with wittkit importable; prints one JSON
object mapping `baseline.<row>_s` to the median seconds of its repeats.
Inputs are fixed, not seeded, so the rows compare across runs and
commits. `redei_scan(400)` is left out: one call takes about 7 s, too
long to repeat in every traced run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e9


def _witt_pair(degree: int):
    from wittkit.poly import Polynomial
    from wittkit.rings import ZZ
    from wittkit.witt import WittVector

    def vec(shift: int):
        num = [1] + [(3 * k + shift) % 7 - 3 or 1 for k in range(1, degree + 1)]
        den = [1] + [(5 * k + shift) % 7 - 3 or 2 for k in range(1, degree + 1)]
        return WittVector(Polynomial(ZZ, num), Polynomial(ZZ, den))

    return vec(1), vec(4)


def rows() -> dict[str, float]:
    from wittkit import counting, explicit, orbits, reciprocity, witt, zeta
    from wittkit.finitefield import FiniteField

    curve = counting.AffineVariety.make(7, 2, [[(1, (0, 2)), (6, (3, 0)), (5, (0, 0))]])
    f4, g4 = _witt_pair(4)
    f6, g6 = _witt_pair(6)
    zeros = explicit.load_bundled_zeros()
    cold_bumps = iter(explicit.TestFunction(1.5 + k / 1024, 0.7) for k in range(1, 100))
    warm = explicit.TestFunction(1.5, 0.7)
    explicit.zero_side(warm, zeros, 1000)
    out = {
        "baseline.witt_mul_deg4_s": _timed(lambda: witt.witt_mul(f4, g4), 5),
        "baseline.witt_mul_deg6_s": _timed(lambda: witt.witt_mul(f6, g6), 3),
        "baseline.count_points_f7_3_s": _timed(lambda: counting.count_points(curve, 3), 3),
        "baseline.count_points_f7_4_s": _timed(lambda: counting.count_points(curve, 4), 1),
        "baseline.field_build_f3_12_s": _timed(lambda: FiniteField(3, 12), 3),
        "baseline.field_build_f101_3_s": _timed(lambda: FiniteField(101, 3), 3),
        "baseline.count_irreducibles_3_7_s": _timed(lambda: zeta.count_irreducibles(3, 7), 1),
        "baseline.zero_side_cold_s": _timed(
            lambda: explicit.zero_side(next(cold_bumps), zeros, 1000), 1),
        "baseline.zero_side_warm_s": _timed(lambda: explicit.zero_side(warm, zeros, 1000), 5),
        "baseline.packet_summary_3_13_s": _timed(lambda: orbits.packet_summary(3, 13), 1),
        "baseline.linking_table_2000_s": _timed(lambda: reciprocity.linking_table(2000), 1),
    }
    return out


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print(json.dumps(rows(), sort_keys=True))
