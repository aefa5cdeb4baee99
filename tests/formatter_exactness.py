"""Check the ``states.csv`` formatter against Python's ``%.17g``, at scale.

Formats a million doubles, and 0.0 minus each, with ``qme.cli._csv_row``
and exits 1 unless the bytes equal Python's ``%.17g`` texts joined by
commas.  The doubles are random bit patterns, values log-uniform over
±[1e-4, 1e16) (the range that numpy formats), each power of ten from 1e-6
to 1e18 with its two neighbours, signed zeros, the ends of the subnormal,
normal and finite ranges, inf and NaN, and dyadic values whose 17-digit
text is a tie.  Not collected by pytest; run it as

    PYTHONPATH=src python tests/formatter_exactness.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from qme import cli

COUNT = 10**6
CHUNK = 50_000


def doubles(rng: np.random.Generator) -> np.ndarray:
    edges = [1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e16, 0.0), 1e16, 9999999999999998.0,
             0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf,
             math.nan, -math.nan]
    for k in range(-6, 19):
        x = float(Fraction(10) ** k)
        edges += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    # m 2^-k with m odd is 5^k m 10^-k: 18 digits ending in 5 when 5^k m has 18
    ties = []
    for e in range(-4, 16):
        k = 17 - e
        low, high = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        ties += [math.ldexp(m, -k) for m in (rng.integers(low, high, 2000) | 1).tolist() if m < high]
    fixed = np.array(edges + ties)
    half = (COUNT - fixed.size) // 2
    bits = rng.integers(0, 2**64, half, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = np.exp(rng.uniform(math.log(1e-4), math.log(1e16), COUNT - fixed.size - half))
    spread *= rng.choice([-1.0, 1.0], spread.size)
    return np.concatenate((fixed, bits, spread))


def main() -> int:
    x = doubles(np.random.default_rng(31))
    for start in range(0, x.size, CHUNK):
        chunk = x[start:start + CHUNK]
        n = chunk.size
        got = cli._csv_row(chunk, np.arange(2 * n))
        values = chunk.tolist()
        want = ",".join([f"{v:.17g}" for v in values] + [f"{0.0 - v:.17g}" for v in values]) + "\n"
        if got.tobytes() != want.encode():
            texts = got.tobytes().decode()[:-1].split(",")
            bad = next(k for k, v in enumerate(values) if texts[k] != f"{v:.17g}"
                       or texts[n + k] != f"{0.0 - v:.17g}")
            print(f"mismatch at {values[bad]!r}: {texts[bad]!r}, {texts[n + bad]!r}", file=sys.stderr)
            return 1
    print(f"{x.size} doubles and their negations: the bytes of %.17g")
    return 0


if __name__ == "__main__":
    sys.exit(main())
