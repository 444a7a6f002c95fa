"""A fixed pure-Python kernel that measures the speed of the host.

The timing metrics are reported at a reference host speed: the median CLI
and set-up times of a benchmark run are multiplied by scale(k), where k is
the median time of this kernel, run once before every child of the same
run on the same CPU. On a shared host whose speed drifts by tens of
percent over minutes, the kernel and the program slow down together, and
the scaled times stay; a change to the program moves only the program.
The kernel never calls rankforge, so no change to the library can move it.
It mixes the kinds of work the library does: Fraction arithmetic, list
polynomials mod p, modular powers and dict tables.

The CLI's times move less than the kernel's when the host's speed
changes: regressing the log of a run's median CLI time on the log of its
median kernel time gave slopes of 0.68 to 0.82 for the three workloads
(ten runs each, 2-vCPU Xeon VM, Python 3.11). ELASTICITY is that slope.

    python3 perfbench/calibrate.py      # prints ten timings of the kernel
"""

import time
from fractions import Fraction

REFERENCE_S = 0.15  # median kernel time on a 2-vCPU Xeon VM, Python 3.11
ELASTICITY = 0.75


def _poly_mulmod(f, g, m, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    inv = pow(m[-1], p - 2, p)
    while len(out) >= len(m):
        c = out[-1] * inv % p
        shift = len(out) - len(m)
        for k, b in enumerate(m):
            out[shift + k] = (out[shift + k] - c * b) % p
        out.pop()
    return out


def kernel():
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    acc = 0
    for p in (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157):
        cubes = [pow(x, 3, p) for x in range(p)]
        for a in range(1, 40):
            chi = {x * x % p: 1 for x in range(1, p)}
            acc += sum(chi.get((c + a) % p, -1) for c in cubes)
        f, m = [1, 1], [2, 0, 0, 1]  # x + 1 modulo x^3 + 2
        for _ in range(600):
            f = _poly_mulmod(f, [3, 1], m, p)
        acc += sum(f)
    total = Fraction(0)
    for k in range(1, 12000):
        x = Fraction(k % 13 + 1, k % 7 + 2) * Fraction(3, k % 5 + 1)
        total += x - Fraction(k % 3, 7)
        if total.denominator > 10**6:
            total = Fraction(total.numerator % 1000, 1)
    return acc + total.numerator % 1000


def scale(kernel_s):
    """Factor from times measured while the kernel took kernel_s to times
    at the reference speed."""
    return (REFERENCE_S / kernel_s) ** ELASTICITY


def measure():
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(10):
        print(f"{measure():.4f}")
