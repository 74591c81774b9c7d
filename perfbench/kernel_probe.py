"""Probe the public elimination kernels at the shapes the commands produce.

    python3 perfbench/kernel_probe.py [--repeats N]

Shapes are the tangent matrices of the matrix groups (n^2 x 2 dim g):
GL2 4x8, GL3 9x18, GL4 16x32 and GSp4 16x22. Each stack is seeded and
rank-deficient like real tangent matrices (a product of two random
factors of random inner rank). The probe times ``batch_nullity_mod`` on
the stack and ``nullity_mod`` on each matrix, checks that both agree,
and prints the nullities' SHA-256 so a faster wrong kernel shows. It is
a hand tool for kernel work; the benchmark proper is ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import time

import numpy as np

from run import import_program

SHAPES = (
    # (label, batch, rows, cols, p)
    ("gl2-tangent", 4000, 4, 8, 13),
    ("gl3-tangent", 2000, 9, 18, 11),
    ("gl4-tangent", 800, 16, 32, 11),
    ("gsp4-tangent", 800, 16, 22, 11),
)


def stack_of(rng, batch: int, rows: int, cols: int, p: int) -> np.ndarray:
    ranks = rng.integers(0, min(rows, cols) + 1, size=batch)
    out = np.empty((batch, rows, cols), dtype=np.int64)
    for i, r in enumerate(ranks):
        u = rng.integers(0, p, size=(rows, r))
        v = rng.integers(0, p, size=(r, cols))
        out[i] = u @ v % p
    return out


def best_of(repeats: int, fn):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats; best is kept")
    args = parser.parse_args()
    import_program()
    from wdsmooth import kernels

    rng = np.random.default_rng(0)
    print("%-19s %6s %10s %10s %12s  %s" % ("shape", "batch", "batch[s]", "single[s]",
                                           "ns/cell", "sha256(nullities)[:16]"))
    for label, batch, rows, cols, p in SHAPES:
        stack = stack_of(rng, batch, rows, cols, p)
        t_batch, batched = best_of(args.repeats, lambda: kernels.batch_nullity_mod(stack, p))
        t_single, single = best_of(args.repeats, lambda: np.array(
            [kernels.nullity_mod(m, p) for m in stack], dtype=np.int64))
        if not np.array_equal(batched, single):
            raise SystemExit("%s: batch and single-matrix nullities disagree" % label)
        digest = hashlib.sha256(np.asarray(batched, dtype=np.int64).tobytes()).hexdigest()
        print("%-19s %6d %10.4f %10.4f %12.1f  %s" % (
            "%s %dx%d" % (label, rows, cols), batch, t_batch, t_single,
            1e9 * t_batch / (batch * rows * cols), digest[:16]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
