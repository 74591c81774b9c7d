"""A fixed reference job that measures how fast the machine runs right now.

On a shared machine the same call runs up to 1.7x slower while neighbours
on the host are busy, sometimes for minutes at a time. The untraced run
times ``job`` every ``EVERY`` seconds between calls, so the job sees the
host in the same states, for the same shares of the run, as the calls
do, and scales its time metrics by ``REF_MS`` over the job's mean time in
the run. The job is plain Python of the kinds the package spends its
time in: small Gaussian eliminations mod p (the kernels' fallback) and
argparse and JSON work (the CLI). It belongs to the benchmark, not to the
program, so no change to the program changes it.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

#: seconds between two timings of the job
EVERY = 0.25
#: about the job's mean time, in ms, during a run on the machine the
#: benchmark was built on (2-CPU shared VM, Python 3.11), so that scaled
#: figures read as ms on that machine
REF_MS = 10.0

_P = 13
_rng = random.Random(0)
_MATRICES = [[[_rng.randrange(_P) for _ in range(8)] for _ in range(4)] for _ in range(60)]


def _nullity(rows: list[list[int]], p: int) -> int:
    m = [r[:] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return len(m[0]) - rank


def job() -> int:
    total = sum(_nullity(m, _P) for m in _MATRICES)
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for c in range(12):
            cmd = sub.add_parser("c%d" % c)
            for a in range(5):
                cmd.add_argument("--a%d" % a, type=int, default=a)
        total += len(json.dumps(vars(parser.parse_args(["c3", "--a1", "7"]))))
    return total


class Reference:
    """Times ``job`` at most every ``EVERY`` seconds; ``scale`` turns a mean
    time measured in this run into one at the reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last < EVERY:
            return
        start = time.perf_counter()
        job()
        self._last = time.perf_counter()
        self.times.append(self._last - start)

    def scale(self) -> float:
        return REF_MS / (1e3 * statistics.fmean(self.times))
