"""The benchmark's workloads: CLI sessions generated from a seed.

A session is a list of ``wdsmooth`` argv lists, the same commands a user
types, run in order by one process. Each workload builds its session from
one of a small fixed pool of input choices, so every argv has a recorded
reference (``refs.json``); the seed picks the choice. Every choice of a
workload asks for the same amount of work (``record_refs.py`` checks it),
so the seed changes inputs, not work.

Why three workloads: each layer of the package does most of its work in
only one of them. ``gl2-covered`` runs the per-point matrix path,
``stratum-sample`` the mid-size matrices and certificates, and
``classify-sweep`` the CLI and symbolic layers with no matrix work at all.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

#: GL2 enumeration prime. Every unit q of order > 2 mod 7 gives the same
#: 4,032 points and 2,016 scanned pairs. At p = 7 a session takes about
#: 0.8 s, so a run times each command 30 times or more; at p = 13 one
#: enumerate call takes 13-17 s and a run could time it only twice.
GL2_P = 7
GL2_COVERED_Q = tuple(range(2, GL2_P - 1))  # units of order > 2 mod 7

#: stratum-sample field: q = 4 (GL) and q = 3 (GSp4) both have order 5
#: mod 11, above the Coxeter number h = 4 of every group sampled.
STRATUM_P = 11
STRATUM_Q = {"GL": 4, "GSp4": 3}
STRATUM_SAMPLES = 5
STRATUM_SEED_POOL = 8
STRATUM_ORBITS = {
    "GL2": ("2", "1,1"),
    "GL3": ("3", "2,1", "1,1,1"),
    "GL4": ("4", "3,1", "2,2", "2,1,1", "1,1,1,1"),
    "GSp4": ("4", "2,2", "2,1,1", "1,1,1,1"),
}
#: nonzero non-distinguished orbits with every valid --marked boundary.
#: GSp4 has one fixed boundary, chosen by build_phi0. GSp4 2,1,1 has no
#: base point construction and exits 1 on the seed code.
STRATUM_CERTIFICATES = (
    ("GL3", "2,1", 2),
    ("GL4", "3,1", 3),
    ("GL4", "2,2", 2),
    ("GL4", "2,1,1", 2),
    ("GL4", "2,1,1", 3),
    ("GSp4", "2,2", None),
    ("GSp4", "2,1,1", None),
)

#: classify-sweep inputs: every orbit of every classical type up to rank
#: 4, as ``wdsmooth orbits`` lists them, and the stored E6 / E7 labels
ORBIT_LABELS = {
    "GL2": ("2", "1,1"),
    "GL3": ("3", "2,1", "1,1,1"),
    "GL4": ("4", "3,1", "2,2", "2,1,1", "1,1,1,1"),
    "GL5": ("5", "4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1", "1,1,1,1,1"),
    "SO5": ("5", "3,1,1", "2,2,1", "1,1,1,1,1"),
    "SO7": ("7", "5,1,1", "3,3,1", "3,2,2", "3,1,1,1,1", "2,2,1,1,1",
            "1,1,1,1,1,1,1"),
    "SO9": ("9", "7,1,1", "5,3,1", "5,2,2", "5,1,1,1,1", "4,4,1", "3,3,3",
            "3,3,1,1,1", "3,2,2,1,1", "3,1,1,1,1,1,1", "2,2,2,2,1",
            "2,2,1,1,1,1,1", "1,1,1,1,1,1,1,1,1"),
    "Sp4": ("4", "2,2", "2,1,1", "1,1,1,1"),
    "Sp6": ("6", "4,2", "4,1,1", "3,3", "2,2,2", "2,2,1,1", "2,1,1,1,1",
            "1,1,1,1,1,1"),
    "Sp8": ("8", "6,2", "6,1,1", "4,4", "4,2,2", "4,2,1,1", "4,1,1,1,1",
            "3,3,2", "3,3,1,1", "2,2,2,2", "2,2,2,1,1", "2,2,1,1,1,1",
            "2,1,1,1,1,1,1", "1,1,1,1,1,1,1,1"),
    "SO8": ("7,1", "5,3", "5,1,1,1", "4,4", "3,3,1,1", "3,2,2,1", "3,1,1,1,1,1",
            "2,2,2,2", "2,2,1,1,1,1", "1,1,1,1,1,1,1,1"),
    "E6": ("E6", "E6(a1)", "E6(a2)"),
    "E7": ("E7", "E7(a1)", "E7(a2)", "E7(a3)", "E7(a4)", "E7(a5)"),
}
PRODUCTS = (("GL2xGL3", "2;2,1"), ("GL2xGL3", "1,1;3"), ("GL2xGL3", "2;1,1,1"))
#: (q, l) pools; a round's grid takes one pair from each, so every grid hits
#: Smooth and Singular (l = 0 is always considerate) and NotCovered
#: (order of q mod l at most 3, below the Coxeter number of most groups).
QL_COVERED = ((3, 0), (5, 0))
QL_SMALL_ORDER = ((4, 5), (3, 13))  # orders 2 and 3
QL_MID_ORDER = ((2, 31), (3, 7))  # orders 5 and 6
SWEEP_ARGV = ["arith", "sweep", "--families", "ABCDG", "--rank-max", "4",
              "--l-max", "13", "--q-max", "9"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    #: every input choice a seed can make, and the session built from one
    choices: tuple
    build: Callable[[object], list[list[str]]]
    items: Callable[[list[str], dict | None], int]
    #: tail percentile over the session's commands of their mean times, one
    #: that leaves at least ten commands beyond it; 100 (the slower
    #: command) for the two-command GL2 sessions
    tail_pct: float

    def session(self, seed: int) -> list[list[str]]:
        return self.build(random.Random(seed).choice(self.choices))


def _gl2_session(q: int) -> list[list[str]]:
    return [
        ["verify", "enumerate", "--p", str(GL2_P), "--q", str(q)],
        ["verify", "nilpotency", "--p", str(GL2_P), "--q", str(q)],
    ]


def _gl2_items(argv: list[str], report: dict | None) -> int:
    if report is None:
        return 0
    res = report["results"]
    return res["points"] if argv[1] == "enumerate" else res["pairs_checked"]


def _stratum_session(first_seed: int) -> list[list[str]]:
    """Every sampler seed of the pool, starting at ``first_seed``, then the
    certificates, which do not depend on the sampler seed. A subset of
    sampler seeds would make the work depend on the seed: sessions of one
    sampler seed differed by up to 7% in throughput."""
    calls = []
    for k in range(STRATUM_SEED_POOL):
        sampler_seed = str((first_seed + k) % STRATUM_SEED_POOL)
        for group, orbits in STRATUM_ORBITS.items():
            q = str(STRATUM_Q["GSp4" if group == "GSp4" else "GL"])
            for orbit in orbits:
                for sub in ("tangent", "expbridge"):
                    calls.append(["verify", sub, "--group", group, "--orbit", orbit,
                                  "--p", str(STRATUM_P), "--q", q,
                                  "--samples", str(STRATUM_SAMPLES), "--seed", sampler_seed])
        calls.append(["verify", "bundle", "--group", "GL3", "--p", str(STRATUM_P),
                      "--q", str(STRATUM_Q["GL"]), "--samples", str(STRATUM_SAMPLES),
                      "--seed", sampler_seed])
    for group, orbit, marked in STRATUM_CERTIFICATES:
        q = str(STRATUM_Q["GSp4" if group == "GSp4" else "GL"])
        argv = ["certify", "--group", group, "--orbit", orbit, "--p", str(STRATUM_P), "--q", q]
        if marked is not None:
            argv += ["--marked", str(marked)]
        calls.append(argv)
    return calls


def _stratum_items(argv: list[str], report: dict | None) -> int:
    if report is None:  # certify exited 1: no certificate was built
        return 0
    if argv[0] == "certify":
        return 1
    res = report["results"]
    return res["base_points"] if argv[1] == "bundle" else res["samples"]


def _classify_sweep_session(grid) -> list[list[str]]:
    calls = []
    for group, labels in ORBIT_LABELS.items():
        calls.append(["orbits", "--group", group])
        for orbit in labels:
            calls.append(["wdd", "--group", group, "--orbit", orbit])
            for q, l in grid:
                calls.append(["classify", "--group", group, "--orbit", orbit,
                              "--q", str(q), "--l", str(l)])
    for group, orbit in PRODUCTS:
        for q, l in grid:
            calls.append(["classify", "--group", group, "--orbit", orbit,
                          "--q", str(q), "--l", str(l)])
    for q, l in grid:
        if l:
            calls.append(["arith", "order", "--q", str(q), "--l", str(l)])
        for group in ORBIT_LABELS:
            calls.append(["arith", "considerate", "--group", group,
                          "--q", str(q), "--l", str(l)])
            if l:
                calls.append(["arith", "banal", "--group", group,
                              "--q", str(q), "--l", str(l)])
    calls.append(list(SWEEP_ARGV))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gl2-covered",
            why="GL2 enumerate and nilpotency scan at p=7, q of order > 2: "
                "the per-point sg_member + tangent_dim path (12,768 "
                "single-matrix eliminations a session) dominates",
            item="one enumerated point or one scanned pair",
            choices=GL2_COVERED_Q,
            build=_gl2_session,
            items=_gl2_items,
            tail_pct=100.0,
        ),
        Workload(
            name="stratum-sample",
            why="tangent/expbridge sampling, certificates and bundle over "
                "GL2-GL4 and GSp4: the only workload with certificates and "
                "mid-size (9x18, 16x32, 16x22) eliminations",
            item="one sampled point checked or one certificate",
            choices=tuple(range(STRATUM_SEED_POOL)),
            build=_stratum_session,
            items=_stratum_items,
            tail_pct=95.0,
        ),
        Workload(
            name="classify-sweep",
            why="orbits/wdd/classify/arith calls with no kernel or variety "
                "work: cli parsing and the symbolic layers dominate",
            item="one CLI call",
            choices=tuple(itertools.product(QL_COVERED, QL_SMALL_ORDER, QL_MID_ORDER)),
            build=_classify_sweep_session,
            items=lambda argv, report: 1,
            tail_pct=95.0,
        ),
    )
}


def report_of(stdout: str) -> dict | None:
    """The parsed JSON report of a call, or None when it printed none."""
    return json.loads(stdout) if stdout.strip() else None
