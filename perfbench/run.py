"""wdsmooth benchmark: CLI sessions, checked against seed-code references.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gl2-covered --seed 1 --seconds 26 --trace 0

One process makes sequential in-process ``wdsmooth.cli.main(argv)`` calls
(a closed loop with one client, no worker pool), running the workload's
session (see ``workloads.py``) round after round until ``--seconds`` have
passed. Every call's exit code and the SHA-256 of its JSON report must
equal the reference recorded on the seed code (``refs.json``); a mismatch
names the call and makes the run incorrect.

The time metrics are built from each command's mean time over the run's
rounds, scaled to the speed of a fixed reference job timed through the
run (``reference.py``): on a shared machine the same call runs up to 1.7x
slower while neighbours are busy, and an unscaled time tells how busy the
host was.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
seed's first round with the span tracer installed, then without it, and
prints the per-layer metrics (see ``tracer.py``); it also runs the
tracer fidelity check on small inputs. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before
it are for people: machine facts, every metric with its unit, the
non-zero exits behind ``fail_frac`` and the tail percentile used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from fidelity import fidelity_check
from reference import REF_MS, Reference
from tracer import Tracer
from workloads import WORKLOADS, report_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFS = HERE / "refs.json"

#: fresh processes timed for setup_s; their median is reported
SETUP_PROBES = 11
#: sessions a run makes at least, so that every command is timed several
#: times
MIN_ROUNDS = 3

#: metric name -> unit, for each --trace value, as BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


def import_program():
    """Import ``wdsmooth`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "wdsmooth" / "__init__.py").is_file():
        raise SystemExit("benchmark: no wdsmooth sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    from wdsmooth import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit("benchmark: imported wdsmooth from %s" % cli.__file__)
    return cli


def prepare(workload_name: str, seed: int):
    """Everything done before the first timed call: import, inputs, references."""
    cli = import_program()
    if workload_name not in WORKLOADS:
        raise SystemExit("benchmark: unknown workload %r (have %s)"
                         % (workload_name, ", ".join(WORKLOADS)))
    workload = WORKLOADS[workload_name]
    session = workload.session(seed)
    refs = json.loads(REFS.read_text())["calls"][workload_name]
    return cli, workload, session, refs


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def call_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_call(cli, argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI call: (exit code, stdout, seconds inside main)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed call, not a crashed benchmark
            code = -1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    if code == -1:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue(), elapsed


class Checker:
    """Compares each call with its seed-code reference and counts items."""

    def __init__(self, workload, refs: dict):
        self.workload = workload
        self.refs = refs
        self.failed = 0
        self.reported: set[str] = set()
        self._items: dict[str, int] = {}

    def check(self, argv: list[str], code: int, stdout: str) -> str:
        key = call_key(argv)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        ref = self.refs.get(key)
        if ref is None or ref != [code, digest]:
            self.failed += 1
            if key not in self.reported:
                self.reported.add(key)
                print("MISMATCH %s: reference %s, got exit %d sha256 %s"
                      % (key, ref if ref is not None else "missing", code, digest))
        return digest

    def items(self, argv: list[str], stdout: str) -> int:
        key = call_key(argv)
        if key not in self._items:
            self._items[key] = self.workload.items(argv, report_of(stdout))
        return self._items[key]


def run_round(cli, session, checker: Checker, tracer=None, reference=None) -> list[tuple]:
    """Run one round; per call (argv, exit code, seconds, digest, items, bytes)."""
    calls = []
    for argv in session:
        if tracer is not None:
            tracer.call_id += 1
        if reference is not None:
            reference.tick()
        code, stdout, elapsed = run_call(cli, argv)
        calls.append((argv, code, elapsed, checker.check(argv, code, stdout),
                      checker.items(argv, stdout), len(stdout.encode())))
    return calls


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def time_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to make
    its first call (interpreter start, imports, inputs, references)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit("benchmark: setup probe failed")
    return times


def untraced(args, cli, workload, session, refs) -> tuple[dict, int, int]:
    setups = time_setup(args.workload, args.seed)
    checker = Checker(workload, refs)
    reference = Reference()
    # total[i]: the time of the session's i-th call summed over the rounds
    total = [0.0] * len(session)
    session_items = calls = rounds = 0
    nonzero: Counter = Counter()
    start = time.perf_counter()
    while True:
        session_items = 0
        for i, (argv, code, elapsed, _, n_items, _) in enumerate(
                run_round(cli, session, checker, reference=reference)):
            total[i] += elapsed
            session_items += n_items
            if code != 0:
                nonzero["%s -> %d" % (call_key(argv), code)] += 1
        calls += len(session)
        rounds += 1
        # start another round only if it would end closer to the deadline
        spent = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and spent + 0.5 * spent / rounds >= args.seconds:
            break
    raw = [t / rounds for t in total]
    mean = [t * reference.scale() for t in raw]
    metrics = {
        "items_per_s": session_items / sum(mean),
        "call_p50_ms": 1e3 * statistics.median(mean),
        "call_tail_ms": 1e3 * percentile(mean, workload.tail_pct),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in mean if 1e3 * x > metrics["call_tail_ms"])
    print("workload %s seed %d: %d rounds of a %d-call session, %d items a session (%s)"
          % (args.workload, args.seed, rounds, len(session), session_items, workload.item))
    print("each call's time is its mean over %d rounds, scaled by %.4f: the reference job's "
          "mean over %d timings is %.4f ms, against %g ms"
          % (rounds, reference.scale(), len(reference.times),
             1e3 * statistics.fmean(reference.times), REF_MS))
    print("unscaled: items_per_s %.6g call_p50_ms %.6g call_tail_ms %.6g"
          % (session_items / sum(raw), 1e3 * statistics.median(raw),
             1e3 * percentile(raw, workload.tail_pct)))
    print("call_tail_ms is p%g of the %d calls' mean times (%d beyond it)"
          % (workload.tail_pct, len(session), beyond))
    print("fail_frac %.6f: %d of %d calls exit non-zero %s"
          % (sum(nonzero.values()) / calls, sum(nonzero.values()), calls, dict(nonzero)))
    print("setup_s probes: %s" % ", ".join("%.4f" % t for t in setups))
    return metrics, calls, checker.failed


def traced(args, cli, workload, session, refs) -> tuple[dict, int, int]:
    tracer = Tracer()
    checker = Checker(workload, refs)
    tracer.install()
    try:
        traced_calls = run_round(cli, session, checker, tracer)
    finally:
        tracer.uninstall()
    plain_calls = run_round(cli, session, checker)
    failed = checker.failed
    for t, u in zip(traced_calls, plain_calls):
        if t[1] != u[1] or t[3] != u[3]:
            failed += 1
            print("TRACE MISMATCH %s: traced and untraced reports differ" % call_key(t[0]))
    problems = fidelity_check(cli, run_call)
    for problem in problems:
        print("FIDELITY %s" % problem)
    failed += len(problems)

    metrics = tracer.layer_metrics()
    metrics["cli.report_bytes"] = sum(c[5] for c in traced_calls)
    metrics["cli.fail_frac"] = sum(1 for c in traced_calls if c[1] != 0) / len(traced_calls)
    metrics["trace.overhead_frac"] = (sum(c[2] for c in traced_calls)
                                      / sum(c[2] for c in plain_calls) - 1)
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s.npz" % args.workload)
    tracer.save(spans)
    print("workload %s seed %d: one traced round of %d calls, %d spans written to %s"
          % (args.workload, args.seed, len(session), len(tracer.span_name),
             spans.relative_to(ROOT)))
    return metrics, 2 * len(session), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cli, workload, session, refs = prepare(args.workload, args.seed)
    facts = machine_facts()
    print("machine %s" % json.dumps(facts, sort_keys=True))
    run_kind = traced if args.trace else untraced
    values, attempted, failed = run_kind(args, cli, workload, session, refs)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in UNITS[args.trace].items()}
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / ("result-%s-trace%d.json" % (args.workload, args.trace))).write_text(
        json.dumps(dict(result, workload=args.workload, seed=args.seed,
                        seconds=args.seconds, machine=facts), indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
