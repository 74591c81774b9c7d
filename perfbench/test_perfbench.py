"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import io
import json
import contextlib

import pytest

import run
from fidelity import fidelity_check
from reference import REF_MS, Reference
from tracer import Tracer
from workloads import WORKLOADS

CLI = run.import_program()
REFS = json.loads(run.REFS.read_text())["calls"]


def test_every_session_is_deterministic_and_referenced():
    for name, workload in WORKLOADS.items():
        for seed in (0, 1, 7, 2**31 + 5):
            session = workload.session(seed)
            assert session == workload.session(seed)
        for choice in workload.choices:
            missing = [run.call_key(a) for a in workload.build(choice)
                       if run.call_key(a) not in REFS[name]]
            assert not missing, (name, choice, missing[:3])


def test_matching_reference_passes():
    argv = ["arith", "order", "--q", "3", "--l", "7"]
    checker = run.Checker(WORKLOADS["classify-sweep"], REFS["classify-sweep"])
    code, stdout, _ = run.run_call(CLI, argv)
    checker.check(argv, code, stdout)
    assert checker.failed == 0


def test_corrupted_reference_fails_and_names_the_call():
    argv = ["arith", "order", "--q", "3", "--l", "7"]
    key = run.call_key(argv)
    refs = dict(REFS["classify-sweep"])
    refs[key] = [refs[key][0], "0" * 64]
    checker = run.Checker(WORKLOADS["classify-sweep"], refs)
    code, stdout, _ = run.run_call(CLI, argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        checker.check(argv, code, stdout)
    assert checker.failed == 1
    assert "MISMATCH " + key in out.getvalue()


def test_wrong_exit_code_fails():
    argv = ["certify", "--group", "GSp4", "--orbit", "2,1,1", "--p", "11", "--q", "3"]
    refs = dict(REFS["stratum-sample"])
    code, stdout, _ = run.run_call(CLI, argv)
    assert refs[run.call_key(argv)][0] == code == 1  # the known defect stays visible
    refs[run.call_key(argv)] = [0, refs[run.call_key(argv)][1]]
    checker = run.Checker(WORKLOADS["stratum-sample"], refs)
    with contextlib.redirect_stdout(io.StringIO()):
        checker.check(argv, code, stdout)
    assert checker.failed == 1


def test_run_reports_incorrect_on_corrupted_reference(tmp_path, monkeypatch, capsys):
    data = json.loads(run.REFS.read_text())
    session = WORKLOADS["classify-sweep"].session(3)
    victim = run.call_key(session[5])
    data["calls"]["classify-sweep"][victim][1] = "f" * 64
    corrupted = tmp_path / "refs.json"
    corrupted.write_text(json.dumps(data))
    monkeypatch.setattr(run, "REFS", corrupted)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    run.main(["--workload", "classify-sweep", "--seed", "3", "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert [line for line in lines if line.startswith("MISMATCH ")] == [
        line for line in lines if line.startswith("MISMATCH " + victim)]
    assert set(result["metrics"]) == set(run.UNITS[0])


def test_tracer_fidelity():
    assert fidelity_check(CLI, run.run_call) == []


def _nullity(rows: list[list[int]], p: int) -> int:
    """Plain-integer Gaussian elimination, independent of the package."""
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


def test_enumerate_matrix_count_matches_a_closed_form():
    p, q = 5, 2
    argv = ["verify", "enumerate", "--p", str(p), "--q", str(q)]
    tracer = Tracer()
    tracer.install()
    try:
        code, stdout, _ = run.run_call(CLI, argv)
    finally:
        tracer.uninstall()
    points = json.loads(stdout)["results"]["points"]
    metrics = tracer.layer_metrics()
    # one batch over GL2(F_p), one nullspace per phi with a nonzero
    # kernel of Ad(phi) - q, then per point: membership rank, tangent
    # matrix inverse and tangent nullity
    phis = [(a, b, c, d) for a in range(p) for b in range(p) for c in range(p)
            for d in range(p) if (a * d - b * c) % p]
    kernel_phis = 0
    for a, b, c, d in phis:
        det_inv = pow(a * d - b * c, -1, p)
        phi = [[a, b], [c, d]]
        inv = [[d * det_inv % p, -b * det_inv % p], [-c * det_inv % p, a * det_inv % p]]
        ad = [[(phi[i][k] * inv[l][j] - (q if (i, j) == (k, l) else 0)) % p
               for k in range(2) for l in range(2)] for i in range(2) for j in range(2)]
        kernel_phis += _nullity(ad, p) > 0
    assert code == 0
    assert metrics["variety.tangent_dim.calls"] == points
    assert metrics["kernels.matrices"] == len(phis) + kernel_phis + 3 * points
    assert metrics["kernels.batch_share"] == pytest.approx(len(phis) / metrics["kernels.matrices"])


def test_tracer_restores_every_binding():
    import wdsmooth
    from wdsmooth import cli, kernels, variety

    before = (cli.tangent_dim, variety.tangent_dim, wdsmooth.tangent_dim, kernels.rank_mod)
    tracer = Tracer()
    tracer.install()
    assert cli.tangent_dim is variety.tangent_dim is wdsmooth.tangent_dim
    assert cli.tangent_dim is not before[0]
    tracer.uninstall()
    assert (cli.tangent_dim, variety.tangent_dim, wdsmooth.tangent_dim, kernels.rank_mod) == before


def test_reference_is_timed_at_most_every_interval_and_scales_by_its_mean():
    reference = Reference()
    reference.tick()
    reference.tick()  # within EVERY of the first: skipped
    assert len(reference.times) == 1
    reference.times = [0.008, 0.012]
    assert reference.scale() == pytest.approx(REF_MS / 10.0)
