"""Command line interface: subcommands, report shape, exit codes."""

import contextlib
import io
import json
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wdsmooth.cli as cli
import wdsmooth.variety as variety
from wdsmooth.kernels import P_MAX


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_classify_single(capsys):
    rep = run_json(capsys, "classify", "--group", "GL3", "--orbit", "2,1", "--q", "4")
    assert rep["schema_version"] == "1"
    assert rep["command"] == "classify"
    assert rep["results"]["status"] == "Singular"
    assert rep["results"]["reasons"] == ["nonzero non-distinguished orbit"]
    assert rep["inputs"]["q"] == 4
    assert "provenance" in rep and "package" in rep["provenance"]


def test_classify_with_s(capsys):
    # q is derived as s^2
    rep = run_json(capsys, "classify", "--group", "GL2", "--orbit", "2", "--s", "2")
    assert rep["inputs"]["q"] == 4
    assert rep["results"]["status"] == "Smooth"


def test_classify_not_covered(capsys):
    rep = run_json(capsys, "classify", "--group", "GL2", "--orbit", "2",
                   "--q", "4", "--l", "5")
    assert rep["results"]["status"] == "NotCovered"


def test_classify_product(capsys):
    rep = run_json(capsys, "classify", "--group", "GL2xGL3",
                   "--orbit", "2;2,1", "--q", "4")
    assert rep["results"]["status"] == "Singular"
    assert rep["results"]["component_count"] == 1
    assert len(rep["results"]["reasons"]) == 2


def test_classify_requires_q(capsys):
    code, out, err = run(capsys, "classify", "--group", "GL2", "--orbit", "2")
    assert code == 1
    assert "error:" in err and "--q" in err


def test_classify_product_count_mismatch(capsys):
    code, _, err = run(capsys, "classify", "--group", "GL2xGL3",
                       "--orbit", "2", "--q", "4")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("group, orbit, message", [
    ("GL3", "", "orbit is empty"),
    ("GL3", ";", "orbit is empty"),
    ("GL2xGL3", "", "orbit is empty"),
    ("", "2", "group is empty"),
    ("x", "2", "group is empty"),
    ("GL3", "2,,1", "orbit '2,,1' has an empty ','-separated field"),
    ("GL3", "2,1,", "orbit '2,1,' has an empty ','-separated field"),
    ("GL3", ",2,1", "orbit ',2,1' has an empty ','-separated field"),
    ("GL3x", "2,1;", "group 'GL3x' has an empty 'x'-separated field"),
    ("GL3", "2,1;", "orbit '2,1;' has an empty ';'-separated field"),
    ("GL2xxGL3", "2;;2,1", "group 'GL2xxGL3' has an empty 'x'-separated field"),
    ("GL2xGL3", "2;;2,1", "orbit '2;;2,1' has an empty ';'-separated field"),
    ("GL2xGL3", "2;2,,1", "orbit '2,,1' has an empty ','-separated field"),
])
def test_classify_names_an_empty_group_or_orbit(capsys, group, orbit, message):
    code, out, err = run(capsys, "classify", "--group", group, "--orbit", orbit, "--q", "4")
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("orbit", ["2,,1", "2,1,", ",2,1"])
@pytest.mark.parametrize("argv", [
    ("wdd", "--group", "GL3"),
    ("verify", "tangent", "--group", "GL3", "--p", "11", "--q", "4"),
    ("certify", "--group", "GL3", "--p", "11", "--q", "4"),
], ids=lambda a: " ".join(a[:2]))
def test_orbit_with_an_empty_part_is_a_usage_error(capsys, argv, orbit):
    code, out, err = run(capsys, *argv, "--orbit", orbit)
    assert (code, out, err) == (
        1, "", "error: orbit %r has an empty ','-separated field\n" % orbit)


@pytest.mark.parametrize("spaced", ["2, 1", "2 ,1", " 2 , 1 "])
@pytest.mark.parametrize("argv", [
    ("classify", "--group", "GL3", "--q", "4"),
    ("wdd", "--group", "GL3"),
    ("verify", "tangent", "--group", "GL3", "--p", "11", "--q", "4"),
    ("certify", "--group", "GL3", "--p", "11", "--q", "4"),
], ids=lambda a: " ".join(a[:2]))
def test_spaces_around_a_partitions_commas_are_allowed(capsys, argv, spaced):
    got = run_json(capsys, *argv, "--orbit", spaced)
    want = run_json(capsys, *argv, "--orbit", "2,1")
    assert got["results"] == want["results"]


@pytest.mark.parametrize("orbit", ["2, ,1", "2 ,, 1", " , 2"])
def test_a_blank_part_between_commas_is_still_an_empty_field(capsys, orbit):
    code, out, err = run(capsys, "classify", "--group", "GL3", "--orbit", orbit, "--q", "4")
    assert (code, out, err) == (
        1, "", "error: orbit %r has an empty ','-separated field\n" % orbit.strip())


@pytest.mark.parametrize("argv, name", [
    (("orbits", "--group", "GL1"), "GL1"),
    (("orbits", "--group", "SO4"), "SO4"),
    (("classify", "--group", "GL1", "--orbit", "1", "--q", "4"), "GL1"),
    (("classify", "--group", "GL2xsl1", "--orbit", "2;1", "--q", "4"), "sl1"),
    (("wdd", "--group", "E9", "--orbit", "2"), "E9"),
    (("arith", "considerate", "--group", "SO4", "--q", "3", "--l", "11"), "SO4"),
])
def test_rank_errors_name_the_group(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: group %r: rank " % name) and "out of range" in err
    assert "Traceback" not in err


def test_orbits_listing(capsys):
    rep = run_json(capsys, "orbits", "--group", "Sp6")
    labels = [row["label"] for row in rep["results"]["orbits"]]
    assert labels == ["6", "4,2", "4,1,1", "3,3", "2,2,2", "2,2,1,1",
                      "2,1,1,1,1", "1,1,1,1,1,1"]
    dist = [row["label"] for row in rep["results"]["orbits"] if row["distinguished"]]
    assert dist == ["6", "4,2"]


def test_orbits_exceptional(capsys):
    rep = run_json(capsys, "orbits", "--group", "E6")
    labels = [row["label"] for row in rep["results"]["orbits"]]
    assert labels == ["E6", "E6(a1)", "E6(a2)"]


def test_orbits_table_format(capsys):
    code, out, err = run(capsys, "orbits", "--group", "GL3", "--format", "table")
    assert code == 0
    assert "label" in out and "2,1" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_wdd(capsys):
    rep = run_json(capsys, "wdd", "--group", "GL3", "--orbit", "2,1")
    assert rep["results"]["weights"] == [1, 1]
    assert rep["results"]["grading"] == {"-2": 1, "-1": 2, "0": 3, "1": 2, "2": 1}
    assert rep["results"]["order_bound"] == 2
    assert rep["results"]["distinguished"] is False


def test_arith_order(capsys):
    rep = run_json(capsys, "arith", "order", "--q", "3", "--l", "11")
    assert rep["results"]["order"] == 5


def test_arith_considerate_and_banal(capsys):
    rep = run_json(capsys, "arith", "considerate", "--group", "Sp6",
                   "--q", "3", "--l", "11")
    assert rep["results"]["considerate"] is False
    rep = run_json(capsys, "arith", "banal", "--group", "Sp6", "--q", "3", "--l", "11")
    assert rep["results"]["banal"] is True


@pytest.mark.parametrize("command", ["banal", "considerate"])
@pytest.mark.parametrize("q, l, message", [
    ("6", "5", "q must be a prime power >= 2, got 6"),  # no field has 6 elements
    ("-3", "5", "q must be a prime power >= 2, got -3"),
    ("1", "5", "q must be a prime power >= 2, got 1"),
    ("4", "2", "l must not divide q"),
    ("4", "9", "l must be 0 or a prime, got 9"),
])
def test_banal_and_considerate_check_q_and_l_alike(capsys, command, q, l, message):
    code, out, err = run(capsys, "arith", command, "--group", "GL3", "--q", q, "--l", l)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, message", [
    (("order", "--q", "3", "--l", "-5"), "l must be a prime, got -5"),
    (("order", "--q", "3", "--l", "12"), "l must be a prime, got 12"),
])
def test_arith_names_an_l_that_is_not_prime(capsys, argv, message):
    assert run(capsys, "arith", *argv) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("q, l, message", [
    ("6", "5", "q must be a prime power >= 2, got 6"),  # no field has 6 elements
    ("1", "5", "q must be a prime power >= 2, got 1"),
    ("6", "12", "l must be a prime, got 12"),  # l is checked first
])
def test_arith_order_checks_q_after_l(capsys, q, l, message):
    assert run(capsys, "arith", "order", "--q", q, "--l", l) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("command", ["banal", "considerate"])
def test_arith_accepts_characteristic_zero(capsys, command):
    # no prime divides the group order in characteristic zero
    rep = run_json(capsys, "arith", command, "--group", "GL3", "--q", "4", "--l", "0")
    assert rep["results"][command] is True


def test_arith_sweep(capsys):
    rep = run_json(capsys, "arith", "sweep", "--families", "AB",
                   "--rank-max", "2", "--l-max", "7", "--q-max", "5")
    assert rep["results"]["ok"] is True
    assert rep["results"]["violations"] == []


def test_arith_sweep_stops_each_family_at_its_top_rank(capsys):
    # type A ends at rank 8, so --rank-max 9 sweeps the ranks 8 sweeps
    flags = ("--families", "A", "--l-max", "5", "--q-max", "4")
    capped = run_json(capsys, "arith", "sweep", *flags, "--rank-max", "9")["results"]
    assert capped == run_json(capsys, "arith", "sweep", *flags, "--rank-max", "8")["results"]


@pytest.mark.parametrize("flags", [
    ("--rank-max", "0"),
    ("--l-max", "-3"),
    ("--families", ""),
    ("--l-max", "2", "--q-max", "2"),
])
def test_arith_sweep_rejects_an_empty_grid(capsys, flags):
    code, out, err = run(capsys, "arith", "sweep", *flags)
    assert (code, out) == (1, "")
    assert err.startswith("error: implication sweep has no (type, q, l) case")


def test_verify_enumerate(capsys):
    rep = run_json(capsys, "verify", "enumerate", "--p", "7", "--q", "4")
    res = rep["results"]
    assert res["points"] == 4032
    assert res["zero_points"] == 2016
    assert res["all_members"] is True
    assert res["tangent_dim_counts"] == {"4": 3696, "5": 336}


def test_verify_tangent(capsys):
    rep = run_json(capsys, "verify", "tangent", "--group", "GL3", "--orbit", "3",
                   "--p", "11", "--q", "4", "--samples", "6", "--seed", "0")
    assert rep["results"]["generic_smooth"] is True
    assert rep["results"]["component_dim"] == 9


def test_verify_nilpotency(capsys):
    rep = run_json(capsys, "verify", "nilpotency", "--p", "7", "--q", "4")
    assert rep["results"]["non_nilpotent"] == 0
    rep = run_json(capsys, "verify", "nilpotency", "--p", "7", "--q", "6")
    assert rep["results"]["non_nilpotent"] > 0
    assert rep["results"]["consistent"] is True


def test_verify_expbridge(capsys):
    rep = run_json(capsys, "verify", "expbridge", "--group", "GSp4", "--orbit", "2,2",
                   "--p", "11", "--q", "3", "--samples", "4")
    assert rep["results"]["all_pass"] is True


def test_verify_bundle(capsys):
    rep = run_json(capsys, "verify", "bundle", "--group", "GL2", "--p", "7", "--q", "4")
    assert rep["results"]["expected_fiber"] == 7
    assert rep["results"]["base_points"] == 336


def test_certify(capsys):
    rep = run_json(capsys, "certify", "--group", "GL3", "--orbit", "2,1",
                   "--p", "11", "--s", "2")
    res = rep["results"]
    assert res["lower_bound"] == 10 and res["component_dim"] == 9
    assert res["certifies_singular"] is True
    assert res["eps"] == [2, 1, 1, 1]
    assert rep["inputs"]["q"] == 4


def test_certify_distinguished_is_an_error(capsys):
    code, _, err = run(capsys, "certify", "--group", "GL3", "--orbit", "3",
                       "--p", "11", "--q", "4")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("orbit, marked, message", [
    ("2,2", "1", "marked position 1 is not a block boundary [2]"),
    ("2,2", "3", "marked position 3 is not a block boundary [2]"),
    ("4", "2", "a single-block orbit has no boundary to mark"),
])
def test_certify_gsp4_rejects_a_bad_mark(capsys, orbit, marked, message):
    code, out, err = run(capsys, "certify", "--group", "GSp4", "--orbit", orbit,
                         "--p", "11", "--q", "3", "--marked", marked)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_certify_gsp4_reports_the_mark_it_used(capsys):
    rep = run_json(capsys, "certify", "--group", "GSp4", "--orbit", "2,2",
                   "--p", "11", "--q", "3", "--marked", "2")
    assert rep["inputs"]["marked"] == rep["results"]["marked"] == 2
    assert rep["results"]["certifies_singular"] is True


@pytest.mark.parametrize("command", ["tangent", "expbridge"])
def test_short_sample_warns_on_stderr(capsys, monkeypatch, fresh_jordan_systems, command):
    argv = ("verify", command, "--group", "GL3", "--orbit", "2,1", "--p", "7", "--q", "3",
            "--samples", "3")
    with monkeypatch.context() as patch:  # the Jordan system has no solution
        patch.setattr(variety.kernels, "nullspace_mod",
                      lambda a, p: np.zeros((0, a.shape[1]), dtype=np.int64))
        code, out, err = run(capsys, *argv)
    variety._jordan_system.cache_clear()  # drop the fake system
    assert code == 2 and json.loads(out)["results"]["samples"] == 0
    assert err.splitlines()[0] == "warning: sampled 0 of 3 requested points"
    # a full sample prints no warning
    code, out, err = run(capsys, *argv)
    assert code == 0 and "warning" not in err


def test_check_failure_exit_code(capsys, monkeypatch):
    class FakeReport:
        p, q = 7, 4
        base_points = 3
        expected_fiber = 7
        fiber_counts = (7, 6, 7)
        quadratic_extension_points = 0
        ok = False

    monkeypatch.setattr(cli, "bundle_count_check", lambda *a, **k: FakeReport())
    code, out, err = run(capsys, "verify", "bundle", "--group", "GL2",
                         "--p", "7", "--q", "4")
    assert code == 2
    assert err.startswith("check failed:")


def test_certify_needs_q(capsys):
    code, out, err = run(capsys, "certify", "--group", "GL3", "--orbit", "2,1", "--p", "11")
    assert (code, out, err) == (1, "", "error: certify needs --q (or --s)\n")


def test_bad_usage_exits_one(capsys):
    assert run(capsys, "classify", "--group", "GL9", "--orbit", "2", "--q", "4")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1


@pytest.mark.parametrize("argv, prog, choices", [
    ((), "wdsmooth", "{classify,orbits,wdd,arith,verify,certify}"),
    (("verify",), "wdsmooth verify", "{enumerate,tangent,nilpotency,expbridge,bundle}"),
    (("arith", "--format", "table"), "wdsmooth arith", "{considerate,banal,order,sweep}"),
])
def test_bare_command_group_names_its_subcommands(capsys, argv, prog, choices):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        "%s: error: the following arguments are required: %s" % (prog, choices)
    )
    # the usage above the error lists the same choices
    assert err.startswith("usage: %s " % prog) and err.count(choices) == 2


FIELD_COMMANDS = (
    ("verify", "enumerate", "--q", "3"),
    ("verify", "nilpotency", "--q", "3"),
    ("verify", "tangent", "--group", "GL3", "--orbit", "2,1", "--q", "4"),
    ("verify", "expbridge", "--group", "GL3", "--orbit", "3", "--q", "4"),
    ("verify", "bundle", "--group", "GL3", "--q", "4"),
    ("certify", "--group", "GL3", "--orbit", "2,1", "--q", "4"),
)


@pytest.mark.parametrize("argv", FIELD_COMMANDS, ids=lambda a: " ".join(a[:2]))
@pytest.mark.parametrize("p, message", [
    ("8", "p must be prime"),
    ("9", "p must be prime"),
    ("1", "p must be prime"),
    ("0", "p must be prime"),
    ("2147483647", "p exceeds the int64-safe bound"),  # prime, 2^31 - 1
    ("759250133", "p exceeds the int64-safe bound"),  # first prime past P_MAX
    ("2305843009213693951", "p exceeds the int64-safe bound"),  # prime, 2^61 - 1
])
def test_field_guard(capsys, argv, p, message):
    # the bound is checked before primality: trial division up to
    # sqrt(2^61 - 1) would run for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--p", p)
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message)


UNIT_Q_COMMANDS = (
    ("verify", "enumerate"),
    ("verify", "nilpotency"),
    ("verify", "tangent", "--group", "GL3", "--orbit", "2,1"),
    ("verify", "tangent", "--group", "GSp4", "--orbit", "2,2"),
    ("verify", "expbridge", "--group", "GL3", "--orbit", "3"),
    ("verify", "bundle", "--group", "GL2"),
    ("verify", "bundle", "--group", "GL3"),
)


@pytest.mark.parametrize("argv", UNIT_Q_COMMANDS, ids=lambda a: " ".join(a[1:4]))
@pytest.mark.parametrize("q", ["0", "11"])
def test_unit_q_guard(capsys, argv, q):
    code, out, err = run(capsys, *argv, "--p", "11", "--q", q)
    assert (code, out, err) == (1, "", "error: q must be a unit mod p\n")


@pytest.mark.parametrize("argv, what", [
    (("verify", "enumerate"), "full enumeration"),
    (("verify", "nilpotency"), "redundancy scan"),
    (("verify", "bundle", "--group", "GL2"), "GL(2) bundle check"),
], ids=lambda v: " ".join(v[1:4]) if isinstance(v, tuple) else None)
def test_gl2_walks_are_capped_at_13(capsys, argv, what):
    # each walks all of GL2(F_p), p^4 entries; past p = 13 it exits 1 first
    code, out, err = run(capsys, *argv, "--p", "17", "--q", "3")
    assert (code, out, err) == (1, "", "error: %s is capped at p = 13\n" % what)


SAMPLES_COMMANDS = (
    ("verify", "tangent", "--group", "GL3", "--orbit", "2,1"),
    ("verify", "expbridge", "--group", "GL3", "--orbit", "2,1"),
    ("verify", "bundle", "--group", "GL3"),
)


@pytest.mark.parametrize("argv", SAMPLES_COMMANDS, ids=lambda a: " ".join(a[1:4]))
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_samples_must_be_positive(capsys, argv, samples):
    code, out, err = run(capsys, *argv, "--p", "7", "--q", "3", "--samples", samples)
    assert (code, out, err) == (1, "", "error: samples must be positive\n")


@pytest.mark.parametrize("argv", SAMPLES_COMMANDS + (
    ("verify", "bundle", "--group", "GL2"),  # a branch that samples nothing
), ids=lambda a: " ".join(a[1:4]))
def test_seed_must_be_non_negative(capsys, argv):
    code, out, err = run(capsys, *argv, "--p", "7", "--q", "3", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be non-negative\n")


@pytest.mark.parametrize("argv", SAMPLES_COMMANDS + (
    ("verify", "tangent", "--group", "GL2", "--orbit", "2"),
    ("verify", "tangent", "--group", "GSp4", "--orbit", "2,2"),
    ("verify", "bundle", "--group", "GL2"),
), ids=lambda a: " ".join(a[1:4]))
@pytest.mark.parametrize("samples", ["10001", "100000", "1000000000"])
def test_samples_are_capped(capsys, argv, samples):
    code, out, err = run(capsys, *argv, "--p", "7", "--q", "3", "--samples", samples)
    assert (code, out, err) == (1, "", "error: samples must be at most 10000\n")


def test_samples_from_config_must_be_positive(tmp_path, capsys):
    cfg = tmp_path / "wd.cfg"
    cfg.write_text("samples=0\n")
    code, out, err = run(capsys, "verify", "bundle", "--group", "GL3", "--p", "7",
                         "--q", "3", "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: samples must be positive\n")


def test_largest_safe_bound_is_the_int64_limit():
    # K (p - 1)^2 < 2^63 with K = 16 terms in the longest int64 inner product
    assert 16 * (P_MAX - 1) ** 2 < 2**63 <= 16 * P_MAX**2


def test_deterministic_reports(capsys):
    args = ("verify", "tangent", "--group", "GL3", "--orbit", "2,1",
            "--p", "11", "--q", "4", "--samples", "5", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second and first


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "wdd", "--group", "GL3", "--orbit", "2,1",
                       "--out", str(target))
    assert code == 0 and out == ""
    _, stdout, _ = run(capsys, "wdd", "--group", "GL3", "--orbit", "2,1")
    assert target.read_text() == stdout


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "wd.cfg"
    cfg.write_text("# defaults for desk checks\nq = 4\nl = 0\n")
    rep = run_json(capsys, "classify", "--group", "GL3", "--orbit", "2,1",
                   "--config", str(cfg))
    assert rep["inputs"]["q"] == 4
    # explicit flags win over the config file
    rep = run_json(capsys, "classify", "--group", "GL2", "--orbit", "2",
                   "--config", str(cfg), "--q", "9")
    assert rep["inputs"]["q"] == 9


def test_report_json_is_sorted_and_newline_terminated(capsys):
    code, out, _ = run(capsys, "arith", "order", "--q", "3", "--l", "11")
    assert code == 0
    assert out.endswith("\n")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


#: strings json escapes: quotes, backslashes, control and non-ASCII characters
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                              st.characters()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_TEXT | st.floats()
    | st.integers() | st.integers(min_value=-2**80, max_value=2**80),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_report_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_report_writer_covers_the_edge_values():
    # in case the property's draws miss them
    value = {"z": [[], {}, (), [[]], {"": {}}], "\"\\\x00\u00e9": (2**64, -2**63 - 1, True, None)}
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, {1: "a"}, {"a": [np.int64(1)]}],
                         ids=["numpy int", "set", "int key", "nested numpy int"])
def test_report_writer_rejects_what_json_cannot_write(value):
    with pytest.raises(TypeError):
        cli._json(value)


SWEEP_FLAGS = ("--families", "AB", "--rank-max", "2", "--q-max", "5")


def test_sweep_config_matches_the_same_flags(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = AB\nrank-max = 2\nq_max = 5\n")
    by_flags = run_json(capsys, "arith", "sweep", *SWEEP_FLAGS)
    by_config = run_json(capsys, "arith", "sweep", "--config", str(cfg))
    assert by_config["inputs"] == by_flags["inputs"] == {
        "families": "AB", "rank_max": 2, "l_max": 13, "q_max": 5}
    assert by_config["results"]["checked"] == by_flags["results"]["checked"]
    # an explicit flag wins over the config
    rep = run_json(capsys, "arith", "sweep", "--config", str(cfg), "--q-max", "7")
    assert rep["inputs"]["q_max"] == 7 and rep["inputs"]["rank_max"] == 2


#: one valid call per command path of the table
VALID_CALLS = {
    ("classify",): ("--group", "GL2", "--orbit", "2", "--s", "2"),
    ("orbits",): ("--group", "GL3"),
    ("wdd",): ("--group", "GL3", "--orbit", "2,1"),
    ("arith", "considerate"): ("--group", "Sp6", "--q", "3", "--l", "11"),
    ("arith", "banal"): ("--group", "Sp6", "--q", "3", "--l", "11"),
    ("arith", "order"): ("--q", "3", "--l", "11"),
    ("arith", "sweep"): SWEEP_FLAGS,
    ("verify", "enumerate"): ("--p", "3", "--q", "2"),
    ("verify", "tangent"): ("--group", "GL2", "--orbit", "2", "--p", "7", "--q", "3"),
    ("verify", "nilpotency"): ("--p", "5", "--q", "2"),
    ("verify", "expbridge"): ("--group", "GL2", "--orbit", "2", "--p", "7", "--q", "3"),
    ("verify", "bundle"): ("--group", "GL2", "--p", "5", "--q", "2"),
    ("certify",): ("--group", "GL3", "--orbit", "2,1", "--p", "11", "--s", "2"),
}
COMMAND_PATHS = [path for path, (_, handler, _) in cli._COMMANDS.items() if handler]


def test_every_command_path_has_a_valid_call():
    assert sorted(VALID_CALLS) == sorted(COMMAND_PATHS)


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
def test_inputs_echo_the_command_flags(capsys, path):
    rep = run_json(capsys, *path, *VALID_CALLS[path])
    flags = cli._COMMANDS[path][2]
    assert sorted(rep["inputs"]) == sorted(f.dest for f in flags if f.name != "--s")
    assert rep["command"] == path[0]


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
def test_every_report_is_written_as_json_dumps_writes_it(tmp_path, capsys, path):
    code, out, err = run(capsys, *path, *VALID_CALLS[path])
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    # --out writes the same bytes to the file, and nothing to stdout
    target = tmp_path / "report.json"
    code, to_file, err = run(capsys, *path, *VALID_CALLS[path], "--out", str(target))
    assert code == 0 and to_file == "", err
    assert target.read_bytes() == out.encode("utf-8")


def test_config_values_take_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "wd.cfg"
    # rank-max belongs to arith sweep, so verify tangent ignores it
    cfg.write_text("seed = 2\nsamples = 3\nrank-max = 1\n")
    rep = run_json(capsys, "verify", "tangent", "--group", "GL2", "--orbit", "2",
                   "--p", "7", "--q", "3", "--config", str(cfg))
    assert rep["inputs"]["seed"] == 2 and rep["inputs"]["samples"] == 3
    assert rep["results"]["samples"] == 3
    # the same values given as flags print the same report
    _, flags_out, _ = run(capsys, "verify", "tangent", "--group", "GL2", "--orbit", "2",
                          "--p", "7", "--q", "3", "--seed", "2", "--samples", "3")
    assert json.loads(flags_out) == rep


@pytest.mark.parametrize("name", ["GL", "GLx", "GSp6", "Sp4", "GL0", "GL5"])
@pytest.mark.parametrize("argv", [
    ("verify", "tangent", "--orbit", "2,1", "--p", "11", "--q", "4"),
    ("verify", "expbridge", "--orbit", "2,1", "--p", "11", "--q", "4"),
    ("verify", "bundle", "--p", "7", "--q", "3"),
    ("certify", "--orbit", "2,1", "--p", "11", "--q", "4"),
], ids=["verify tangent", "verify expbridge", "verify bundle", "certify"])
def test_unknown_matrix_group(capsys, argv, name):
    code, out, err = run(capsys, *argv, "--group", name)
    assert (code, out) == (1, "")
    assert err == "error: matrix realizations cover GL1..GL4 and GSp4, not %r\n" % name


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "missing.cfg" if kind == "missing" else tmp_path
    code, out, err = run(capsys, "classify", "--group", "GL3", "--orbit", "2,1",
                         "--q", "4", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(path) in err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run(capsys, "wdd", "--group", "GL3", "--orbit", "2,1",
                         "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(target) in err


def test_group_level_flags_are_honoured(tmp_path, capsys):
    enumerate_ = ("enumerate", "--p", "5", "--q", "2")
    _, leaf, _ = run(capsys, "verify", *enumerate_, "--format", "table")
    code, group, _ = run(capsys, "verify", "--format", "table", *enumerate_)
    assert code == 0 and group == leaf and not group.startswith("{")
    # the flag given after the subcommand wins
    rep = run_json(capsys, "verify", "--format", "table", *enumerate_, "--format", "json")
    assert rep["inputs"] == {"p": 5, "q": 2}

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = AB\nrank-max = 2\nq_max = 5\n")
    assert (run_json(capsys, "arith", "--config", str(cfg), "sweep")
            == run_json(capsys, "arith", "sweep", *SWEEP_FLAGS))

    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--out", str(target), *enumerate_)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["inputs"] == {"p": 5, "q": 2}


def test_top_level_flags_are_honoured(tmp_path, capsys):
    classify = ("classify", "--group", "GL3", "--orbit", "2,1", "--q", "4")
    _, leaf, _ = run(capsys, *classify, "--format", "table")
    code, top, _ = run(capsys, "--format", "table", *classify)
    assert code == 0 and top == leaf and not top.startswith("{")
    # the flag given after the subcommand wins
    rep = run_json(capsys, "--format", "table", *classify, "--format", "json")
    assert rep["results"]["status"] == "Singular"

    cfg = tmp_path / "wd.cfg"
    cfg.write_text("q = 4\n")
    assert run_json(capsys, "--config", str(cfg), *classify[:-2]) == run_json(capsys, *classify)

    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(target), *classify)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["inputs"]["q"] == 4


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_repeated_calls_match_a_fresh_parser(tmp_path, capsys):
    cfg = tmp_path / "wd.cfg"
    cfg.write_text("q = 4\nl = 0\n")
    calls = (
        ("-h",),
        ("classify", "--group", "GL3", "--orbit", "2,1", "--q", "4", "--bogus"),
        ("classify", "--group", "GL9", "--orbit", "2", "--q", "4"),
        ("classify", "--group", "Sp6", "--orbit", "4,2", "--s", "2"),
        ("classify", "--group", "GL3", "--orbit", "2,1", "--config", str(cfg)),
        ("verify", "--format", "table", "enumerate", "--p", "5", "--q", "2"),
        ("classify", "--group", "GL3", "--orbit", "2,1", "--q", "4"),
    )
    # two passes through one parser, so every call also follows every other
    reused = [run(capsys, *argv) for argv in calls * 2]
    fresh = []
    for argv in calls * 2:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 1, 1, 0, 0, 0, 0] * 2
    assert "usage: wdsmooth" in fresh[0][1] and fresh[2][2].startswith("error: ")


# ------------------------------------------------------- direct parse parity

CLASSIFY = ("classify", "--group", "GL3", "--orbit", "2,1", "--q", "4")
ENUMERATE = ("enumerate", "--p", "5", "--q", "2")
TANGENT = ("verify", "tangent", "--group", "GL2", "--orbit", "2", "--p", "7", "--q", "3")

#: calls that start with a command's words and whose other words are all
#: the command's: the direct parse takes the well-formed ones, and the
#: command's own argparse parser the rest ("CFG" and "OUT" stand for a
#: config file and a report path)
DIRECT_PARSED = [
    *((*path, *flags) for path, flags in VALID_CALLS.items()),
    (*CLASSIFY, "--format", "table"),
    (*CLASSIFY[:-2], "--config", "CFG"),
    ("arith", "sweep", "--config", "CFG"),
]
LEAF_PARSED = DIRECT_PARSED + [
    ("classify", "-h"),
    ("verify", "enumerate", "-h"),
    ("arith", "sweep", "--help"),
    (*CLASSIFY, "--format=table"),
    (*TANGENT, "--sam", "3"),  # an abbreviation
    (*TANGENT, "--s", "3"),  # ambiguous: --samples or --seed
    ("arith", "sweep", "--rank_max", "2"),  # spelled as a config key
    ("classify", "--", *CLASSIFY[1:]),
    ("classify", "--orbit", "2,1", "--q", "4"),  # missing required flag
    ("verify", "enumerate", "--p", "5"),
    ("verify", "enumerate", "--p", "5", "--q", "x"),  # bad int
    ("orbits", "--group", "GL3", "--format", "xml"),  # bad choice
    ("classify", "--group", "GL3", "--orbit", "2,1", "--q", "-1"),
    ("verify", *ENUMERATE[:-1], "-1"),
]
#: calls that a parser above the command's reads: a top-level or group
#: parser, which also reports the words a command's parser leaves
TREE_PARSED = [
    (),
    ("-h",),
    ("--help",),
    ("verify", "-h"),
    ("arith", "--help"),
    ("--format", "table", *CLASSIFY),
    ("--format=table", *CLASSIFY),
    ("--format", "xml", *CLASSIFY),
    ("--config", "CFG", *CLASSIFY[:-2]),
    ("verify", "--format", "table", *ENUMERATE),
    ("verify", "--format=table", *ENUMERATE),
    ("arith", "--config", "CFG", "sweep"),
    ("verify", "--out", "OUT", *ENUMERATE, "--bogus"),
    (*CLASSIFY, "--bogus"),
    (*CLASSIFY, "extra"),
    (*CLASSIFY, "--"),
    ("verify", *ENUMERATE, "--bogus", "1"),
    ("--", *CLASSIFY),
    ("--bogus", *CLASSIFY),
    ("verify",),
    ("arith",),
    ("verify", "--format", "table"),
    ("--format", "table", "arith"),
    ("verify", "nonsense"),
    ("nonsense",),
    ("nonsense", "--q", "4"),
]


class TreeBuilt(Exception):
    """Raised in place of building the argparse tree."""


def no_tree():
    raise TreeBuilt


def run_quietly(argv, parse_args=cli._parse_args, build_parser=cli._build_parser):
    """(exit code, stdout, stderr) of one call, with ``cli._parse_args``
    and ``cli._build_parser`` replaced by the given functions."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_parse_args", parse_args), \
            mock.patch.object(cli, "_build_parser", build_parser), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_through_tree(argv):
    tree = cli._build_parser()
    return run_quietly(argv, tree.parse_args, lambda: tree)


def run_without_tree(argv):
    return run_quietly(argv, build_parser=no_tree)


@pytest.mark.parametrize("parser, argv", [
    *(("leaf", argv) for argv in LEAF_PARSED),
    *(("tree", argv) for argv in TREE_PARSED),
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else a)
def test_leaf_dispatch_matches_the_full_tree(tmp_path, capsys, parser, argv):
    direct = parser == "leaf" and argv in DIRECT_PARSED
    cfg = tmp_path / "wd.cfg"
    cfg.write_text("q = 4\nfamilies = AB\nrank-max = 2\nq_max = 5\n")
    files = {"CFG": str(cfg), "OUT": str(tmp_path / "report.json")}
    argv = [files.get(word, word) for word in argv]
    dispatched = run(capsys, *argv)
    assert dispatched == run_through_tree(argv)
    if direct:  # with no tree to fall back to, the call still runs
        assert dispatched == run_without_tree(argv)
    else:
        with pytest.raises(TreeBuilt):
            run_without_tree(argv)


#: small pools of values per flag dest: (values the direct parse takes,
#: some of which the command rejects; values it leaves to argparse). The
#: work stays cheap: p in {5, 7} (9 is not prime), at most 3 samples
VALUE_POOLS = {
    "group": (("GL2", "GL3", "GSp4", "Sp4", "GL2xGL3", "", "GL 3"), ()),
    "orbit": (("2", "2,1", "2,2", "3", "1,1", "2;2,1", "", "2, 1"), ()),
    "p": (("5", "7", "9"), ("x", "-7", "", "5.0")),
    "q": (("2", "3", "4", " 3"), ("-1", "x", "")),
    "s": (("2", "3"), ("-2", "x")),
    "l": (("0", "5", "11"), ("-5", "x")),
    "samples": (("1", "3", "0"), ("-1", "x")),
    "seed": (("0", "2"), ("-1", "x")),
    "marked": (("1", "2", "9"), ("-1", "x")),
    "families": (("AB", "G", "Z", "", "A B"), ()),
    "rank_max": (("1", "2", "0"), ("-1", "x")),
    "l_max": (("3", "7"), ("-3", "x")),
    "q_max": (("3", "5"), ("x",)),
    "format": (("json", "table"), ("xml", "")),
}
FORMAT = next(flag for flag in cli._COMMON if flag.name == "--format")


@st.composite
def command_words(draw, path):
    """The words after a command's path: its flags and --format in a
    random order, some left out and some repeated, each with a value from
    its pool; ``well_formed`` is whether the direct parse must take them."""
    flags = draw(st.permutations(cli._COMMANDS[path][2] + (FORMAT,)))
    well_formed = draw(st.booleans())
    # required flags are rarely dropped, so that most calls get past argparse
    kept = [flag for flag in flags
            if draw(st.integers(0, 9)) > (0 if flag.required else 4) or
            well_formed and flag.required]
    kept += draw(st.lists(st.sampled_from(flags), max_size=2))
    words = []
    for flag in kept:
        accepted, refused = VALUE_POOLS[flag.dest]
        pool = accepted if well_formed or not refused else accepted + refused
        words += [flag.name, draw(st.sampled_from(pool))]
    if not well_formed and words:
        i = 2 * draw(st.integers(0, len(words) // 2 - 1))
        name = words[i]
        spelling = draw(st.sampled_from(["=", "abbreviation", "_", "-h", "trailing", None]))
        if spelling == "=":
            words[i:i + 2] = [name + "=" + words[i + 1]]
        elif spelling == "abbreviation" and len(name) > 4:
            words[i] = name[:-1]
        elif spelling == "_":  # a config key's spelling
            words[i] = "--" + name[2:].replace("-", "_")
        elif spelling == "-h":
            words.insert(i, "-h")
        elif spelling == "trailing":
            words.append("extra")
    return words, well_formed


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_direct_parse_matches_the_tree(path, data):
    words, well_formed = data.draw(command_words(path))
    argv = [*path, *words]
    expected = run_through_tree(argv)
    if well_formed:
        assert run_without_tree(argv) == expected
    else:
        assert run_quietly(argv) == expected
