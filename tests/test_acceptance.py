"""Acceptance checks, one test per numbered criterion.

Each test prints a single 'criterion NN <name>: PASS' line once its
assertions hold, so a verbose run yields one status line per criterion.
The whole module is designed to finish in well under five minutes.
"""

import itertools
import json
from collections import Counter

import numpy as np

from diagram_rows import D_ROWS, F4_LEVI_ROWS
from wdsmooth.arith import (
    QContext,
    chevalley_steinberg_order,
    implication_sweep,
    is_banal,
    is_considerate,
    multiplicative_order,
)
from wdsmooth.certificates import epsilon_certificate
from wdsmooth.cli import main as cli_main
from wdsmooth.orbits import (
    OrbitLabel,
    WeightedDynkinDiagram,
    check_distinguished_criterion,
    classical_orbits,
    distinguished_table,
    exposed_root_sweep,
    grading_dims,
    is_distinguished,
    weighted_dynkin,
)
from wdsmooth.rootsys import DynkinType, build_root_system, levi_factors, parse_group
from wdsmooth.variety import (
    GroupSpec,
    bundle_count_check,
    enumerate_sg,
    exp_bridge_check,
    nilpotency_redundancy_check,
    sg_member,
    stratum_sample,
    tangent_dim,
)


def ok(num, name):
    print("criterion %02d %s: PASS" % (num, name))


def classical_systems(rank_max):
    out = []
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
        for rank in range(lo, rank_max + 1):
            out.append(build_root_system(DynkinType(family, rank)))
    return out


def test_criterion_01_table_fidelity():
    # computed diagrams for the distinguished D-orbits and the F4 Levi
    # factors match Carter's rows exactly, and the stored exceptional
    # tables satisfy the structural invariants of distinguished diagrams
    total_d_rows = 0
    for rank, rows in sorted(D_ROWS.items()):
        rs = build_root_system(DynkinType("D", rank))
        for parts, labels in rows.items():
            computed = weighted_dynkin(rs, OrbitLabel.partition(parts))
            assert computed.labels == labels, (rank, parts)
            total_d_rows += 1
        table = distinguished_table(DynkinType("D", rank))
        assert {o.parts: diag.labels for o, diag in table} == rows, rank
    assert total_d_rows == 10  # 2 + 2 + 3 + 3 rows across the four ranks

    for tname, nrows in (("E6", 3), ("E7", 6)):
        t = parse_group(tname)
        rs = build_root_system(t)
        rows = distinguished_table(t)
        assert len(rows) == nrows
        for orbit, diag in rows:
            assert set(diag.labels) <= {0, 2}, str(orbit)
            gd = grading_dims(rs, diag)
            assert gd.get(1, 0) == 0, str(orbit)

    assert len(F4_LEVI_ROWS) == 4
    for label, tname, parts, labels in F4_LEVI_ROWS:
        t = parse_group(tname)
        computed = {o.parts: diag.labels for o, diag in distinguished_table(t)}
        assert computed[parts] == labels, label
        assert set(labels) <= {0, 2}, label
        gd = grading_dims(build_root_system(t), WeightedDynkinDiagram(labels))
        assert gd.get(1, 0) == 0, label
    ok(1, "table fidelity")


def test_criterion_02_distinguished_counts():
    for rank, want in ((4, 2), (5, 2), (6, 3), (7, 3)):
        rs = build_root_system(DynkinType("D", rank))
        dist = [o for o in classical_orbits(rs) if is_distinguished(rs, o)]
        assert len(dist) == want, rank
        assert len(distinguished_table(DynkinType("D", rank))) == len(D_ROWS[rank]) == want
    assert len(distinguished_table(parse_group("E6"))) == 3
    assert len(distinguished_table(parse_group("E7"))) == 6
    ok(2, "distinguished counts")


def test_criterion_03_exposed_roots_carry_label_two():
    violations = exposed_root_sweep(classical_systems(7))
    assert violations == []
    ok(3, "exposed root sweep")


def test_criterion_04_criterion_equivalence():
    mismatches = []
    checked = 0
    for rs in classical_systems(7):
        full = levi_factors(rs, set(range(rs.rank)))
        for o in classical_orbits(rs):
            w = weighted_dynkin(rs, o)
            dim_rule = check_distinguished_criterion(full, dict(enumerate(w.labels)))
            parity_rule = is_distinguished(rs, o)
            checked += 1
            if dim_rule != parity_rule:
                mismatches.append((rs.dynkin_type.name, str(o)))
    assert checked > 200
    assert mismatches == []
    ok(4, "distinguished criterion equivalence")


def test_criterion_05_order_formulas():
    def brute_order(p, det_one):
        count = 0
        for a, b, c, d in itertools.product(range(p), repeat=4):
            det = (a * d - b * c) % p
            if det == 1 if det_one else det != 0:
                count += 1
        return count

    gl2 = build_root_system(parse_group("GL2"))
    sl2 = build_root_system(parse_group("SL2"))
    for p, want in ((5, 480), (2, 6), (3, 48)):
        assert chevalley_steinberg_order(gl2, p) == want
        assert brute_order(p, det_one=False) == want
    assert chevalley_steinberg_order(sl2, 3) == 24
    assert brute_order(3, det_one=True) == 24

    sp6 = build_root_system(parse_group("Sp6"))
    for q in (2, 3):
        assert chevalley_steinberg_order(sp6, q) == \
            q**9 * (q**2 - 1) * (q**4 - 1) * (q**6 - 1)
    ok(5, "order formulas")


def test_criterion_06_banal_and_considerate():
    sp6 = build_root_system(parse_group("Sp6"))
    so7 = build_root_system(parse_group("SO7"))
    assert is_banal(11, sp6, 3)
    assert so7.coxeter_number == 6
    assert multiplicative_order(3, 11) == 5
    assert not is_considerate(QContext(q=3, l=11), so7.coxeter_number)

    report = implication_sweep("ABC", rank_max=3, l_max=50, q_max=20)
    assert report.violations == []
    assert report.type_a_violations == []
    assert report.checked > 1000
    ok(6, "considerate implies banal")


def test_criterion_07_nilpotency_redundancy():
    gl2 = GroupSpec.gl(2)
    rep = nilpotency_redundancy_check(gl2, 7, 4)
    assert rep.pairs_checked == 2016
    assert rep.non_nilpotent_count == 0

    rep6 = nilpotency_redundancy_check(gl2, 7, 6)
    assert rep6.non_nilpotent_count > 0
    # the named witness: phi = diag(1, -1), N = E12 + E21 solves the
    # conjugation equation at q = 6 although N squares to the identity
    phi = np.diag(np.array([1, 6], dtype=np.int64))
    n = np.array([[0, 1], [1, 0]], dtype=np.int64)
    assert np.array_equal(phi @ n % 7, 6 * (n @ phi) % 7)
    assert np.array_equal(n @ n % 7, np.eye(2, dtype=np.int64))
    assert not sg_member(gl2, phi, n, 6, 7)  # hence outside the variety
    ok(7, "nilpotency redundancy")


def test_criterion_08_open_stratum_smoothness():
    gl2 = GroupSpec.gl(2)
    pts = enumerate_sg(gl2, 7, 4)
    nonzero = [pt for pt in pts if pt[1].any()]
    assert len(nonzero) == 2016
    assert all(tangent_dim(gl2, phi, n_mat, 4, 7) == 4 for phi, n_mat in nonzero)

    gl3 = GroupSpec.gl(3)
    samples = stratum_sample(gl3, 11, 4, OrbitLabel.partition((3,)), 50, seed=0)
    assert len(samples) >= 50
    assert all(tangent_dim(gl3, phi, n_mat, 4, 11) == 9 for phi, n_mat in samples)
    ok(8, "open stratum smoothness")


def test_criterion_09_bundle_fibers():
    rep = bundle_count_check(GroupSpec.gl(2), 7, 4)
    assert rep.expected_fiber == 7
    assert rep.base_points == 336
    assert rep.ok  # every fiber has exactly 7 points

    rep3 = bundle_count_check(GroupSpec.gl(3), 11, 3, samples=20, seed=0)
    assert rep3.expected_fiber == 121
    assert rep3.base_points >= 20
    assert rep3.ok
    ok(9, "bundle fiber counts")


def test_criterion_10_singularity_certificates():
    c_gl3 = epsilon_certificate(GroupSpec.gl(3), OrbitLabel.partition((2, 1)),
                                4, 11)  # q = s^2 with s = 2
    assert c_gl3.failed_checks == ()
    assert c_gl3.verified_tangency
    assert (c_gl3.lower_bound, c_gl3.component_dim) == (10, 9)
    assert (c_gl3.eps0, c_gl3.eps1, c_gl3.eps2, c_gl3.eps3) == (2, 1, 1, 1)
    assert c_gl3.certifies_singular

    c_gsp = epsilon_certificate(GroupSpec.gsp4(), OrbitLabel.partition((2, 2)),
                                3, 11)
    assert c_gsp.failed_checks == ()
    assert (c_gsp.lower_bound, c_gsp.component_dim) == (12, 11)
    # contribution beyond the conjugation orbit: torus directions,
    # lowering direction and nilpotent-side directions
    assert c_gsp.lower_bound - c_gsp.orbit_dim == 6
    assert c_gsp.torus_span_dim + 1 + c_gsp.n_span_dim == 6
    assert c_gsp.lower_bound >= 11 + 1  # tangent dim >= dim GSp4 + 1
    assert c_gsp.certifies_singular

    c_gl4 = epsilon_certificate(GroupSpec.gl(4), OrbitLabel.partition((2, 1, 1)),
                                4, 11)
    assert c_gl4.failed_checks == ()
    assert c_gl4.verified_tangency
    assert c_gl4.certifies_singular
    assert (c_gl4.lower_bound, c_gl4.component_dim) == (17, 16)
    ok(10, "singularity certificates")


def test_criterion_11_exp_bridge():
    pts = enumerate_sg(GroupSpec.gl(2), 7, 4)
    passed = sum(1 for phi, n_mat in pts if exp_bridge_check(phi, n_mat, 4, 7))
    assert passed == len(pts) == 4032
    ok(11, "exponential bridge")


def test_criterion_12_deterministic_reports(capsys):
    commands = [
        ["verify", "tangent", "--group", "GL3", "--orbit", "3",
         "--p", "11", "--q", "4", "--samples", "10", "--seed", "5"],
        ["verify", "bundle", "--group", "GL3", "--p", "11", "--q", "3",
         "--samples", "6", "--seed", "2"],
        ["certify", "--group", "GSp4", "--orbit", "2,2", "--p", "11", "--q", "3"],
    ]
    for argv in commands:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)  # well-formed JSON
    ok(12, "deterministic reports")
