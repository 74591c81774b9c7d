"""Tangent lower-bound certificates at degenerate base points."""

import json
import re

import numpy as np
import pytest

from wdsmooth.arith import QContext
from wdsmooth.certificates import (
    CertificateError,
    build_phi0,
    epsilon_certificate,
)
from wdsmooth.classifier import SINGULAR, SMOOTH, classify_component
from wdsmooth.orbits import OrbitLabel, classical_orbits
from wdsmooth.rootsys import build_root_system, parse_group
from wdsmooth.variety import GroupSpec, tangent_dim, stratum_sample

GL3 = GroupSpec.gl(3)
GL4 = GroupSpec.gl(4)
GSP4 = GroupSpec.gsp4()


def part(*parts):
    return OrbitLabel.partition(parts)


# -------------------------------------------------------------- base points

def test_phi0_regular_gl3():
    bp = build_phi0(GL3, part(3), 4, 11)
    assert [int(x) for x in np.diag(bp.phi0)] == [5, 4, 1]  # 4^2, 4, 1 mod 11
    assert bp.marked is None and bp.reflection is None
    # Ad(phi0) e = q e on the orbit representative
    lhs = bp.phi0 @ bp.e_mat % 11
    rhs = 4 * (bp.e_mat @ bp.phi0 % 11) % 11
    assert np.array_equal(lhs, rhs)


def test_phi0_marked_boundary_gl3():
    bp = build_phi0(GL3, part(2, 1), 4, 11)
    assert bp.marked == 2
    assert [int(x) for x in np.diag(bp.phi0)] == [4, 1, 1]  # ratio 1 at the mark
    sw = bp.reflection
    assert np.array_equal((sw @ bp.phi0 % 11) @ sw % 11, bp.phi0)


def test_phi0_alternate_mark():
    bp = build_phi0(GL4, part(2, 1, 1), 4, 11, marked=3)
    assert bp.marked == 3
    d = [int(x) for x in np.diag(bp.phi0)]
    assert d[2] == d[3]  # the marked boundary carries ratio 1


def test_phi0_gsp4_rows():
    bp = build_phi0(GSP4, part(2, 2), 3, 11)
    assert [int(x) for x in np.diag(bp.phi0)] == [3, 1, 1, 4]  # 4 = 3^{-1} mod 11
    reg = build_phi0(GSP4, part(4), 3, 11)
    assert [int(x) for x in np.diag(reg.phi0)] == [5, 9, 3, 1]


def sparse(n, *mats):
    """A (len(mats), n, n) stack, each matrix given by its nonzero (i, j, v)."""
    out = np.zeros((len(mats), n, n), dtype=np.int64)
    for k, entries in enumerate(mats):
        for i, j, v in entries:
            out[k, i, j] = v
    return out


def units(n, *pairs):
    """The matrix units E_ij of gl_n, one per (i, j)."""
    return sparse(n, *[[(i, j, 1)] for i, j in pairs])


def diag(*entries):
    return np.diag(np.array(entries, dtype=np.int64))


def mat(rows):
    return np.array(rows, dtype=np.int64)


#: short-root Levi of the GSp4 (2, 2) orbit: the Cartan, x_beta and y_beta
GSP4_SHORT_LEVI = (
    [(0, 0, 1), (3, 3, -1)], [(1, 1, 1), (2, 2, -1)], [(2, 2, 1), (3, 3, 1)],
    [(0, 1, 1), (2, 3, -1)], [(1, 0, 1), (3, 2, -1)],
)
#: the other GSp4 basis vectors, in basis order: x_alpha, x_{beta+alpha},
#: x_{2beta+alpha}, y_alpha, y_{beta+alpha}, y_{2beta+alpha}
GSP4_OTHER = (
    [(1, 2, 1)], [(0, 2, 1), (1, 3, 1)], [(0, 3, 1)],
    [(2, 1, 1)], [(2, 0, 1), (3, 1, 1)], [(3, 0, 1)],
)
GL_LEVI_211 = units(4, (0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3))
SWAP_12 = mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
SPECS = {"GL3": GL3, "GL4": GL4, "GSp4": GSP4}

#: (group, parts, q, marked) -> (marked, phi0, e_mat, grading, levi_basis,
#: reflection) at p = 11
BASE_POINTS = {
    ("GL3", (2, 1), 4, None): (
        2, diag(4, 1, 1), mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), diag(1, -1, 0),
        units(3, (0, 0), (0, 1), (1, 0), (1, 1), (2, 2)),
        mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])),
    ("GL4", (2, 2), 4, None): (
        2, diag(5, 4, 4, 1), mat([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]),
        diag(1, -1, 1, -1),
        units(4, (0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)),
        SWAP_12),
    ("GL4", (2, 1, 1), 4, 2): (
        2, diag(5, 4, 4, 1), units(4, (0, 1))[0], diag(1, -1, 0, 0), GL_LEVI_211, SWAP_12),
    ("GL4", (2, 1, 1), 4, 3): (
        3, diag(5, 4, 1, 1), units(4, (0, 1))[0], diag(1, -1, 0, 0), GL_LEVI_211,
        mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])),
    ("GSp4", (4,), 3, None): (
        None, diag(5, 9, 3, 1), mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 10], [0, 0, 0, 0]]),
        diag(3, 1, -1, -3),
        sparse(4, *GSP4_SHORT_LEVI[:4], *GSP4_OTHER[:3], GSP4_SHORT_LEVI[4], *GSP4_OTHER[3:]),
        None),
    ("GSp4", (2, 2), 3, None): (
        2, diag(3, 1, 1, 4), mat([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 10], [0, 0, 0, 0]]),
        diag(1, -1, 1, -1), sparse(4, *GSP4_SHORT_LEVI),
        mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]])),
}


@pytest.mark.parametrize("case", BASE_POINTS, ids=lambda c: "%s-%s-m%s" % (
    c[0], ",".join(map(str, c[1])), c[3]))
def test_base_point_arrays_are_pinned(case):
    group, parts, q, marked = case
    want_marked, *arrays = BASE_POINTS[case]
    bp = build_phi0(SPECS[group], part(*parts), q, 11, marked=marked)
    assert bp.marked == want_marked
    got = (bp.phi0, bp.e_mat, bp.grading, bp.levi_basis, bp.reflection)
    for name, g, w in zip(("phi0", "e_mat", "grading", "levi_basis", "reflection"), got, arrays):
        if w is None:
            assert g is None, name
        else:
            assert g.dtype == np.int64 and np.array_equal(g, w), name


def test_phi0_gsp4_honours_marks():
    assert build_phi0(GSP4, part(2, 2), 3, 11, marked=2).marked == 2
    for bad in (1, 3):
        with pytest.raises(CertificateError,
                           match="marked position %d is not a block boundary \\[2\\]" % bad):
            build_phi0(GSP4, part(2, 2), 3, 11, marked=bad)
        with pytest.raises(CertificateError, match="not a block boundary"):
            epsilon_certificate(GSP4, part(2, 2), 3, 11, marked=bad)
    for mark in (1, 2, 3):
        with pytest.raises(CertificateError, match="a single-block orbit has no boundary to mark"):
            build_phi0(GSP4, part(4), 3, 11, marked=mark)


def test_phi0_rejects_small_order():
    # ord(3 mod 13) = 3 but GL3 needs order > 3
    with pytest.raises(CertificateError, match="order of q mod p"):
        build_phi0(GL3, part(2, 1), 3, 13)


@pytest.mark.parametrize("spec", [GroupSpec.gl(2), GL3, GL4, GSP4], ids=lambda s: s.name)
def test_phi0_order_gate_names_the_coxeter_number(spec):
    # q = 1 has order 1, below every bound
    with pytest.raises(CertificateError, match="order of q mod p") as exc:
        build_phi0(spec, part(spec.n), 1, 13)
    bound = int(re.search(r"must exceed (\d+)", str(exc.value)).group(1))
    assert bound == build_root_system(parse_group(spec.name)).coxeter_number


def test_phi0_rejects_bad_marks():
    with pytest.raises(CertificateError, match="no boundary to mark"):
        build_phi0(GL3, part(3), 4, 11, marked=1)
    with pytest.raises(CertificateError, match="marked"):
        build_phi0(GL4, part(2, 1, 1), 4, 11, marked=1)
    with pytest.raises(CertificateError, match="partition"):
        build_phi0(GL3, OrbitLabel.named("0"), 4, 11)
    with pytest.raises(CertificateError, match="GSp4 orbit"):
        build_phi0(GSP4, part(2, 1, 1), 3, 11)


# -------------------------------------------------------------- certificates

def test_certificate_gl3_subregular():
    cert = epsilon_certificate(GL3, part(2, 1), 4, 11)
    assert cert.failed_checks == ()
    assert cert.verified_tangency
    assert cert.certifies_singular
    d = cert.as_dict()
    assert d["phi0_diagonal"] == [4, 1, 1]
    assert d["stab_dim"] == 5
    assert d["levi_zero_dim"] == 3
    assert d["levi_two_dim"] == 1
    assert d["center_dim"] == 2
    assert d["orbit_dim"] == 4
    assert d["torus_span_dim"] == 3
    assert d["n_span_dim"] == 2
    assert d["eps"] == [2, 1, 1, 1]
    assert d["phi_span_dim"] == 8
    assert d["lower_bound"] == 10
    assert d["component_dim"] == 9
    assert d["ambient_tangent_dim"] == 11
    json.dumps(d)  # report-ready


def test_certificate_gl4():
    cert = epsilon_certificate(GL4, part(2, 1, 1), 4, 11)
    assert cert.certifies_singular
    assert (cert.phi_span_dim, cert.n_span_dim) == (15, 2)
    assert (cert.lower_bound, cert.component_dim) == (17, 16)
    assert [int(x) for x in np.diag(cert.phi0)] == [5, 4, 4, 1]
    assert cert.ambient_tangent_dim == 20
    two_two = epsilon_certificate(GL4, part(2, 2), 4, 11)
    assert two_two.certifies_singular
    assert (two_two.eps0, two_two.eps1, two_two.eps2, two_two.eps3) == (2, 1, 2, 1)
    assert two_two.lower_bound == 18
    three_one = epsilon_certificate(GL4, part(3, 1), 4, 11)
    assert three_one.certifies_singular
    assert (three_one.lower_bound, three_one.ambient_tangent_dim) == (17, 19)


def test_certificate_gsp4():
    cert = epsilon_certificate(GSP4, part(2, 2), 3, 11)
    assert cert.failed_checks == ()
    assert cert.certifies_singular
    assert cert.component_dim == 11
    assert cert.lower_bound == 12
    assert (cert.orbit_dim, cert.torus_span_dim, cert.n_span_dim) == (6, 3, 2)
    assert cert.phi_span_dim == 10
    assert (cert.eps0, cert.eps1, cert.eps2, cert.eps3) == (2, 1, 1, 1)
    assert cert.ambient_tangent_dim == 13
    # the nilpotent-side contribution beyond the conjugation orbit is 6
    assert cert.lower_bound - cert.orbit_dim == 6


def test_certificate_bookkeeping_identity():
    for spec, orbit, q in ((GL3, part(2, 1), 4), (GL4, part(2, 2), 4),
                           (GSP4, part(2, 2), 3)):
        c = epsilon_certificate(spec, orbit, q, 11)
        assert c.lower_bound == spec.dim_g + c.eps1 + c.eps2 + c.eps3 - c.eps0
        assert c.eps0 == c.stab_dim - c.levi_zero_dim
        assert c.lower_bound <= c.ambient_tangent_dim


def test_certificate_matches_ambient_tangent_report():
    cert = epsilon_certificate(GL3, part(2, 1), 4, 11)
    zero = np.zeros((3, 3), dtype=np.int64)
    assert tangent_dim(GL3, cert.phi0, zero, 4, 11) == cert.ambient_tangent_dim


def test_certificate_stable_across_primes():
    # the combinatorial content does not depend on the prime realization
    for p, q in ((11, 4), (23, 2), (29, 3)):
        c = epsilon_certificate(GL3, part(2, 1), q, p)
        assert c.certifies_singular
        assert (c.lower_bound, c.component_dim) == (10, 9)
        assert (c.eps0, c.eps1, c.eps2, c.eps3) == (2, 1, 1, 1)


def test_certificate_exact_near_the_int64_bound():
    # every product chain is reduced, so a prime whose squares reach 2^58
    # gives the same counts as a small one, without scanning the order of q
    def counts(c):
        return (c.lower_bound, c.component_dim, c.ambient_tangent_dim,
                (c.eps0, c.eps1, c.eps2, c.eps3), c.failed_checks)

    for spec, orbit, q in ((GL4, part(2, 1, 1), 4), (GSP4, part(2, 2), 3)):
        big = epsilon_certificate(spec, orbit, q, 536_870_909)
        assert big.certifies_singular
        assert counts(big) == counts(epsilon_certificate(spec, orbit, q, 11))


def test_phi0_rejects_composite_modulus():
    with pytest.raises(CertificateError, match="p must be prime"):
        build_phi0(GL3, part(2, 1), 4, 9)
    with pytest.raises(CertificateError, match="p must be prime"):
        build_phi0(GSP4, part(2, 2), 3, 9)


def test_phi0_rejects_a_non_unit_q():
    for spec, orbit in ((GL3, part(2, 1)), (GSP4, part(2, 2))):
        with pytest.raises(CertificateError, match="q must be a unit mod p"):
            build_phi0(spec, orbit, 22, 11)


@pytest.mark.parametrize("p", [759_250_133, 2**31 - 1])  # primes past P_MAX
def test_certificate_rejects_p_past_the_int64_bound(p):
    with pytest.raises(CertificateError, match="p exceeds the int64-safe bound 759250125"):
        epsilon_certificate(GL3, part(2, 1), 4, p)


def test_certificate_rejects_p_of_another_type():
    epsilon_certificate(GL3, part(2, 1), 4, 11)
    for p in (11.0, 11.5, np.int64(11)):
        with pytest.raises(CertificateError, match="^p must be an int, got "):
            epsilon_certificate(GL3, part(2, 1), 4, p)


def test_certificate_rejects_q_of_another_type():
    # 4.0 failed in pow() with a TypeError, deep inside the base point
    for q in (4.0, 4.5, np.int64(4)):
        for build in (build_phi0, epsilon_certificate):
            with pytest.raises(CertificateError, match="^q must be an int, got "):
                build(GL3, part(2, 1), q, 11)


def test_certificate_mark_placement_matters():
    # marking the boundary between the two singleton blocks still yields
    # a fully verified certificate, but the bound is too weak to conclude
    c = epsilon_certificate(GL4, part(2, 1, 1), 4, 11, marked=3)
    assert c.verified_tangency and c.failed_checks == ()
    assert c.lower_bound == 15
    assert not c.certifies_singular
    # the default mark at the 2|1 boundary is the effective one
    assert epsilon_certificate(GL4, part(2, 1, 1), 4, 11).lower_bound == 17


def test_certificate_rejects_distinguished():
    with pytest.raises(CertificateError, match="distinguished"):
        epsilon_certificate(GL3, part(3), 4, 11)
    with pytest.raises(CertificateError, match="distinguished"):
        epsilon_certificate(GSP4, part(4), 3, 11)


# ------------------------------------------------- classifier <-> matrices

AGREEMENT_FIELDS = ((7, 2), (7, 3), (11, 3), (11, 4), (13, 2), (13, 4), (13, 5))


@pytest.mark.parametrize("p, q", AGREEMENT_FIELDS)
@pytest.mark.parametrize("name", ["GL2", "GL3", "GL4", "GSp4"])
def test_classifier_agrees_with_matrix_half(name, p, q):
    # Smooth: some sampled point has tangent dimension dim g. Singular: the
    # default-mark certificate certifies it wherever a base point exists.
    # NotCovered makes no claim to check.
    spec = GroupSpec.gsp4() if name == "GSp4" else GroupSpec.gl(int(name[2:]))
    rs = build_root_system(parse_group(name))
    for orbit in classical_orbits(rs):
        status = classify_component(rs, orbit, QContext(q=q, l=p)).status
        if status == SMOOTH:
            dims = [tangent_dim(spec, phi, n_mat, q, p)
                    for phi, n_mat in stratum_sample(spec, p, q, orbit, 5, seed=0)]
            assert dims and min(dims) == spec.dim_g, (orbit, dims)
        elif status == SINGULAR:
            try:
                build_phi0(spec, orbit, q, p)
            except CertificateError:
                continue
            cert = epsilon_certificate(spec, orbit, q, p)
            assert cert.certifies_singular, (orbit, cert.failed_checks)
