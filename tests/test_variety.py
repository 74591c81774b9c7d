"""Exact matrix models: membership, tangents, enumeration, bundle counts."""

import functools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wdsmooth.kernels import (
    as_field,
    batch_nullity_mod,
    inv_mod,
    matpow_mod,
    nullity_mod,
    nullspace_mod,
    rank_mod,
    rref_mod,
)
from wdsmooth.arith import is_prime, multiplicative_order
from wdsmooth.orbits import OrbitLabel, classical_orbits
from wdsmooth.rootsys import build_root_system, parse_group
from wdsmooth.variety import (
    OMEGA4,
    GroupSpec,
    bundle_count_check,
    enumerate_sg,
    exp_bridge_check,
    exp_nilpotent,
    jordan_partition,
    log_unipotent,
    nilpotency_redundancy_check,
    sg_member,
    stratum_sample,
    tangent_dim,
    tangent_matrix,
)
from wdsmooth import kernels, variety
from wdsmooth.variety import (
    _all_invertible_2x2,
    _draw_blocks,
    _gsp4_base_point,
    _is_nilpotent,
    _jordan_nilpotent,
    _jordan_system,
    _random_gl,
    _random_gsp4_stack,
    _similitude_inverse,
    _sylvester,
)

GL2 = GroupSpec.gl(2)
GL3 = GroupSpec.gl(3)
GSP4 = GroupSpec.gsp4()

#: a prime below kernels.P_MAX whose squares reach 2^58
P_LARGE = 536_870_909


def arr(rows):
    return np.array(rows, dtype=np.int64)


def conjugate_point(pt, g, p):
    """g M g^{-1} for each (n, n) matrix M of pt, a (..., n, n) array. On a
    (2, n, n) point (phi, N) this is simultaneous conjugation, under which
    the variety is stable."""
    g = as_field(g, p)
    return (g @ as_field(pt, p) % p) @ inv_mod(g, p) % p


# ---------------------------------------------------------------- specs

def test_group_specs_compare_by_identity():
    assert GroupSpec.gl(3) == GroupSpec.gl(3)
    assert GroupSpec.gl(2) != GroupSpec.gl(3)
    assert GroupSpec.gl(4) != GSP4  # same n, different form and basis
    assert GroupSpec.gl(3) != "GL3"
    by_spec = {GroupSpec.gl(n): n for n in range(1, 5)} | {GSP4: "GSp4"}
    assert len(by_spec) == 5
    assert by_spec[GroupSpec.gl(3)] == 3 and by_spec[GroupSpec.gsp4()] == "GSp4"
    # a spec built by hand is a spec of its own, however alike its fields
    copy = GroupSpec(GL2.name, GL2.lie_basis, GL2.form)
    assert copy != GL2 and copy == copy and copy not in {GL2}


def test_group_specs_carry_their_name_and_form():
    assert [GroupSpec.gl(n).name for n in range(1, 5)] == ["GL1", "GL2", "GL3", "GL4"]
    assert all(GroupSpec.gl(n).form is None for n in range(1, 5))
    assert GSP4.name == "GSp4" and np.array_equal(GSP4.form, OMEGA4)
    assert np.array_equal(GroupSpec.gl(3).lie_basis.reshape(9, 9), np.eye(9, dtype=np.int64))


def test_group_spec_keeps_its_own_read_only_basis():
    # the spec copies the arrays it is given: a later write to the caller's
    # basis or form changes neither the spec's arrays nor its memberships
    basis, form = GSP4.lie_basis.copy(), OMEGA4.copy()
    spec = GroupSpec("GSp4", basis, form)
    basis[0, 0, 0] = 7
    basis[1] += 1
    form[0, 3] = 2
    assert np.array_equal(spec.lie_basis, GSP4.lie_basis)
    assert np.array_equal(spec.form, OMEGA4)
    t = np.diag(arr([3, 3, 1, 1]))
    assert spec.is_group_element(t, 7) == GSP4.is_group_element(t, 7) is True
    for a in (spec.lie_basis, spec.form):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, ...] = 7


def test_group_specs_are_built_once_with_a_read_only_basis():
    assert GroupSpec.gl(2) is GL2 and GroupSpec.gsp4() is GSP4
    for spec in (GL2, GroupSpec.gl(4), GSP4):
        with pytest.raises(ValueError, match="read-only"):
            spec.lie_basis[0, 0, 0] = 7
        with pytest.raises(ValueError, match="read-only"):
            spec.lie_basis[1] += 1
    with pytest.raises(ValueError, match="n <= 4"):
        GroupSpec.gl(5)


# GL1 is a realized group too, but a torus: there is no A0 root system to
# compare it with, and parse_group("GL1") is an error
@pytest.mark.parametrize("spec", [GL2, GL3, GroupSpec.gl(4), GSP4], ids=lambda s: s.name)
def test_group_specs_agree_with_their_root_systems(spec):
    # build_phi0 takes the Coxeter number h to be spec.n
    rs = build_root_system(parse_group(spec.name))
    assert spec.dim_g == rs.dim_g
    assert spec.n == rs.coxeter_number


# ---------------------------------------------------------------- membership

def test_gl_membership():
    assert GL2.is_group_element(arr([[1, 2], [3, 4]]), 7)
    assert not GL2.is_group_element(arr([[1, 2], [2, 4]]), 7)  # singular
    assert GL2.in_lie_algebra(arr([[0, 1], [0, 0]]), 7)


def test_gsp4_membership():
    # torus element with similitude factor 3
    t = np.diag(arr([3, 3, 1, 1]))
    assert GSP4.is_group_element(t, 7)
    assert not GSP4.is_group_element(np.diag(arr([1, 2, 3, 4])), 7)
    # lie algebra: X^T Omega + Omega X proportional to Omega
    for b in GSP4.lie_basis:
        assert GSP4.in_lie_algebra(b, 11)
    assert not GSP4.in_lie_algebra(arr([[0] * 4, [1, 0, 0, 0], [0] * 4, [0] * 4]), 11)


def test_gsp4_basis_is_a_lie_algebra():
    # closed under bracket and of the right rank
    p = 101
    flat = GSP4.lie_basis.reshape(11, 16) % p
    assert rank_mod(flat, p) == 11
    for i in range(11):
        for j in range(11):
            x, y = GSP4.lie_basis[i], GSP4.lie_basis[j]
            br = (x @ y - y @ x) % p
            stacked = np.vstack([flat, br.reshape(1, 16)])
            assert rank_mod(stacked, p) == 11


def test_sg_member():
    phi = np.diag(arr([4, 1]))
    n = arr([[0, 1], [0, 0]])
    assert sg_member(GL2, phi, n, 4, 7)
    assert not sg_member(GL2, np.diag(arr([1, 4])), n, 4, 7)  # wrong orientation
    assert not sg_member(GL2, phi, arr([[0, 0], [1, 0]]), 4, 7)
    assert sg_member(GL2, np.diag(arr([5, 2])), n * 0, 4, 7)  # N = 0, any phi
    # non-nilpotent N rejected even when the linear equation holds
    assert not sg_member(GL2, np.diag(arr([1, 6])), arr([[0, 1], [1, 0]]), 6, 7)


def membership_cases(spec, q, p):
    """(phi, N, expected) triples over one group and one q: sampled points,
    and pairs that fail exactly one condition where q allows it."""
    n = spec.n
    parts_list = ([(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)] if spec.form is not None
                  else [pt for pt in PARTITIONS if sum(pt) == n])
    cases = []
    for parts in parts_list:
        for phi, n_mat in stratum_sample(spec, p, q, OrbitLabel.partition(parts), 2, seed=0):
            cases.append((phi, n_mat, True))
            if n_mat.any():
                # phi^-1 N = q^-1 N phi^-1: the wrong orientation unless q^2 = 1
                cases.append((inv_mod(phi, p), n_mat, q * q % p == 1))
    zero = np.zeros((n, n), dtype=np.int64)
    singular = np.eye(n, dtype=np.int64)
    singular[-1, -1] = 0
    cases.append((singular, zero, False))
    # N^2 = 1 anticommutes with phi: solves the equation for q = -1 only
    if spec.form is not None:
        phi = np.diag(arr([1, -1, -1, 1]))
        non_nilpotent = (spec.lie_basis[3] + spec.lie_basis[7]) % p
        cases.append((np.diag(arr([1, 2, 3, 4])), zero, False))  # not a similitude
        # E_10 is not in gsp4; diag(1, q, 1, q) is a similitude with phi N = q N phi
        outside = arr([[0] * 4, [1, 0, 0, 0], [0] * 4, [0] * 4])
        cases.append((np.diag(arr([1, q, 1, q])), outside, False))
    else:
        phi = np.eye(n, dtype=np.int64)
        phi[1, 1] = -1
        non_nilpotent = zero.copy()
        non_nilpotent[0, 1] = non_nilpotent[1, 0] = 1
    assert np.array_equal(phi @ non_nilpotent % p, -non_nilpotent @ phi % p)
    cases.append((phi, non_nilpotent, False))
    return cases


@pytest.mark.parametrize("spec", [GL2, GL3, GroupSpec.gl(4), GSP4], ids=lambda s: s.name)
@pytest.mark.parametrize("q", [3, 4, 10])
def test_sg_member_on_stacks(spec, q):
    p = 11
    cases = membership_cases(spec, q, p)
    phis = np.stack([c[0] for c in cases])
    n_mats = np.stack([c[1] for c in cases])
    single = [sg_member(spec, phi, n_mat, q, p) for phi, n_mat, _ in cases]
    assert all(type(s) is bool for s in single)
    assert single == [c[2] for c in cases]
    assert any(single) and not all(single)
    stacked = sg_member(spec, phis, n_mats, q, p)
    assert stacked.dtype == bool and stacked.tolist() == single
    # the group and Lie algebra tests on stacks agree with their single calls
    assert spec.is_group_element(phis, p).tolist() == [
        spec.is_group_element(phi, p) for phi in phis]
    assert spec.in_lie_algebra(n_mats, p).tolist() == [
        spec.in_lie_algebra(n_mat, p) for n_mat in n_mats]
    # a stack of the wrong matrix size, or of unequal shapes, has no members
    wrong = np.zeros((len(cases), spec.n + 1, spec.n + 1), dtype=np.int64)
    assert sg_member(spec, wrong, wrong, q, p).tolist() == [False] * len(cases)
    assert sg_member(spec, phis, n_mats[:-1], q, p).tolist() == [False] * len(cases)
    assert spec.is_group_element(wrong, p).tolist() == [False] * len(cases)
    assert sg_member(spec, wrong[0], wrong[0], q, p) is False
    assert sg_member(spec, phis[0], n_mats, q, p) is False
    assert spec.in_lie_algebra(wrong[0], p) is False
    assert sg_member(spec, phis[:0], n_mats[:0], q, p).shape == (0,)


@pytest.mark.parametrize("spec, p, make", [
    (GL2, 5, lambda: enumerate_sg(GL2, 5, 2)),
    (GL3, 11, lambda: stratum_sample(GL3, 11, 4, OrbitLabel.partition((2, 1)), 4)),
    (GSP4, 11, lambda: stratum_sample(GSP4, 11, 3, OrbitLabel.partition((2, 2)), 4)),
], ids=["enumerate_sg", "stratum_sample-GL3", "stratum_sample-GSp4"])
def test_point_sets_are_reduced_int64_arrays(spec, p, make):
    pts = make()
    assert pts.dtype == np.int64
    assert pts.ndim == 4 and len(pts) > 0 and pts.shape[1:] == (2, spec.n, spec.n)
    assert ((pts >= 0) & (pts < p)).all()


def adjoints(phis, p):
    """The (B, n^2, n^2) stack of Ad(phi) on gl_n in row-major vec
    coordinates, one inversion per phi: column k is vec(phi E_k phi^-1)
    for the k-th matrix unit E_k."""
    n = phis.shape[-1]
    units = np.eye(n * n, dtype=np.int64).reshape(-1, n, n)
    return np.stack([((phi @ units % p) @ inv_mod(phi, p) % p).reshape(n * n, n * n).T
                     for phi in phis])


def minus_q(ads, q, p):
    return (ads - q * np.eye(ads.shape[-1], dtype=np.int64)) % p


@functools.cache
def gl2_adjoints(p):
    """Every phi of GL(2, F_p) in lexicographic order, and their Ad(phi)."""
    phis = _all_invertible_2x2(p)
    return phis, adjoints(phis, p)


def reference_gl(rng, n, p):
    """A uniform g in GL(n, F_p) and its inverse: one (n, n) generator
    call per try, kept once its rank is n."""
    while True:
        g = rng.integers(0, p, size=(n, n)).astype(np.int64)
        if rank_mod(g, p) == n:
            return g, inv_mod(g, p)


def reference_walk(p, q):
    """The GL2 walk one phi at a time, one ``nullspace_mod`` per phi with a
    nonzero kernel: yields (phi, nilpotent, other) for every phi in
    lexicographic order, the nonzero solutions N of Ad(phi) N = q N split
    into two (k, 2, 2) stacks by whether N is nilpotent, each in the order
    of the base-p coefficients 1 .. p^d - 1 (first coordinate fastest) on
    the canonical kernel basis."""
    phis, ads = gl2_adjoints(p)
    ad = minus_q(ads, q, p)
    empty = np.zeros((0, 2, 2), dtype=np.int64)
    for phi, system, d in zip(phis, ad, batch_nullity_mod(ad, p).tolist()):
        if d == 0:
            yield phi, empty, empty
            continue
        k = np.arange(1, p**d, dtype=np.int64)
        coeffs = k[:, None] // p ** np.arange(d, dtype=np.int64) % p
        sols = (coeffs @ nullspace_mod(system, p) % p).reshape(-1, 2, 2)
        nilpotent = _is_nilpotent(sols, p)
        yield phi, sols[nilpotent], sols[~nilpotent]


def reference_results(p, q):
    """What ``enumerate_sg`` and ``nilpotency_redundancy_check`` report, from
    the reference walk: the point array (per phi, N = 0 first, then its
    nilpotent solutions), the pairs checked, the non-nilpotent count and
    the first non-nilpotent (phi, N) of the walk, or None."""
    zero = np.zeros((1, 2, 2), dtype=np.int64)
    phis, ns = [], []
    checked = bad = 0
    witness = None
    for phi, nilpotent, other in reference_walk(p, q):
        phis.append(np.broadcast_to(phi, (1 + len(nilpotent), 2, 2)))
        ns += [zero, nilpotent]
        checked += len(nilpotent) + len(other)
        bad += len(other)
        if witness is None and len(other):
            witness = phi, other[0]
    pts = np.stack([np.concatenate(phis), np.concatenate(ns)], axis=1)
    return pts, checked, bad, witness


def by_key(pts, p):
    """pts sorted by one base-p key over all eight entries of a point."""
    return pts[np.argsort(pts.reshape(len(pts), 8) @ p ** np.arange(8))]


def test_enumeration_keeps_the_walk_order():
    # the documented stratum order: N = 0 with every phi in lexicographic
    # order, then the nonzero nilpotent N in lexicographic order, each with
    # its phis g [[q d, b], [0, d]] g^-1 in (d, b) order, g the first
    # invertible matrix in lexicographic order with g E12 g^-1 = N
    p, q = 5, 2
    phis = _all_invertible_2x2(p)
    e12 = arr([[0, 1], [0, 0]])
    first = {}
    for g in phis:
        first.setdefault(tuple((g @ e12 % p @ inv_mod(g, p) % p).flat), g)
    zero = np.zeros((2, 2), dtype=np.int64)
    want = [np.stack([phi, zero]) for phi in phis]
    for key in sorted(first):
        g, n_mat = first[key], arr(key).reshape(2, 2)
        want += [np.stack([g @ arr([[q * d % p, b], [0, d]]) % p @ inv_mod(g, p) % p, n_mat])
                 for d in range(1, p) for b in range(p)]
    assert len(first) == p * p - 1
    assert np.array_equal(enumerate_sg(GL2, p, q), np.stack(want))


@pytest.mark.parametrize("p, q", [(p, q) for p in (2, 3, 5, 7, 11, 13) for q in range(1, p)])
def test_gl2_walk_matches_the_per_phi_reference(p, q):
    # every unit q, so q = 1 and q = p - 1 (order <= 2, where non-nilpotent
    # solutions and a witness exist) are covered at every prime
    pts, checked, bad, witness = reference_results(p, q)
    got = enumerate_sg(GL2, p, q)
    assert np.array_equal(by_key(got, p), by_key(pts, p))
    rep = nilpotency_redundancy_check(GL2, p, q)
    assert (rep.pairs_checked, rep.non_nilpotent_count) == (checked, bad)
    # the scan counts the nilpotent pairs as |GL2(F_p)|, one conjugacy
    # class of p^2 - 1 nonzero nilpotent N with a fibre coset each
    nonzero = int(got[:, 1].any(axis=(1, 2)).sum())
    assert nonzero == rep.pairs_checked - rep.non_nilpotent_count == (p**2 - 1) * (p**2 - p)
    if witness is None:
        assert rep.witness_phi is None and rep.witness_n is None
    else:
        assert np.array_equal(rep.witness_phi, witness[0])
        assert np.array_equal(rep.witness_n, witness[1])


def test_sampler_with_no_solutions_returns_an_empty_point_array(monkeypatch,
                                                                fresh_jordan_systems):
    monkeypatch.setattr(variety.kernels, "nullspace_mod",
                        lambda a, p: np.zeros((0, a.shape[1]), dtype=np.int64))
    pts = stratum_sample(GL3, 7, 3, OrbitLabel.partition((2, 1)), 1)
    assert pts.dtype == np.int64 and pts.shape == (0, 2, 3, 3)


def test_jordan_system_is_solved_once_and_read_only(fresh_jordan_systems):
    for _ in range(3):
        stratum_sample(GroupSpec.gl(4), 11, 4, OrbitLabel.partition((2, 1, 1)), 2, seed=1)
    info = _jordan_system.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    jordan, basis = _jordan_system((2, 1, 1), 4, 11)
    assert np.array_equal(jordan, _jordan_nilpotent((2, 1, 1)))
    assert np.array_equal(basis.reshape(-1, 4, 4) @ jordan % 11,
                          4 * (jordan @ basis.reshape(-1, 4, 4)) % 11)
    for a in (jordan, basis):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1


def reference_stratum_sample(spec, p, q, parts, count, seed):
    # one elimination of N's own system per attempt, and one generator
    # call per block: reference_gl for each g, rng.integers for each try
    rng = np.random.default_rng(seed)
    n, jordan = spec.n, _jordan_nilpotent(parts)
    eye = np.eye(n, dtype=np.int64)
    points = []
    attempts = 0
    while len(points) < count and attempts < 500 * count:
        attempts += 1
        g, ginv = reference_gl(rng, n, p)
        n_mat = (g @ jordan % p) @ ginv % p
        basis = nullspace_mod((np.kron(eye, n_mat.T) - q * np.kron(n_mat, eye)) % p, p)
        if basis.shape[0] == 0:
            continue
        for _ in range(40):
            coeffs = rng.integers(0, p, size=basis.shape[0]).astype(np.int64)
            phi = (coeffs @ basis % p).reshape(n, n)
            if rank_mod(phi, p) == n:
                points.append((phi, n_mat))
                break
    return np.array(points, dtype=np.int64).reshape(-1, 2, n, n)


def units_of_each_order(p):
    # the least unit of each order dividing p - 1; q = 1 comes first
    first = {}
    for u in range(1, p):
        first.setdefault(multiplicative_order(u, p), u)
    return sorted(first.values())


class CountingGenerator:
    # forwards integers() to a numpy generator and counts the calls
    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampler_matches_a_per_attempt_elimination(n, monkeypatch):
    # every orbit, q = 1 and a unit of each order, at p <= 13. The N = 0
    # orbit takes the rank-only branch, and at p = 2 most draws of g are
    # singular, so the sampler's buffer runs out and is refilled
    draw_blocks = variety._draw_blocks
    generators = []

    def counted(rng, p, size):
        generators.append(CountingGenerator(rng))
        return draw_blocks(generators[-1], p, size)

    monkeypatch.setattr(variety, "_draw_blocks", counted)
    spec = GroupSpec.gl(n)
    for parts in [pt for pt in PARTITIONS if sum(pt) == n]:
        for p in (2, 3, 5, 7, 11, 13):
            for q in units_of_each_order(p):
                for seed in range(5):
                    for count in (1, 5, 17):
                        want = reference_stratum_sample(spec, p, q, parts, count, seed)
                        got = stratum_sample(spec, p, q, OrbitLabel.partition(parts), count,
                                             seed=seed)
                        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert max(g.calls for g in generators) > 1


def test_one_stream_sampler_refills_with_blocks_astride_the_buffer_end(monkeypatch):
    # a 7-entry buffer leaves part of nearly every block in the old buffer
    draw_blocks = variety._draw_blocks
    monkeypatch.setattr(variety, "_draw_blocks", lambda rng, p, size: draw_blocks(rng, p, 7))
    for parts in PARTITIONS:
        spec = GroupSpec.gl(sum(parts))
        for p, q in ((2, 1), (3, 2), (11, 4)):
            for seed in range(3):
                want = reference_stratum_sample(spec, p, q, parts, 5, seed)
                got = stratum_sample(spec, p, q, OrbitLabel.partition(parts), 5, seed=seed)
                assert np.array_equal(got, want)


def test_reversed_rref_of_a_conjugated_basis_is_the_canonical_kernel():
    rng = np.random.default_rng(3)
    for parts, p, q in (((2, 1), 7, 3), ((3, 1), 11, 4), ((2, 2), 13, 5), ((4,), 11, 1)):
        n, jordan = sum(parts), _jordan_nilpotent(parts)
        eye = np.eye(n, dtype=np.int64)
        basis = nullspace_mod((np.kron(eye, jordan.T) - q * np.kron(jordan, eye)) % p, p)
        for _ in range(5):
            g, ginv = reference_gl(rng, n, p)
            n_mat = (g @ jordan % p) @ ginv % p
            conj = ((g @ basis.reshape(-1, n, n) % p) @ ginv % p).reshape(len(basis), n * n)
            want = nullspace_mod((np.kron(eye, n_mat.T) - q * np.kron(n_mat, eye)) % p, p)
            assert np.array_equal(rref_mod(conj[:, ::-1], p)[0][::-1, ::-1], want)


GSP4_ORBITS = [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def reference_gsp4(rng, spec, p):
    # one conjugator from 11 scalar draws: a torus element (t1, t2, mu),
    # then a unipotent (I + c x) for every root vector x in the basis
    t1, t2, mu = (int(rng.integers(1, p)) for _ in range(3))
    g = np.diag(arr([t1, t2, mu * pow(t2, -1, p) % p, mu * pow(t1, -1, p) % p]))
    eye = np.eye(4, dtype=np.int64)
    for k in range(3, 11):
        c = int(rng.integers(0, p))
        g = g @ ((eye + c * spec.lie_basis[k]) % p) % p
    return g


def reference_gsp4_sample(spec, p, q, parts, count, seed):
    # one conjugator built and inverted by elimination per sample, draw for
    # draw the loop that the stacked sampler replaces
    rng = np.random.default_rng(seed)
    base = np.stack(_gsp4_base_point(spec, parts, q % p, p))
    return np.stack([conjugate_point(base, reference_gsp4(rng, spec, p), p)
                     for _ in range(count)])


@pytest.mark.parametrize("p, units", [(5, (2, 3)), (7, (3, 6)), (11, (3, 4)), (13, (2, 5))])
@pytest.mark.parametrize("parts", GSP4_ORBITS)
def test_gsp4_base_point_lies_on_its_stratum(parts, p, units):
    for q in units:
        phi, n_mat = _gsp4_base_point(GSP4, parts, q, p)
        assert phi.dtype == n_mat.dtype == np.int64
        assert sg_member(GSP4, phi, n_mat, q, p)
        assert jordan_partition(n_mat, p) == parts


def test_gsp4_base_point_rejects_other_partitions():
    with pytest.raises(ValueError, match="unsupported GSp4 orbit \\(3, 1\\)"):
        _gsp4_base_point(GSP4, (3, 1), 3, 11)


@pytest.mark.parametrize("p, units", [(5, (2, 3)), (7, (3, 6)), (11, (3, 4)), (13, (2, 5))])
def test_stacked_gsp4_sampler_matches_one_conjugator_per_sample(p, units):
    for parts in GSP4_ORBITS:
        for q in units:
            for seed in range(4):
                want = reference_gsp4_sample(GSP4, p, q, parts, 3, seed)
                got = stratum_sample(GSP4, p, q, OrbitLabel.partition(parts), 3, seed=seed)
                assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("p", [5, 11, 13, P_LARGE])
def test_similitude_inverse_equals_elimination(p):
    g, ginv = _random_gsp4_stack(np.random.default_rng(p), GSP4, p, 12)
    assert GSP4.is_group_element(g, p).all()
    want = np.stack([inv_mod(m, p) for m in g])
    assert np.array_equal(ginv, want)
    # the multiplier read off g^T Omega g, one matrix at a time
    for m, inv in zip(g, want):
        mu = (m.T @ (OMEGA4 % p) % p) @ m % p
        assert np.array_equal(_similitude_inverse(m, mu[0, 3], OMEGA4, p), inv)


def test_random_gl_pairs_and_draw_order():
    # one inversion per try returns (g, g^-1) and keeps the draws of a
    # loop that rejects singular draws by rank, whether each try is one
    # generator call or a block of one buffered stream
    for n, p in ((2, 2), (3, 3), (3, 11)):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        take = _draw_blocks(np.random.default_rng(5), p, 7)
        for _ in range(30):
            g, ginv = _random_gl(lambda k: rng.integers(0, p, size=k), n, p)
            assert np.array_equal(g @ ginv % p, np.eye(n, dtype=np.int64))
            ref, ref_inv = reference_gl(ref_rng, n, p)
            assert np.array_equal(g, ref) and np.array_equal(ginv, ref_inv)
            assert np.array_equal(_random_gl(take, n, p)[0], ref)


# ------------------------------------------------------------ linear systems

def test_sylvester_maps_vec_x_to_vec_of_ax_minus_xb():
    # _sylvester(a, b) vec(X) = vec(a X - X b), row-major, on stacks of
    # pairs and on one pair
    p = 11
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        a, b = rng.integers(0, p, size=(2, 6, n, n))
        mats = _sylvester(a, b, p)
        assert mats.dtype == np.int64 and mats.shape == (6, n * n, n * n)
        assert ((mats >= 0) & (mats < p)).all()
        assert np.array_equal(_sylvester(a[2], b[2], p), mats[2])
        x = rng.integers(0, p, size=(6, 5, n, n))
        want = (a[:, None] @ x - x @ b[:, None]) % p
        got = mats[:, None] @ x.reshape(6, 5, n * n, 1) % p
        assert np.array_equal(got.reshape(want.shape), want)


def assert_reduces_like_ad_minus_q(phis, ads, p):
    # for every unit q the inverse-free system N -> phi N - q N phi
    # reduces to the RREF, rank and pivots of Ad(phi) - q
    for q in range(1, p):
        for ad, system in zip(minus_q(ads, q, p), _sylvester(phis, q * phis % p, p)):
            for w, g in zip(rref_mod(ad, p), rref_mod(system, p)):
                assert np.array_equal(g, w)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverse_free_gl2_systems_reduce_like_ad_minus_q(p):
    assert_reduces_like_ad_minus_q(*gl2_adjoints(p), p)


@pytest.mark.parametrize("n, p", [(3, 11), (3, 13), (4, 11), (4, 13)])
def test_inverse_free_systems_reduce_like_ad_minus_q(n, p):
    # random phis, and per q a conjugate of z diag(1, q, ..., q^(n-1)),
    # whose kernel at that q is a bundle fibre
    rng = np.random.default_rng(n * p)
    phis = [reference_gl(rng, n, p)[0] for _ in range(40)]
    for q in range(1, p):
        g, ginv = reference_gl(rng, n, p)
        d = int(rng.integers(1, p)) * q ** np.arange(n) % p
        phis.append((g * d % p) @ ginv % p)
    phis = np.stack(phis)
    assert_reduces_like_ad_minus_q(phis, adjoints(phis, p), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_jordan_system_matches_the_kron_system(p, fresh_jordan_systems):
    # the basis of q J phi - phi J is that of phi J - q J phi, written as
    # kron(I, J^T) - q kron(J, I) on row-major vec(phi)
    for parts in PARTITIONS:
        n, jordan = sum(parts), _jordan_nilpotent(parts)
        eye = np.eye(n, dtype=np.int64)
        for q in range(1, p):
            want = nullspace_mod((np.kron(eye, jordan.T) - q * np.kron(jordan, eye)) % p, p)
            assert np.array_equal(_jordan_system(parts, q, p)[1], want)


# ------------------------------------------------------------------ tangents

def test_tangent_at_zero_n_counts_eigenspace():
    # at N = 0 the tangent splits: all of g plus ker(Ad(phi) - q)
    p, q = 11, 4
    phi = np.diag(arr([4, 1, 1]))
    # ratios 4/1 on two root lines: eigenvalue q twice
    assert tangent_dim(GL3, phi, np.zeros((3, 3), dtype=np.int64), q, p) == 9 + 2


def test_tangent_matrix_shape():
    phi = np.diag(arr([4, 1]))
    mat = tangent_matrix(GL2, phi, arr([[0, 1], [0, 0]]), 4, 7)
    assert mat.shape == (4, 8)


@pytest.mark.parametrize("func", [tangent_matrix, tangent_dim])
@pytest.mark.parametrize("spec, phi, n_mat", [
    (GL2, np.eye(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64)),
    (GL2, np.stack([np.eye(2, dtype=np.int64)] * 3), np.zeros((2, 2), dtype=np.int64)),
    (GL2, np.eye(2, dtype=np.int64), np.zeros((3, 2, 2), dtype=np.int64)),
    (GL2, np.eye(2, dtype=np.int64), np.zeros((2, 3), dtype=np.int64)),
    (GL2, np.ones(4, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)),
    (GSP4, np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)),
], ids=["3x3-for-GL2", "stack-of-phis", "stack-of-Ns", "non-square-N", "flat-phi",
        "2x2-for-GSp4"])
def test_tangent_rejects_other_shapes(func, spec, phi, n_mat):
    # one point only, phi and N each of the spec's (n, n) shape; the error
    # names the argument and the shape it must have
    name = "phi" if phi.shape != (spec.n, spec.n) else "N"
    message = r"^%s must have shape \(%d, %d\) for %s, got " % (name, spec.n, spec.n, spec.name)
    with pytest.raises(ValueError, match=message):
        func(spec, phi, n_mat, 3, 7)


#: ways to write one matrix m of residues mod 7 that tangent_dim accepts:
#: unreduced int64 (+k p, negative, near +-2^62), a strided view, other
#: integer dtypes, integral floats, objects and a nested list. bool holds
#: m only when its entries are 0 and 1
POINT_FORMS = {
    "plus-kp": lambda m: m + 5 * 7,
    "negative": lambda m: m - 3 * 7,
    "near-2^62": lambda m: m + 2**62 // 7 * 7,
    "near-minus-2^62": lambda m: m - 2**62 // 7 * 7,
    "strided-view": lambda m: np.repeat(m, 2, axis=1)[:, ::2],
    "big-endian": lambda m: m.astype(">i8"),
    "int32": lambda m: m.astype(np.int32),
    "uint8": lambda m: m.astype(np.uint8),
    "bool": lambda m: m.astype(bool),
    "float": lambda m: m.astype(float) - 7.0,
    "object": lambda m: (m + 2**62 // 7 * 7).astype(object),
    "list": lambda m: m.tolist(),
}


@pytest.mark.parametrize("form", POINT_FORMS.values(), ids=POINT_FORMS.keys())
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("n_mat", [np.zeros((2, 2), dtype=np.int64),
                                   np.array([[0, 1], [0, 0]])], ids=["N=0", "E12"])
def test_tangent_dim_reads_every_accepted_form_of_a_point(n_mat, q, form):
    # a reduced or unreduced int64 (2, 2) array is read with one tolist(),
    # anything else through as_field: phi, N or both in another form give
    # the dimension of the reduced int64 point, the closed form's oracle's
    p = 7
    phi = np.array([[0, 1], [1, 1]])
    expected = tangent_dim(GL2, phi, n_mat, q, p)
    assert expected == 2 * GL2.dim_g - rank_mod(tangent_matrix(GL2, phi, n_mat, q, p), p)
    for args in ((form(phi), form(n_mat)), (form(phi), n_mat), (phi, form(n_mat))):
        assert tangent_dim(GL2, *args, q, p) == expected


@pytest.mark.parametrize("bad, message", [
    (np.eye(2) / 2, "^expected integer entries$"),
    (np.array([["1", "0"], ["0", "1"]]), "^expected integer entries, got dtype <U1$"),
    (np.array([[2**64, 0], [0, 1]], dtype=object), "^expected integer entries that int64 holds$"),
], ids=["half-integral-float", "str", "object-2^64"])
def test_tangent_dim_rejects_entries_int64_cannot_hold(bad, message):
    # the inputs as_field refuses are refused as phi and as N alike
    good = np.eye(2, dtype=np.int64)
    for args in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=message):
            tangent_dim(GL2, *args, 3, 7)


def test_regular_stratum_tangents_are_smooth():
    pts = stratum_sample(GL3, 11, 4, OrbitLabel.partition((3,)), 12, seed=1)
    assert len(pts) == 12
    for phi, n_mat in pts:
        assert tangent_dim(GL3, phi, n_mat, 4, 11) == 9


def test_subregular_stratum_tangents():
    # points of the (2,1) stratum with generic phi are smooth points of
    # their own 9-dimensional component; special phi (extra eigenvalue
    # coincidences) raise the tangent to 10, the branch-crossing locus
    pts = stratum_sample(GL3, 11, 4, OrbitLabel.partition((2, 1)), 20, seed=0)
    dims = Counter(tangent_dim(GL3, phi, n_mat, 4, 11) for phi, n_mat in pts)
    assert dict(dims) == {9: 13, 10: 7}


def test_gsp4_stratum_tangents():
    for parts, seed in (((2, 2), 3), ((4,), 4)):
        pts = stratum_sample(GSP4, 11, 3, OrbitLabel.partition(parts), 6, seed=seed)
        assert len(pts) == 6
        for phi, n_mat in pts:
            assert GSP4.is_group_element(phi, 11)
            assert jordan_partition(n_mat, 11) == parts
            assert tangent_dim(GSP4, phi, n_mat, 3, 11) == 11


# --------------------------------------------------------------- enumeration

@pytest.fixture(scope="module")
def gl2_f7_q4():
    return enumerate_sg(GL2, 7, 4)


def test_enumeration_counts_frozen(gl2_f7_q4):
    pts = gl2_f7_q4
    assert len(pts) == 4032
    zero = sum(1 for n_mat in pts[:, 1] if not n_mat.any())
    assert zero == 2016  # |GL2(F7)| = 2016: one zero-N point per phi
    assert len(pts) - zero == 2016


def test_enumeration_membership_and_tangents(gl2_f7_q4):
    pts = gl2_f7_q4
    for phi, n_mat in pts:
        assert sg_member(GL2, phi, n_mat, 4, 7)
    counts = Counter(tangent_dim(GL2, phi, n_mat, 4, 7) for phi, n_mat in pts)
    assert dict(counts) == {4: 3696, 5: 336}
    # every nonzero-N point is a smooth point of a 4-dimensional model
    for phi, n_mat in pts:
        if n_mat.any():
            assert tangent_dim(GL2, phi, n_mat, 4, 7) == 4


def test_enumeration_is_deterministic():
    a = enumerate_sg(GL2, 5, 2)
    b = enumerate_sg(GL2, 5, 2)
    assert len(a) == len(b)
    assert np.array_equal(a, b)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_sg(GL3, 7, 4)
    with pytest.raises(ValueError):
        enumerate_sg(GL2, 17, 4)
    with pytest.raises(ValueError, match="only supported for GL"):
        nilpotency_redundancy_check(GL3, 7, 4)
    with pytest.raises(ValueError, match="capped at p = 13"):
        nilpotency_redundancy_check(GL2, 17, 4)
    # the GL2 bundle branch sums over classes, like the scan, yet keeps the
    # cap of the enumeration, which lists all of GL2(F_p)
    with pytest.raises(ValueError, match="^GL\\(2\\) bundle check is capped at p = 13$"):
        bundle_count_check(GL2, 17, 4)
    assert bundle_count_check(GL2, 13, 4).base_points == 12 * 13 * 14  # (p - 1) p (p + 1)


EYE2 = np.eye(2, dtype=np.int64)
ZERO2 = np.zeros((2, 2), dtype=np.int64)

#: the library entry points that check p and q before any work
GUARDED = [
    lambda p, q: enumerate_sg(GL2, p, q),
    lambda p, q: nilpotency_redundancy_check(GL2, p, q),
    lambda p, q: stratum_sample(GL3, p, q, OrbitLabel.partition((2, 1)), 3),
    lambda p, q: bundle_count_check(GL2, p, q),
    lambda p, q: bundle_count_check(GL3, p, q, samples=2),
    lambda p, q: tangent_matrix(GL2, EYE2, ZERO2, q, p),
    lambda p, q: tangent_dim(GL2, EYE2, ZERO2, q, p),
]
GUARDED_IDS = ["enumerate_sg", "nilpotency_redundancy_check", "stratum_sample",
               "bundle_count_check", "bundle_count_check-GL3", "tangent_matrix", "tangent_dim"]

#: the library entry points that check p only: for these predicates a q
#: divisible by p is one that fails
P_GUARDED = [
    lambda p: sg_member(GL2, EYE2, ZERO2, 3, p),
    lambda p: exp_bridge_check(EYE2, ZERO2, 3, p),
    lambda p: jordan_partition(ZERO2, p),
    lambda p: GL2.is_group_element(EYE2, p),
    lambda p: GL2.in_lie_algebra(ZERO2, p),
    lambda p: exp_nilpotent(ZERO2, p),
    lambda p: log_unipotent(EYE2, p),
]
P_GUARDED_IDS = ["sg_member", "exp_bridge_check", "jordan_partition",
                 "is_group_element", "in_lie_algebra", "exp_nilpotent", "log_unipotent"]

#: moduli no entry point takes, with the message each gets
BAD_P = [(0, "^p must be prime$"), (1, "^p must be prime$"), (9, "^p must be prime$"),
         (759250133, "^p exceeds the int64-safe bound 759250125$"),  # first prime past P_MAX
         (2**61 - 1, "^p exceeds the int64-safe bound 759250125$")]

#: p of a type other than int, which every entry point rejects even once
#: p = 7 has been accepted: 7.0 == 7, and hashes alike
NOT_INT_P = [(p, "^p must be an int, got ") for p in (7.0, 7.5, np.int64(7))]

#: a q, sample count or seed of a type other than int, which every entry
#: point that takes one rejects: 3.0 made float arrays, 3.5 failed deep
#: inside, and np.int64(3) passed
NOT_INT = (3.0, 3.5, np.int64(3))


@pytest.fixture
def no_trial_division_past_the_bound(monkeypatch):
    # a p past P_MAX is rejected on the bound alone: trial division up to
    # sqrt(2^61 - 1) would take minutes
    original = kernels.is_prime

    def is_prime(p):
        assert p <= kernels.P_MAX
        return original(p)

    monkeypatch.setattr(kernels, "is_prime", is_prime)


@pytest.mark.parametrize("call", GUARDED, ids=GUARDED_IDS)
def test_field_guard(call, no_trial_division_past_the_bound):
    call(7, 2)
    for p, message in BAD_P + NOT_INT_P:
        with pytest.raises(ValueError, match=message):
            call(p, 2)


@pytest.mark.parametrize("call", P_GUARDED, ids=P_GUARDED_IDS)
def test_p_only_guard(call, no_trial_division_past_the_bound):
    call(7)  # a field, and q = 3 or no q at all: no error
    for p, message in BAD_P + NOT_INT_P:
        with pytest.raises(ValueError, match=message):
            call(p)


@pytest.mark.parametrize("call", [
    lambda n: stratum_sample(GL3, 7, 3, OrbitLabel.partition((2, 1)), n),
    lambda n: stratum_sample(GSP4, 7, 3, OrbitLabel.partition((2, 2)), n),
    lambda n: bundle_count_check(GL3, 7, 3, samples=n),
], ids=["stratum_sample-GL3", "stratum_sample-GSp4", "bundle_count_check"])
def test_sample_count_guard(call):
    for n in (0, -2):
        with pytest.raises(ValueError, match="samples must be positive"):
            call(n)
    # the GL sampler makes up to 500 attempts a sample and the GSp4 sampler
    # draws all samples at once, so a huge count must fail before any work
    for n in (10_001, 1_000_000_000):
        with pytest.raises(ValueError, match="samples must be at most 10000"):
            call(n)
    # a float count ended in a numpy TypeError, and a numpy integer passed
    for n in NOT_INT:
        with pytest.raises(ValueError, match="^samples must be an int, got "):
            call(n)


@pytest.mark.parametrize("call", [
    lambda seed: stratum_sample(GL3, 7, 3, OrbitLabel.partition((2, 1)), 2, seed=seed),
    lambda seed: stratum_sample(GSP4, 7, 3, OrbitLabel.partition((2, 2)), 2, seed=seed),
    lambda seed: bundle_count_check(GL2, 7, 3, samples=2, seed=seed),
    lambda seed: bundle_count_check(GL3, 7, 3, samples=2, seed=seed),
], ids=["stratum_sample-GL3", "stratum_sample-GSp4", "bundle_count_check-GL2",
        "bundle_count_check-GL3"])
def test_negative_seed_guard(call):
    # the GL(2) bundle branch samples nothing, yet rejects the seed all the same
    for seed in (-1, -2**70):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            call(seed)
    for seed in NOT_INT:
        with pytest.raises(ValueError, match="^seed must be an int, got "):
            call(seed)
    call(0)


@pytest.mark.parametrize("call", GUARDED, ids=GUARDED_IDS)
def test_unit_q_guard(call):
    for q in (0, 7, -14):
        with pytest.raises(ValueError, match="q must be a unit mod p"):
            call(7, q)
    for q in NOT_INT:
        with pytest.raises(ValueError, match="^q must be an int, got "):
            call(7, q)


@pytest.mark.parametrize("call", [
    lambda q: sg_member(GL2, EYE2, ZERO2, q, 7),
    lambda q: exp_bridge_check(EYE2, ZERO2, q, 7),
], ids=["sg_member", "exp_bridge_check"])
def test_q_type_guard_of_the_predicates(call):
    # at N = 0 a non-unit q is reduced as it is and holds; q of another
    # type is refused
    assert call(3) is True and call(0) is True
    for q in NOT_INT:
        with pytest.raises(ValueError, match="^q must be an int, got "):
            call(q)


def brute_force_solutions(p, q):
    """Every (phi, N) in GL2(F_p) x gl2(F_p) with phi N = q N phi, N != 0:
    (number of invertible phi, nilpotent count, non-nilpotent count)."""
    cells = np.stack(np.meshgrid(*[np.arange(p)] * 4, indexing="ij"), -1).reshape(-1, 2, 2)
    dets = (cells[:, 0, 0] * cells[:, 1, 1] - cells[:, 0, 1] * cells[:, 1, 0]) % p
    phis, ns = cells[dets != 0], cells[1:]  # cells[0] is N = 0
    phi, n = phis[:, None], ns[None]
    solves = ~((phi @ n - q * (n @ phi)) % p).any(axis=(-2, -1))
    nilpotent = ~((ns @ ns) % p).any(axis=(-2, -1))
    return len(phis), int((solves & nilpotent).sum()), int((solves & ~nilpotent).sum())


@pytest.mark.parametrize("p, q", [(p, q) for p in (2, 3, 5) for q in range(1, p)])
def test_gl2_walk_matches_brute_force(p, q):
    phis, nilpotent, non_nilpotent = brute_force_solutions(p, q)
    pts = enumerate_sg(GL2, p, q)
    assert len(pts) == phis + nilpotent
    assert sum(1 for n_mat in pts[:, 1] if n_mat.any()) == nilpotent
    rep = nilpotency_redundancy_check(GL2, p, q)
    assert rep.pairs_checked == nilpotent + non_nilpotent
    assert rep.non_nilpotent_count == non_nilpotent
    assert (rep.witness_phi is not None) == (non_nilpotent > 0)
    if rep.witness_phi is not None:
        w_phi, w_n = rep.witness_phi, rep.witness_n
        assert np.array_equal(w_phi @ w_n % p, q * (w_n @ w_phi) % p)
        assert (w_n @ w_n % p).any()


# ---------------------------------------------------------------- redundancy

def test_redundancy_large_order():
    rep = nilpotency_redundancy_check(GL2, 7, 4)  # ord(4 mod 7) = 3
    assert rep.pairs_checked == 2016
    assert rep.non_nilpotent_count == 0
    assert rep.witness_phi is None


def test_redundancy_order_two_witness():
    rep = nilpotency_redundancy_check(GL2, 7, 6)  # ord(6 mod 7) = 2
    assert rep.non_nilpotent_count > 0
    assert rep.witness_phi is not None
    # the scan's witness satisfies the equation but is not nilpotent
    w_phi, w_n = rep.witness_phi, rep.witness_n
    assert np.array_equal(w_phi @ w_n % 7, 6 * (w_n @ w_phi) % 7)
    assert (np.linalg.matrix_power(w_n, 2) % 7).any()
    # and so does the diagonal companion pair
    phi = np.diag(arr([1, 6]))
    n = arr([[0, 1], [1, 0]])
    assert np.array_equal(phi @ n % 7, 6 * (n @ phi) % 7)
    assert np.array_equal(n @ n % 7, np.eye(2, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_gl2_stack_nullities_match_the_batch_kernel(p):
    # the closed form the GL(2, F_p) class sums read, _small_h2 at N = 0,
    # against the elimination of N -> phi N - q N phi for every invertible
    # phi at every unit q. Every value it can take occurs: 4 (scalar phi,
    # q = 1) and 0 (scalar phi, q != 1), 2 (equal characteristic
    # polynomials) and, once q has order 3 or more, 1 (one shared root)
    phis = _all_invertible_2x2(p)
    seen = set()
    for q in range(1, p):
        got = [variety._small_h2(phi, [0, 0, 0, 0], q, p) for phi in phis.reshape(-1, 4).tolist()]
        assert got == batch_nullity_mod(_sylvester(phis, q * phis % p, p), p).tolist()
        seen.update(got)
    assert seen == {2: {2, 4}, 3: {0, 2, 4}}.get(p, {0, 1, 2, 4})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_gl2_classes_partition_the_group(p):
    # every invertible phi is conjugate to exactly one class representative:
    # the scalars by their entry, the others by (tr, det); so the class
    # sizes are the grid's counts keyed by (tr, det, scalar)
    def key(a, b, c, d):
        return (a + d) % p, (a * d - b * c) % p, not (b or c) and a == d

    grid = Counter(key(*phi) for phi in _all_invertible_2x2(p).reshape(-1, 4).tolist())
    classes = list(variety._gl2_classes(p))
    assert len(classes) == p * p - 1
    assert Counter({key(*phi): size for phi, size, _ in classes}) == grid
    for phi, _, roots in classes:
        tau, delta, scalar = key(*phi)
        # the distinct roots of t^2 - tau t + delta in F_p
        found = sum(1 for x in range(p) if (x * x - tau * x + delta) % p == 0)
        assert roots == (None if scalar else found)


# ------------------------------------------------------------------ exp / log

def test_exp_log_roundtrip():
    n = arr([[0, 3, 5], [0, 0, 2], [0, 0, 0]])
    u = exp_nilpotent(n, 11)
    assert np.array_equal(log_unipotent(u, 11), n % 11)
    assert np.array_equal(exp_nilpotent(n * 0, 11), np.eye(3, dtype=np.int64))


def test_exp_requires_large_characteristic():
    n = arr([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        exp_nilpotent(np.zeros((3, 3), dtype=np.int64), 3)
    assert exp_nilpotent(n, 3) is not None  # 2x2 still fine at p = 3


def test_exp_bridge_on_samples():
    for phi, n_mat in stratum_sample(GL3, 11, 4, OrbitLabel.partition((3,)), 6, seed=5):
        assert exp_bridge_check(phi, n_mat, 4, 11)
    for phi, n_mat in stratum_sample(GSP4, 11, 3, OrbitLabel.partition((2, 2)), 4, seed=6):
        assert exp_bridge_check(phi, n_mat, 3, 11)


def conjugation_bridge_check(phi, n_mat, q, p):
    # the conjugation form: phi sigma phi^{-1} = sigma^q, log(exp(N)) = N
    sigma = exp_nilpotent(n_mat, p)
    lhs = (phi @ sigma % p) @ inv_mod(phi, p) % p
    return (np.array_equal(log_unipotent(sigma, p), n_mat % p)
            and np.array_equal(lhs, matpow_mod(sigma, q % p, p)))


def assert_bridge_forms_agree(pts, q, wrong_q, p):
    # with the right q every point passes; with a q' != q mod p, exp(N)^q
    # and exp(N)^q' differ for N != 0 (exp(N) has order p), so exactly the
    # N = 0 points pass
    for phi, n_mat in pts:
        assert exp_bridge_check(phi, n_mat, q, p) is True
        assert conjugation_bridge_check(phi, n_mat, q, p) is True
        wrong = exp_bridge_check(phi, n_mat, wrong_q, p)
        assert wrong is conjugation_bridge_check(phi, n_mat, wrong_q, p)
        assert wrong is not bool(n_mat.any())


@pytest.mark.parametrize("spec, parts, p, q", [
    (GL3, (3,), 11, 4),
    (GL3, (2, 1), 7, 3),
    (GroupSpec.gl(4), (2, 2), 11, 4),
    (GSP4, (2, 2), 11, 3),
    (GSP4, (4,), 13, 2),
])
def test_exp_bridge_matches_conjugation_form_on_samples(spec, parts, p, q):
    pts = stratum_sample(spec, p, q, OrbitLabel.partition(parts), 5, seed=2)
    assert len(pts) == 5
    assert_bridge_forms_agree(pts, q, q + 1, p)


def test_exp_bridge_matches_conjugation_form_on_enumeration(gl2_f7_q4):
    assert_bridge_forms_agree(gl2_f7_q4, 4, 2, 7)


#: (group, nonzero orbit, zero orbit, q) for the stacked bridge properties
BRIDGE_CASES = [
    (GL2, (2,), (1, 1), 4),
    (GL3, (2, 1), (1, 1, 1), 4),
    (GroupSpec.gl(4), (3, 1), (1, 1, 1, 1), 4),
    (GSP4, (2, 2), (1, 1, 1, 1), 3),
    (GSP4, (4,), (1, 1, 1, 1), 2),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BRIDGE_CASES), st.sampled_from([7, 11, 13]), st.integers(0, 2**16),
       st.integers(1, 6), st.integers(0, 12), st.randoms(use_true_random=False))
def test_stacked_exp_bridge_equals_per_pair_results(case, p, seed, count, shift, random):
    # samples of a nonzero orbit and of the zero orbit, shuffled together:
    # unless q + shift = q mod p, only the N = 0 pairs pass at q + shift
    spec, parts, zero_parts, q = case
    pts = np.concatenate([
        stratum_sample(spec, p, q, OrbitLabel.partition(parts), count, seed=seed),
        stratum_sample(spec, p, q, OrbitLabel.partition(zero_parts), count, seed=seed)])
    pts = pts[random.sample(range(len(pts)), len(pts))]
    for q_check in (q, q + shift):
        got = exp_bridge_check(pts[:, 0], pts[:, 1], q_check, p)
        assert got.dtype == bool and got.shape == (len(pts),)
        assert got.tolist() == [exp_bridge_check(phi, n_mat, q_check, p) for phi, n_mat in pts]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BRIDGE_CASES), st.sampled_from([7, 11, 13]), st.integers(0, 2**16),
       st.data())
def test_stacked_exp_bridge_fails_exactly_at_a_pair_off_the_variety(case, p, seed, data):
    spec, parts, _, q = case
    pts = stratum_sample(spec, p, q, OrbitLabel.partition(parts), 6, seed=seed)
    assume(len(pts) > 0)
    i = data.draw(st.integers(0, len(pts) - 1))
    # an invertible phi that breaks phi N = q N phi for the sampled N
    phi, n_mat = invertible(data, spec.n, p), pts[i, 1]
    assume(not np.array_equal(phi @ n_mat % p, q * (n_mat @ phi) % p))
    broken = pts.copy()
    broken[i, 0] = phi
    assert exp_bridge_check(pts[:, 0], pts[:, 1], q, p).all()
    got = exp_bridge_check(broken[:, 0], broken[:, 1], q, p)
    assert got.tolist() == [k != i for k in range(len(pts))]


def test_exp_and_log_on_stacks_and_non_square_input():
    pts = stratum_sample(GroupSpec.gl(4), 11, 4, OrbitLabel.partition((3, 1)), 4, seed=3)
    n_mats = pts[:, 1].reshape(2, 2, 4, 4)
    sigma = exp_nilpotent(n_mats, 11)
    assert sigma.shape == (2, 2, 4, 4)
    for n_mat, s in zip(n_mats.reshape(-1, 4, 4), sigma.reshape(-1, 4, 4)):
        assert np.array_equal(s, exp_nilpotent(n_mat, 11))
    assert np.array_equal(log_unipotent(sigma, 11), n_mats)
    assert exp_nilpotent(np.zeros((3, 1, 1), dtype=np.int64), 11).tolist() == [[[1]]] * 3
    assert exp_bridge_check(pts[:0, 0], pts[:0, 1], 4, 11).shape == (0,)
    for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros((4, 2, 3), dtype=np.int64),
                np.zeros(3, dtype=np.int64)):
        for func in (exp_nilpotent, log_unipotent):
            with pytest.raises(ValueError, match="expected a square matrix"):
                func(bad, 11)


def test_exp_bridge_rejects_phi_and_n_of_unequal_shapes():
    eye3 = np.eye(3, dtype=np.int64)
    for phi, n_mat in ((eye3, ZERO2), (EYE2, np.zeros((3, 3), dtype=np.int64)),
                       (np.stack([EYE2, EYE2]), ZERO2)):
        with pytest.raises(ValueError, match="^phi must have N's shape %s, got %s$"
                           % (re.escape(str(n_mat.shape)), re.escape(str(phi.shape)))):
            exp_bridge_check(phi, n_mat, 3, 7)


# -------------------------------------------------------------------- bundle

def test_bundle_gl2_exhaustive():
    rep = bundle_count_check(GL2, 7, 4)
    assert rep.base_points == 336
    assert rep.expected_fiber == 7
    assert rep.quadratic_extension_points == 0
    assert rep.ok


def test_bundle_gl2_order_two_fails():
    # ord(6 mod 7) = 2: eigenvalue pairs {z, 6z} also arise over the
    # quadratic extension and both root lines carry eigenvalue q
    rep = bundle_count_check(GL2, 7, 6)
    assert rep.quadratic_extension_points == 126
    assert rep.base_points == 294
    assert set(rep.fiber_counts) == {49}
    assert not rep.ok


def _bundle_gl2_brute_force(p, q):
    # base points by the per-phi rule: eigenvalues {z, qz} over F_p, or
    # an irreducible characteristic polynomial with q tr^2 = (1+q)^2 det;
    # at p = 2, pow(disc, 0, 2) == 1 == p - 1 for every nonzero disc
    split = {(z * (1 + q) % p, q * z * z % p) for z in range(1, p)}
    xs = np.array(np.meshgrid(*[range(p)] * 4, indexing="ij")).reshape(4, -1).T
    xs = xs.reshape(-1, 2, 2).astype(np.int64)
    fibers, quad = [], 0
    for a, b, c, d in np.ndindex(p, p, p, p):
        tr, det = (a + d) % p, (a * d - b * c) % p
        if det == 0:
            continue
        disc = (tr * tr - 4 * det) % p
        is_split = (tr, det) in split
        is_quad = (not is_split and disc != 0 and pow(disc, (p - 1) // 2, p) == p - 1
                   and q * tr * tr % p == (1 + q) ** 2 * det % p)
        if not (is_split or is_quad):
            continue
        quad += is_quad
        # the fibre: every N in gl2(F_p) with phi N = q N phi
        phi = arr([[a, b], [c, d]])
        fibers.append(int((phi @ xs % p == q * xs @ phi % p).all(axis=(1, 2)).sum()))
    return tuple(fibers), quad


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_bundle_gl2_matches_brute_force(p):
    for q in range(1, p) if p < 7 else (2, 6):
        rep = bundle_count_check(GL2, p, q)
        fibers, quad = _bundle_gl2_brute_force(p, q)
        assert rep.fiber_counts == Counter(fibers)
        assert rep.quadratic_extension_points == quad
        assert rep.base_points == len(fibers)


def _bundle_gl2_grid(p, q):
    """The GL(2) bundle check over the whole group: every invertible phi
    on the locus q tr^2 = (1+q)^2 det, the quadratic-extension ones picked
    by the Euler criterion on the discriminant (at p = 2 its exponent is
    0, so every nonzero disc passes), and each fibre eliminated. Returns
    (fiber histogram, base points, quadratic extension points)."""
    phis = _all_invertible_2x2(p)
    tr = (phis[:, 0, 0] + phis[:, 1, 1]) % p
    det = (phis[:, 0, 0] * phis[:, 1, 1] - phis[:, 0, 1] * phis[:, 1, 0]) % p
    on_locus = q * tr % p * tr % p == (1 + q) ** 2 % p * det % p
    disc = (tr * tr - 4 * det)[on_locus] % p
    euler = np.array([pow(d, (p - 1) // 2, p) for d in range(p)], dtype=np.int64)
    quad = int(((disc != 0) & (euler[disc] == p - 1)).sum())
    phis = phis[on_locus]
    nullities = batch_nullity_mod(_sylvester(phis, q * phis % p, p), p).tolist()
    return Counter(p**d for d in nullities), len(phis), quad


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_bundle_gl2_matches_the_grid(p):
    for q in range(1, p):
        rep = bundle_count_check(GL2, p, q)
        got = rep.fiber_counts, rep.base_points, rep.quadratic_extension_points
        assert got == _bundle_gl2_grid(p, q)


def test_bundle_gl3_sampled():
    rep = bundle_count_check(GL3, 11, 3, samples=8, seed=7)
    assert rep.expected_fiber == 121
    assert rep.base_points == 8
    assert rep.ok


# ------------------------------------------------------------------- jordan

def test_jordan_partition():
    assert jordan_partition(np.zeros((3, 3), dtype=np.int64), 7) == (1, 1, 1)
    j = arr([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert jordan_partition(j, 7) == (2, 1)
    full = arr([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert jordan_partition(full, 7) == (3,)


def test_jordan_partition_rejects_a_non_square_matrix():
    for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 2, 2), dtype=np.int64),
                np.zeros(3, dtype=np.int64)):
        with pytest.raises(ValueError, match="^N must have shape \\(n, n\\), got %s$"
                           % re.escape(str(bad.shape))):
            jordan_partition(bad, 7)


PARTITIONS = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
              (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def invertible(data, n, p):
    cells = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    g = np.array(cells, dtype=np.int64).reshape(n, n)
    assume(rank_mod(g, p) == n)
    return g


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PARTITIONS), st.sampled_from([2, 3, 5, 7, 11]), st.data())
def test_jordan_partition_is_a_conjugation_invariant(parts, p, data):
    j = _jordan_nilpotent(parts)
    g = invertible(data, len(j), p)
    assert jordan_partition((g @ j % p) @ inv_mod(g, p) % p, p) == parts


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(GroupSpec.gl(1), (1,)), (GL2, (2,)), (GL3, (2, 1)),
                        (GroupSpec.gl(4), (2, 2)), (GroupSpec.gl(4), (3, 1)),
                        (GSP4, (2, 2)), (GSP4, (4,))]),
       st.sampled_from([(7, 3), (11, 4), (13, 2)]), st.integers(0, 2**16), st.data())
def test_conjugate_point_keeps_samples_in_the_variety(case, pq, seed, data):
    # conjugation by the group is an automorphism of the variety: it keeps
    # membership, the tangent dimension and the exp bridge
    spec, parts = case
    p, q = pq
    pts = stratum_sample(spec, p, q, OrbitLabel.partition(parts), 1, seed=seed)
    assume(len(pts) > 0)
    if spec.form is not None:
        g = _random_gsp4_stack(np.random.default_rng(seed + 1), spec, p, 1)[0][0]
    else:
        g = invertible(data, spec.n, p)
    moved = conjugate_point(pts[0], g, p)
    assert sg_member(spec, moved[0], moved[1], q, p)
    assert tangent_dim(spec, *moved, q, p) == tangent_dim(spec, *pts[0], q, p)
    assert exp_bridge_check(*moved, q, p) == exp_bridge_check(*pts[0], q, p)


CONJUGATION_SPECS = [GroupSpec.gl(n) for n in range(1, 5)] + [GSP4]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONJUGATION_SPECS), st.sampled_from([5, 7, 11, 13]), st.booleans(),
       st.data())
def test_tangent_dim_and_exp_bridge_are_conjugation_invariants(spec, p, on_variety, data):
    # simultaneous conjugation by the group maps the Lie algebra to itself
    # and the tangent map at (phi, N) to a conjugate of itself, and exp and
    # log are polynomials in N here, so neither the tangent dimension nor
    # the exp bridge changes, on the variety or off it. The pairs are built
    # without the sampler, which conjugates its own: off the variety a
    # random group element and Lie algebra element; on it, GL(n) the Jordan
    # form J of a partition with phi a solution of phi J = q J phi, and
    # GSp4 a base point (phi, N) with phi moved along exp(c N)
    n = spec.n
    q = data.draw(st.integers(1, p - 1), label="q")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if spec.form is None:
        g = invertible(data, n, p)
    else:
        g = reference_gsp4(rng, spec, p)
    if not on_variety:
        coeffs = rng.integers(0, p, size=spec.dim_g)
        n_mat = np.tensordot(coeffs, spec.lie_basis, axes=1) % p
        phi = invertible_gl(rng, n, p) if spec.form is None else reference_gsp4(rng, spec, p)
    elif spec.form is None:
        parts = data.draw(st.sampled_from([parts for parts in PARTITIONS if sum(parts) == n]))
        n_mat, basis = _jordan_system(parts, q, p)
        phi = (rng.integers(0, p, size=len(basis)) @ basis % p).reshape(n, n)
        assume(rank_mod(phi, p) == n)
    else:
        parts = data.draw(st.sampled_from(GSP4_ORBITS))
        phi, n_mat = _gsp4_base_point(spec, parts, q, p)
        phi = phi @ exp_nilpotent(int(rng.integers(0, p)) * n_mat % p, p) % p
    pt = np.stack([phi, n_mat])
    if on_variety:
        assert sg_member(spec, phi, n_mat, q, p)
    moved = conjugate_point(pt, g, p)
    assert tangent_dim(spec, *moved, q, p) == tangent_dim(spec, *pt, q, p)
    assert exp_bridge_check(*moved, q, p) == exp_bridge_check(*pt, q, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from([5, 7, 11, 13]), st.data())
def test_log_inverts_exp(n, p, data):
    # a strictly upper triangular matrix, conjugated: a general nilpotent N
    upper = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    u = np.triu(np.array(upper, dtype=np.int64).reshape(n, n), 1)
    g = invertible(data, n, p)
    n_mat = (g @ u % p) @ inv_mod(g, p) % p
    assert np.array_equal(log_unipotent(exp_nilpotent(n_mat, p), p), n_mat)


def test_conjugate_point_stays_member():
    pt = stratum_sample(GL3, 11, 4, OrbitLabel.partition((2, 1)), 1, seed=8)[0]
    g = arr([[1, 2, 0], [0, 1, 5], [0, 0, 1]])
    moved = conjugate_point(pt, g, 11)
    assert sg_member(GL3, moved[0], moved[1], 4, 11)
    assert tangent_dim(GL3, *moved, 4, 11) == tangent_dim(GL3, *pt, 4, 11)


# ------------------------------------------- inverse-free tangent matrix

def adjoint_tangent_matrix(spec, phi, n_mat, q, p):
    # the differential of Ad(phi) N = q N: (X, M) -> Ad(phi)([X, N] + M) - q M
    inv = inv_mod(phi, p)
    basis = spec.lie_basis
    dim = len(basis)
    stack = np.concatenate([(basis @ n_mat - n_mat @ basis) % p, basis % p])
    images = (phi @ stack % p) @ inv % p
    images[dim:] = (images[dim:] - q * basis) % p
    return images.reshape(2 * dim, -1).T


def assert_adjoint_form_agrees(spec, pts, q, p):
    # nullities of the adjoint form through the stack kernel, of the
    # inverse-free form through tangent_dim's single-matrix kernel
    old = np.stack([adjoint_tangent_matrix(spec, phi, n_mat, q, p) for phi, n_mat in pts])
    assert batch_nullity_mod(old, p).tolist() == [
        tangent_dim(spec, phi, n_mat, q, p) for phi, n_mat in pts]


#: the (p, q) fields of the classifier agreement sweep in test_certificates.py
AGREEMENT_FIELDS = ((7, 2), (7, 3), (11, 3), (11, 4), (13, 2), (13, 4), (13, 5))


@pytest.mark.parametrize("p, q", AGREEMENT_FIELDS)
@pytest.mark.parametrize("name", ["GL2", "GL3", "GL4", "GSp4"])
def test_tangent_dims_match_adjoint_form_on_samples(name, p, q):
    spec = GSP4 if name == "GSp4" else GroupSpec.gl(int(name[2:]))
    for orbit in classical_orbits(build_root_system(parse_group(name))):
        pts = stratum_sample(spec, p, q, orbit, 5, seed=0)
        if len(pts):
            assert_adjoint_form_agrees(spec, pts, q, p)


@pytest.mark.parametrize("q", range(1, 7))
def test_tangent_dims_match_adjoint_form_on_enumeration(q):
    # every unit q at p = 2, 3, 5 and 7
    for p in (2, 3, 5, 7):
        if q < p:
            assert_adjoint_form_agrees(GL2, enumerate_sg(GL2, p, q), q, p)


def h2_dim(spec, phi, n_mat, q, p):
    # dim H^2 = {Y in g : Ad(phi) Y = q^-1 Y, [N, Y] = 0}: the nullity of
    # Y -> (q phi Y - Y phi, N Y - Y N) over the Lie algebra basis
    basis = spec.lie_basis
    images = np.concatenate([q * (phi @ basis) - basis @ phi, n_mat @ basis - basis @ n_mat],
                            axis=1) % p
    return nullity_mod(images.reshape(len(basis), -1).T, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_tangent_dim_is_dim_g_plus_h2(p):
    # the cokernel of the differential is dual to H^2 under the trace form,
    # which is nondegenerate on gl_n at every p and on gsp4 at odd p; N = 0
    # points come from the zero orbits and from the GL2 enumeration
    names = ["GL2", "GL3", "GL4"] + (["GSp4"] if p > 2 else [])
    for q in units_of_each_order(p):
        cases = [(GL2, enumerate_sg(GL2, p, q))] if p <= 5 else []
        for name in names:
            spec = GSP4 if name == "GSp4" else GroupSpec.gl(int(name[2:]))
            for orbit in classical_orbits(build_root_system(parse_group(name))):
                cases.append((spec, stratum_sample(spec, p, q, orbit, 2, seed=p)))
        for spec, pts in cases:
            for phi, n_mat in pts:
                assert (tangent_dim(spec, phi, n_mat, q, p)
                        == spec.dim_g + h2_dim(spec, phi, n_mat, q, p))


# ------------------------------------------------------- int64 exactness

def exact_inverse(m, p):
    inv = inv_mod(m, p).astype(object)
    assert np.array_equal(m.astype(object) @ inv % p, np.eye(len(m), dtype=object))
    return inv


def exact_tangent_matrix(spec, phi, n_mat, q, p):
    # (X, M) -> phi([X, N] + M) - q M phi on Python ints, one basis element
    # at a time
    phi, n_mat = phi.astype(object), n_mat.astype(object)
    cols = [phi @ (b @ n_mat - n_mat @ b) % p for b in spec.lie_basis.astype(object)]
    cols += [(phi @ b - q * b @ phi) % p for b in spec.lie_basis.astype(object)]
    return np.stack([c.reshape(-1) for c in cols], axis=1)


def test_kept_tangent_products_never_go_stale():
    # tangent_matrix keeps the M half's map by (spec, p, q): interleave
    # points whose keys differ only in the spec, only in p or only in q,
    # and a shuffled enumeration with q alternating; every matrix must
    # equal the oracle's, built from nothing kept
    def check(spec, phi, n_mat, q, p):
        exact = exact_tangent_matrix(spec, phi % p, n_mat % p, q, p).astype(np.int64)
        assert np.array_equal(tangent_matrix(spec, phi, n_mat, q, p), exact)
        assert tangent_dim(spec, phi, n_mat, q, p) == 2 * spec.dim_g - rank_mod(exact, p)

    gl4, zero4 = GroupSpec.gl(4), np.zeros((4, 4), dtype=np.int64)
    phi4 = np.diag(arr([2, 6, 1, 3]))  # a similitude too: 2 * 3 = 6 * 1
    for q in (3, 5, 3, 5):
        check(gl4, phi4, zero4, q, 11)  # GL4 and GSp4 share n = 4
        check(GSP4, phi4, zero4, q, 11)
    phi2, e12 = arr([[2, 1], [0, 1]]), arr([[0, 1], [0, 0]])
    # the same point, brackets with -1 = p - 1, and q = 2 and 3 at each p
    for p, q in ((11, 2), (13, 2), (11, 3), (13, 3), (11, 2), (13, 2)):
        check(GL2, phi2, e12, q, p)
    e14 = np.zeros((4, 4), dtype=np.int64)
    e14[0, 3] = 1  # in sp4, so in gsp4
    for spec in (gl4, GSP4, gl4):
        for n_mat in (zero4, e14, zero4, e14):
            check(spec, phi4, n_mat, 3, 11)
    pts = enumerate_sg(GL2, 5, 2)
    order = np.random.default_rng(0).permutation(len(pts))
    for i, (phi, n_mat) in enumerate(pts[order]):
        check(GL2, phi, n_mat, 2 + i % 2, 5)  # q = 3 is off the variety: no matter
    # GL1 and GL2 too: tangent_matrix keeps the M half's map by (spec, p, q),
    # and tangent_dim reads their invertible points in closed form, keeping
    # nothing: p and q change in turn, each alone, so a key missing either
    # reads another point's products. GL1's tangent dimension is 1 at q = 1 and 2 at any
    # other q; GL2's at phi = I and N = 0 is 8 at q = 1 and 4 otherwise
    gl1 = GroupSpec.gl(1)
    for p, q, c in ((5, 1, 0), (5, 2, 0), (7, 1, 3), (5, 1, 2), (7, 3, 3), (7, 1, 0)):
        for phi in (arr([[1]]), arr([[3]])):
            check(gl1, phi, arr([[c]]), q, p)
    zero2, e21 = np.zeros((2, 2), dtype=np.int64), arr([[0, 0], [1, 0]])
    rng = np.random.default_rng(7)
    for p, q in ((5, 1), (5, 2), (7, 1), (5, 1), (7, 3), (7, 1), (5, 2)):
        phi = invertible_gl(rng, 2, p)
        for n_mat in (zero2, e12, 2 * e21, zero2, e21 + e12, 3 * np.eye(2, dtype=np.int64)):
            check(GL2, np.eye(2, dtype=np.int64), n_mat, q, p)
            check(GL2, phi, n_mat, q, p)
    with pytest.raises(ValueError, match="read-only"):
        variety._m_map(GL2, 5, 2)[0, 0] = 1


def invertible_gl(rng, n, p):
    while True:
        g = rng.integers(0, p, size=(n, n))
        if rank_mod(g, p) == n:
            return g


def assert_tangent_dims_match_the_oracle(spec, pairs, qs, p):
    # the oracle of tangent_dim, which reads GL1 and GL2 dimensions at
    # invertible phi off H^2 in closed form, is the rank of the numpy-built
    # tangent_matrix, and the exact one that of its Python-int build
    for phi, n_mat in pairs:
        for q in qs:
            exact = exact_tangent_matrix(spec, phi, n_mat, q, p).astype(np.int64)
            got = tangent_matrix(spec, phi, n_mat, q, p)
            assert np.array_equal(got, exact)
            assert tangent_dim(spec, phi, n_mat, q, p) == 2 * spec.dim_g - rank_mod(got, p)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_tangent_dims_on_every_pair(n, p):
    # every invertible phi with every N in gl_n(F_p), off the variety
    # included, at every unit q: each branch of the closed form
    spec = GroupSpec.gl(n)
    mats = np.array(list(np.ndindex(*(p,) * (n * n))), dtype=np.int64).reshape(-1, n, n)
    phis = [m for m in mats if rank_mod(m, p) == n]
    assert len(phis) == {(1, 2): 1, (1, 3): 2, (2, 2): 6, (2, 3): 48}[n, p]
    pairs = [(phi, n_mat) for phi in phis for n_mat in mats]
    assert_tangent_dims_match_the_oracle(spec, pairs, range(1, p), p)


@pytest.mark.parametrize("p", [5, 7])
def test_closed_form_tangent_dims_at_every_scalar_n(p):
    # every invertible phi with every N = c I at every unit q, against the
    # nullity of the stacked tangent matrices. With N scalar, H^2 is
    # {Z : q phi Z = Z phi}, of dimension deg gcd(chi_phi, chi_{q phi}) for
    # a non-scalar phi: 2 (the two polynomials equal) only where q has
    # order 1 or 2, and 1 (one shared root, a zero resultant) at orders 3,
    # 4 and 6, which p = 5 and 7 reach
    phis = _all_invertible_2x2(p)
    scalar = (phis[:, 0, 1] == 0) & (phis[:, 1, 0] == 0) & (phis[:, 0, 0] == phis[:, 1, 1])
    eye = np.eye(2, dtype=np.int64)
    for q in range(1, p):
        order = multiplicative_order(q, p)
        for c in range(p):
            got = np.array([tangent_dim(GL2, phi, c * eye, q, p) for phi in phis])
            stack = np.stack([tangent_matrix(GL2, phi, c * eye, q, p) for phi in phis])
            assert np.array_equal(got, batch_nullity_mod(stack, p))
            assert set(got[scalar]) == {8 if q == 1 else 4}
            assert set(got[~scalar]) == {1: {6}, 2: {4, 6}}.get(order, {4, 5})


@settings(max_examples=200, deadline=None)
@given(st.integers(2, kernels.P_MAX), st.data())
def test_closed_form_tangent_dims_at_random_primes(bound, data):
    # GL2 pairs at the largest prime <= a random bound: phi random, scalar,
    # or [[z, b], [0, q z]], whose eigenvalues z and q z make chi_phi and
    # chi_{q phi} share a root; N random, scalar or nilpotent; q random, 1
    # or -1
    p = next(k for k in range(bound, 1, -1) if is_prime(k))
    entry = st.integers(0, p - 1)
    q = data.draw(st.sampled_from([1, p - 1]) | st.integers(1, p - 1))
    z, b, c, d = (data.draw(entry) for _ in range(4))
    phi = data.draw(st.sampled_from([
        [[z, b], [c, d]], [[z, 0], [0, z]], [[z, b], [0, q * z % p]]]))
    n_mat = data.draw(st.sampled_from([
        [[d, c], [b, z]], [[c, 0], [0, c]], [[-b * d, b * b], [-d * d, b * d]]]))
    phi, n_mat = np.array(phi, dtype=np.int64), np.array(n_mat, dtype=np.int64) % p
    expected = 2 * GL2.dim_g - rank_mod(tangent_matrix(GL2, phi, n_mat, q, p), p)
    assert tangent_dim(GL2, phi, n_mat, q, p) == expected


@pytest.mark.parametrize("p", [13, 759_250_111])
@pytest.mark.parametrize("n", [1, 2])
def test_packed_tangent_dims_on_random_pairs(n, p):
    # random pairs, the all-(p - 1) phi, whose products are as large as
    # they get, and N = 0 and N = c I, where the X half vanishes
    spec = GroupSpec.gl(n)
    rng = np.random.default_rng(p + n)
    top = np.full((n, n), p - 1, dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    phis = list(rng.integers(0, p, size=(12, n, n))) + [top, invertible_gl(rng, n, p)]
    ns = list(rng.integers(0, p, size=(6, n, n))) + [top, 0 * eye, eye, (p - 1) * eye,
                                                      int(rng.integers(2, p)) * eye]
    qs = sorted({1, 2, p - 1, int(rng.integers(1, p))})
    pairs = [(phi, n_mat) for phi in phis for n_mat in ns]
    assert_tangent_dims_match_the_oracle(spec, pairs, qs, p)


@pytest.mark.parametrize("p", [2, 13, 759_250_111])
@pytest.mark.parametrize("n", [1, 2])
def test_tangent_dim_at_singular_phi(n, p):
    # the closed form needs an invertible phi; at a singular one tangent_dim
    # eliminates the tangent matrix, as for GL3, GL4 and GSp4. The zero phi,
    # a rank-1 phi and the all-(p - 1) phi (rank 1 for GL2, a unit for GL1,
    # where rank 1 is invertible too), each with N = 0, N = c I and E12
    spec = GroupSpec.gl(n)
    eye = np.eye(n, dtype=np.int64)
    rank_one = np.outer(np.arange(1, n + 1), np.arange(n, 0, -1)) % p
    phis = [0 * eye, rank_one, np.full((n, n), p - 1)]
    ns = [0 * eye, (p - 1) * eye] + ([np.array([[0, 1], [0, 0]])] if n == 2 else [])
    singular = [rank_mod(phi, p) < n for phi in phis]
    assert singular == [True, n == 2, n == 2]
    for phi, is_singular in zip(phis, singular):
        for n_mat in ns:
            h2 = variety._small_h2(phi.ravel().tolist(), n_mat.ravel().tolist(), 2 % p, p)
            assert (h2 is None) == is_singular
        assert_tangent_dims_match_the_oracle(spec, [(phi, n_mat) for n_mat in ns],
                                             sorted({1, p - 1, min(2, p - 1)}), p)


@pytest.mark.parametrize("p", [3, 13])
def test_tangent_dim_off_gl_n_eliminates(p):
    # the closed form holds for the Lie algebra gl_n only: a 2 x 2 spec of
    # another algebra, sl_2 here, has its tangent matrix eliminated
    sl2 = GroupSpec("SL2", np.array([[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]))
    rng = np.random.default_rng(p)
    e12 = np.array([[0, 1], [0, 0]])
    pairs = [(invertible_gl(rng, 2, p), n_mat)
             for n_mat in (0 * e12, e12, rng.integers(0, p, size=(2, 2)))]
    assert_tangent_dims_match_the_oracle(sl2, pairs, range(1, p), p)
    # q = 1, phi = I, N = 0: every M of sl_2 and every X solve, where the
    # closed form for gl_2 would count 8
    assert tangent_dim(sl2, np.eye(2, dtype=np.int64), 0 * e12, 1, p) == 6


#: the primes the vanishing-bracket path is checked at: the smallest two,
#: the workloads' 11 and the largest prime <= kernels.P_MAX
VANISHING_PRIMES = (2, 3, 11, 759_250_111)


@pytest.mark.parametrize("p", VANISHING_PRIMES)
@pytest.mark.parametrize("spec", [GroupSpec.gl(n) for n in range(1, 5)] + [GSP4],
                         ids=lambda spec: spec.name)
def test_tangent_dim_where_every_bracket_vanishes(spec, p):
    # where every [X_m, N] is 0 mod p the X half of the tangent matrix is
    # zero, and tangent_dim eliminates the M half alone and adds dim g: N = 0,
    # N = c I (central, not nilpotent) and, for GL1, any N. Each takes that
    # path, and must agree with the whole matrix's rank and with the oracle
    n = spec.n
    rng = np.random.default_rng(p)
    eye = np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(n, n)), 1) + eye  # invertible
    low_rank = np.outer(rng.integers(0, p, size=n), rng.integers(0, p, size=n))
    phis = [eye, upper, rng.integers(0, p, size=(n, n)), np.full((n, n), p - 1),
            np.zeros((n, n), dtype=np.int64), low_rank]
    cs = sorted({1, p - 1, int(rng.integers(1, p))})
    ns = [0 * eye] + ([c * eye for c in cs] if n > 1 else [rng.integers(0, p, size=(1, 1))])
    for n_mat in ns:
        for phi in phis:
            for q in sorted({1, p - 1, min(2, p - 1)}):
                point = variety._checked_point(spec, phi, n_mat, q, p)
                assert variety._reversed_halves(spec, *point, p)[1] is None
                exact = exact_tangent_matrix(spec, phi, n_mat, q, p).astype(np.int64)
                got = tangent_matrix(spec, phi, n_mat, q, p)
                assert np.array_equal(got, exact)
                assert not got[:, :spec.dim_g].any()
                assert tangent_dim(spec, phi, n_mat, q, p) == 2 * spec.dim_g - rank_mod(got, p)


@pytest.mark.parametrize("p", [11, P_LARGE])
@pytest.mark.parametrize("spec, parts, q", [
    (GroupSpec.gl(4), (2, 1, 1), 4),
    (GSP4, (2, 2), 3),
])
def test_products_stay_exact(spec, parts, q, p):
    pts = stratum_sample(spec, p, q, OrbitLabel.partition(parts), 3, seed=5)
    assert len(pts) == 3
    for pt in pts:
        phi, n_mat = pt
        assert sg_member(spec, phi, n_mat, q, p)
        got = tangent_matrix(spec, phi, n_mat, q, p)
        assert np.array_equal(got, exact_tangent_matrix(spec, phi, n_mat, q, p))
        g = pts[0, 0]  # an element of the group, so the conjugate stays a point
        moved = conjugate_point(pt, g, p)
        ginv = exact_inverse(g, p)
        for before, after in zip(pt, moved):
            assert np.array_equal(after, g.astype(object) @ before.astype(object) @ ginv % p)
        assert sg_member(spec, moved[0], moved[1], q, p)


#: the largest prime <= kernels.P_MAX: the widest entries the kernels accept
TOP_P = 759_250_111


@pytest.mark.parametrize("spec, orbits", [
    (GL2, [(2,), (1, 1)]),
    (GL3, [(3,), (2, 1), (1, 1, 1)]),
    (GroupSpec.gl(4), [(2, 1, 1), (2, 2), (4,)]),
    (GSP4, [(2, 2), (4,), (2, 1, 1)]),
], ids=["GL2", "GL3", "GL4", "GSp4"])
def test_tangent_matrix_is_exact_at_the_largest_prime(spec, orbits):
    # an int64 matmul wraps without a warning, so -W error cannot see an
    # overflow; only an exact reference can. Sampled points, uniform random
    # pairs (off the variety, which tangent_matrix does not need) and the
    # all-(p - 1) pair, which makes every product as large as it gets
    rng = np.random.default_rng(53)
    q = int(rng.integers(2, TOP_P))
    pairs = [pt for parts in orbits
             for pt in stratum_sample(spec, TOP_P, q, OrbitLabel.partition(parts), 4, seed=7)]
    pairs += list(rng.integers(0, TOP_P, size=(8, 2, spec.n, spec.n)))
    pairs.append(np.full((2, spec.n, spec.n), TOP_P - 1))
    for phi, n_mat in pairs:
        for q_pair in (q, TOP_P - 1):
            exact = exact_tangent_matrix(spec, phi, n_mat, q_pair, TOP_P)
            assert np.array_equal(tangent_matrix(spec, phi, n_mat, q_pair, TOP_P), exact)
            # tangent_dim hands nullity_mod entries up to n^2 (p - 1)^2, unreduced
            assert (tangent_dim(spec, phi, n_mat, q_pair, TOP_P)
                    == 2 * spec.dim_g - rank_mod(exact.astype(np.int64), TOP_P))
