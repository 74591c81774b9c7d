"""Nilpotent orbit combinatorics: enumeration, diagrams, gradings, tables."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagram_rows import D_ROWS, F4_LEVI_ROWS
from wdsmooth.orbits import (
    OrbitLabel,
    _levi_root_levels,
    UnsupportedTypeError,
    WeightedDynkinDiagram,
    check_distinguished_criterion,
    classical_orbits,
    distinguished_table,
    exposed_root_sweep,
    exposed_roots,
    grading_dims,
    is_distinguished,
    is_very_even,
    is_zero_orbit,
    smooth_bound_r,
    validate_orbit,
    weighted_dynkin,
)
from wdsmooth.rootsys import (
    _RANK_RULES,
    DynkinType,
    build_root_system,
    levi_factors,
    parse_group,
)


def rs_of(name):
    return build_root_system(parse_group(name))


def allowed_types(lo, hi):
    """Every semisimple type the rank rules allow with rank in [lo, hi]."""
    return [DynkinType(family, rank) for family, (a, b) in _RANK_RULES.items()
            for rank in range(max(a, lo), min(b, hi) + 1)]


def reference_grading(rs, labels):
    # the per-root loop: each positive root and its negative, one at a time
    dims = {0: rs.reductive_rank}
    for coords in rs.positive_root_coords:
        level = sum(c * l for c, l in zip(coords, labels))
        dims[level] = dims.get(level, 0) + 1
        dims[-level] = dims.get(-level, 0) + 1
    return dict(sorted(dims.items()))


def reference_levi_levels(rs, subset, w_by_index):
    # the per-root loop: the levels of the roots supported on the subset
    levels = []
    for coords in rs.positive_root_coords:
        support = {i for i, c in enumerate(coords) if c != 0}
        if support <= subset:
            levels.append(sum(c * w_by_index[i] for i, c in enumerate(coords) if c != 0))
    return levels


def reference_criterion(rs, subset, w_by_index):
    levels = reference_levi_levels(rs, subset, w_by_index)
    g0 = rs.reductive_rank + 2 * sum(1 for lv in levels if lv == 0)
    g2 = sum(1 for lv in levels if abs(lv) == 2)
    return g0 == g2 + rs.reductive_rank - len(subset)


def partitions_of(n):
    # independent generator, descending parts
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def oracle_orbits(family, rank):
    if family == "A":
        size, keep = rank + 1, lambda p: True
    elif family == "B":
        size = 2 * rank + 1
        keep = lambda p: all(p.count(k) % 2 == 0 for k in set(p) if k % 2 == 0)
    elif family == "C":
        size = 2 * rank
        keep = lambda p: all(p.count(k) % 2 == 0 for k in set(p) if k % 2 == 1)
    elif family == "D":
        size = 2 * rank
        keep = lambda p: all(p.count(k) % 2 == 0 for k in set(p) if k % 2 == 0)
    else:
        raise ValueError(family)
    return [p for p in partitions_of(size) if keep(p)]


@pytest.mark.parametrize(
    "name,family,rank",
    [("GL2", "A", 1), ("GL4", "A", 3), ("SO5", "B", 2), ("SO7", "B", 3),
     ("Sp4", "C", 2), ("Sp6", "C", 3), ("SO8", "D", 4)],
)
def test_orbit_enumeration_matches_partition_oracle(name, family, rank):
    got = [o.parts for o in classical_orbits(rs_of(name))]
    assert got == oracle_orbits(family, rank)


def test_sp6_orbit_list_frozen():
    got = [str(o) for o in classical_orbits(rs_of("Sp6"))]
    assert got == ["6", "4,2", "4,1,1", "3,3", "2,2,2", "2,2,1,1",
                   "2,1,1,1,1", "1,1,1,1,1,1"]
    dist = [str(o) for o in classical_orbits(rs_of("Sp6"))
            if is_distinguished(rs_of("Sp6"), o)]
    assert dist == ["6", "4,2"]


def test_distinguished_rules():
    gl4 = rs_of("GL4")
    assert is_distinguished(gl4, OrbitLabel.partition((4,)))
    assert not is_distinguished(gl4, OrbitLabel.partition((3, 1)))
    so7 = rs_of("SO7")
    assert [str(o) for o in classical_orbits(so7) if is_distinguished(so7, o)] == ["7"]
    assert not is_distinguished(so7, OrbitLabel.partition((3, 3, 1)))


def test_zero_and_very_even_flags():
    gl3 = rs_of("GL3")
    assert is_zero_orbit(gl3, OrbitLabel.partition((1, 1, 1)))
    assert is_zero_orbit(gl3, OrbitLabel.zero())
    assert not is_zero_orbit(gl3, OrbitLabel.partition((2, 1)))
    d4 = rs_of("SO8")
    assert is_very_even(d4, OrbitLabel.partition((4, 4)))
    assert is_very_even(d4, OrbitLabel.partition((2, 2, 2, 2)))
    assert not is_very_even(d4, OrbitLabel.partition((5, 3)))
    assert not is_very_even(gl3, OrbitLabel.partition((2, 1)))


def test_validate_orbit_errors():
    sp6 = rs_of("Sp6")
    with pytest.raises(ValueError, match="sum"):
        validate_orbit(sp6, OrbitLabel.partition((4, 1)))
    with pytest.raises(ValueError, match="parity"):
        validate_orbit(sp6, OrbitLabel.partition((3, 2, 1)))
    e6 = rs_of("E6")
    validate_orbit(e6, OrbitLabel.named("E6(a1)"))
    with pytest.raises(ValueError, match="unknown orbit name"):
        validate_orbit(e6, OrbitLabel.named("E6(b7)"))
    validate_orbit(e6, OrbitLabel.zero())


def test_orbit_label_constraints():
    with pytest.raises(ValueError):
        OrbitLabel.partition((1, 2))
    with pytest.raises(ValueError):
        OrbitLabel.partition(())
    with pytest.raises(ValueError):
        OrbitLabel(parts=(2, 1), name="x")
    assert str(OrbitLabel.partition((2, 1))) == "2,1"
    assert str(OrbitLabel.zero()) == "0"


def test_weighted_dynkin_frozen_rows():
    assert weighted_dynkin(rs_of("GL3"), OrbitLabel.partition((2, 1))).labels == (1, 1)
    assert weighted_dynkin(rs_of("GL4"), OrbitLabel.partition((2, 2))).labels == (0, 2, 0)
    assert weighted_dynkin(rs_of("Sp6"), OrbitLabel.partition((4, 2))).labels == (2, 0, 2)
    assert weighted_dynkin(rs_of("SO7"), OrbitLabel.partition((3, 3, 1))).labels == (0, 2, 0)
    assert weighted_dynkin(rs_of("GL3"), OrbitLabel.zero()).labels == (0, 0)
    assert weighted_dynkin(rs_of("E6"), OrbitLabel.named("E6(a1)")).labels == (2, 2, 2, 0, 2, 2)


def test_stored_d_rows_match_recipe():
    for rank, rows in D_ROWS.items():
        rs = build_root_system(DynkinType("D", rank))
        for parts, labels in rows.items():
            assert weighted_dynkin(rs, OrbitLabel.partition(parts)).labels == labels
        # Carter's rows are exactly the distinguished orbits
        dist = [o.parts for o in classical_orbits(rs) if is_distinguished(rs, o)]
        assert sorted(dist) == sorted(rows)


def test_distinguished_counts():
    counts = {4: 2, 5: 2, 6: 3, 7: 3}
    for rank, want in counts.items():
        table = distinguished_table(DynkinType("D", rank))
        assert len(table) == want
        assert {o.parts: diag.labels for o, diag in table} == D_ROWS[rank]
    assert len(distinguished_table(parse_group("E6"))) == 3
    assert len(distinguished_table(parse_group("E7"))) == 6


# dim g - dim g(0) for each stored row: the orbit's dimension, as
# Collingwood-McGovern list it. The row named "E6(a2)" (diagram 200202,
# dimension 66) is Carter's E6(a3); E6 has no orbit E6(a2).
EXCEPTIONAL_ORBIT_DIMS = {
    "E6": {"E6": 72, "E6(a1)": 70, "E6(a2)": 66},
    "E7": {"E7": 126, "E7(a1)": 124, "E7(a2)": 122, "E7(a3)": 120,
           "E7(a4)": 116, "E7(a5)": 112},
}


@pytest.mark.parametrize("tname,nrows", [("E6", 3), ("E7", 6)])
def test_exceptional_tables_invariants(tname, nrows):
    t = parse_group(tname)
    rows = distinguished_table(t)
    assert len(rows) == nrows
    rs = build_root_system(t)
    orbit_dims = {}
    for orbit, diag in rows:
        assert set(diag.labels) <= {0, 2}
        gd = grading_dims(rs, diag)
        assert gd.get(1, 0) == 0 and gd.get(-1, 0) == 0
        assert gd.get(0, 0) == gd.get(2, 0)  # distinguished criterion, center is 0
        assert sum(gd.values()) == rs.dim_g
        orbit_dims[str(orbit)] = rs.dim_g - gd[0]
    assert orbit_dims == EXCEPTIONAL_ORBIT_DIMS[tname]


def test_distinguished_table_unsupported():
    with pytest.raises(UnsupportedTypeError):
        distinguished_table(DynkinType("F", 4))
    with pytest.raises(UnsupportedTypeError):
        distinguished_table(DynkinType("E", 8))


def test_f4_levi_table_rows():
    for tname in ("C2", "C3", "B3"):
        t = parse_group(tname)
        computed = {o.parts: diag.labels for o, diag in distinguished_table(t)}
        assert computed == {parts: labels for _, factor, parts, labels in F4_LEVI_ROWS
                            if factor == tname}
    for _, tname, _, labels in F4_LEVI_ROWS:
        assert set(labels) <= {0, 2}
        t = parse_group(tname)
        rs = build_root_system(t)
        gd = grading_dims(rs, WeightedDynkinDiagram(labels))
        assert gd.get(1, 0) == 0 and gd.get(-1, 0) == 0
        levi = levi_factors(rs, set(range(t.rank)))
        assert check_distinguished_criterion(levi, dict(enumerate(labels)))


def test_grading_dims_frozen():
    gd = grading_dims(rs_of("GL3"), WeightedDynkinDiagram((1, 1)))
    assert gd == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
    assert list(gd) == sorted(gd)
    assert sum(gd.values()) == 9
    regular = grading_dims(rs_of("GL3"), WeightedDynkinDiagram((2, 2)))
    assert regular == {-4: 1, -2: 2, 0: 3, 2: 2, 4: 1}


SMALL_TYPES = allowed_types(1, 4) + [parse_group("GL%d" % n) for n in range(2, 6)] + [
    parse_group("GSp4")]


@pytest.mark.parametrize("t", SMALL_TYPES, ids=lambda t: t.name)
def test_grading_dims_matches_the_per_root_loop_on_every_diagram(t):
    rs = build_root_system(t)
    for labels in itertools.product((0, 1, 2), repeat=t.rank):
        gd = grading_dims(rs, WeightedDynkinDiagram(labels))
        assert list(gd.items()) == list(reference_grading(rs, labels).items()), labels


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_grading_dims_matches_the_per_root_loop_at_ranks_5_to_8(data):
    t = data.draw(st.sampled_from(allowed_types(5, 8) + [parse_group("GL%d" % n)
                                                         for n in range(6, 10)]))
    labels = tuple(data.draw(st.lists(st.integers(0, 2), min_size=t.rank, max_size=t.rank)))
    rs = build_root_system(t)
    gd = grading_dims(rs, WeightedDynkinDiagram(labels))
    assert list(gd.items()) == list(reference_grading(rs, labels).items())


@pytest.mark.parametrize("t", allowed_types(1, 8), ids=lambda t: t.name)
def test_every_root_level_fits_in_a_byte(t):
    # grading_dims reads each root's level, at most 2 * height, off one byte
    rs = build_root_system(t)
    assert 2 * max(sum(c) for c in rs.positive_root_coords) < 256


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "E6", "F4", "G2"])
def test_levi_levels_match_the_per_root_loop_on_every_subset(name):
    rs = rs_of(name)
    rng = random.Random(name)
    seen = set()
    for mask in range(1, 2**rs.rank):
        subset = frozenset(i for i in range(rs.rank) if mask >> i & 1)
        levi = levi_factors(rs, subset)
        draws = [dict.fromkeys(subset, 2)] + [
            {i: rng.choice((0, 2)) for i in sorted(subset)} for _ in range(3)]
        for w in draws:
            assert list(_levi_root_levels(levi, w)) == reference_levi_levels(rs, subset, w)
            got = check_distinguished_criterion(levi, w)
            assert got == reference_criterion(rs, subset, w), (sorted(subset), w)
            seen.add(got)
    assert seen == {False, True}


def test_criterion_rejects_labels_outside_0_1_2():
    levi = levi_factors(rs_of("GL3"), {0, 1})
    for bad in (3, -2, 2.0, True):
        with pytest.raises(ValueError, match="ints in {0, 1, 2}"):
            check_distinguished_criterion(levi, {0: 2, 1: bad})


def test_grading_total_is_dim_g():
    for name in ("GL4", "Sp6", "SO7", "GSp4"):
        rs = rs_of(name)
        for o in classical_orbits(rs):
            assert sum(grading_dims(rs, weighted_dynkin(rs, o)).values()) == rs.dim_g


def test_smooth_bound_r():
    gl3 = rs_of("GL3")
    assert smooth_bound_r(grading_dims(gl3, weighted_dynkin(gl3, OrbitLabel.partition((2, 1))))) == 2
    assert smooth_bound_r(grading_dims(gl3, weighted_dynkin(gl3, OrbitLabel.partition((3,))))) == 3
    sp6 = rs_of("Sp6")
    assert smooth_bound_r(grading_dims(sp6, weighted_dynkin(sp6, OrbitLabel.partition((4, 2))))) == 4
    assert smooth_bound_r(grading_dims(gl3, weighted_dynkin(gl3, OrbitLabel.zero()))) == 1


def test_criterion_examples():
    gl3 = rs_of("GL3")
    full = levi_factors(gl3, {0, 1})
    w_sub = weighted_dynkin(gl3, OrbitLabel.partition((2, 1)))
    assert not check_distinguished_criterion(full, dict(enumerate(w_sub.labels)))
    w_reg = weighted_dynkin(gl3, OrbitLabel.partition((3,)))
    assert check_distinguished_criterion(full, dict(enumerate(w_reg.labels)))
    with pytest.raises(ValueError, match="cover exactly"):
        check_distinguished_criterion(full, {0: 2})


@pytest.mark.parametrize(
    "family,ranks",
    [("A", range(1, 6)), ("B", range(2, 6)), ("C", range(2, 6)), ("D", range(4, 6))],
)
def test_criterion_matches_partition_rule(family, ranks):
    # dimension test against the parity characterization, every orbit
    for rank in ranks:
        rs = build_root_system(DynkinType(family, rank))
        full = levi_factors(rs, set(range(rank)))
        for o in classical_orbits(rs):
            w = weighted_dynkin(rs, o)
            got = check_distinguished_criterion(full, dict(enumerate(w.labels)))
            assert got == is_distinguished(rs, o), (family, rank, str(o))


def test_exposed_roots():
    b3 = rs_of("SO7")
    levi = levi_factors(b3, {1, 2})
    assert exposed_roots(levi) == frozenset({1})
    assert exposed_roots(levi_factors(b3, {0, 1, 2})) == frozenset()


def test_exposed_root_sweep_small():
    ambients = [build_root_system(DynkinType(f, r))
                for f, rng in (("A", range(1, 5)), ("B", range(2, 4)),
                               ("C", range(2, 4)), ("D", range(4, 5)))
                for r in rng]
    assert exposed_root_sweep(ambients) == []


def test_exposed_root_sweep_exceptional():
    # types D4-D7, E6, E7, B3 and C3 factors inside the exceptional diagrams
    ambients = [rs_of(name) for name in ("E6", "E7", "E8", "F4", "G2")]
    assert exposed_root_sweep(ambients) == []


def test_weighted_diagram_label_domain():
    with pytest.raises(ValueError):
        WeightedDynkinDiagram((3, 0))
    # 2.0 == 2 and True == 1, but levels are summed as ints
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="ints in {0, 1, 2}"):
            WeightedDynkinDiagram((bad, 0))
