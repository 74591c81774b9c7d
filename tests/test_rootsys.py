"""Root data checked against independent Euclidean enumerations.

The package keeps roots in simple-root coordinates only. These tests map
them through Bourbaki's Euclidean simple roots (plates I-IV and IX) and
compare with the root sets enumerated straight from each Euclidean model.
"""

import hashlib
import itertools

import pytest

from wdsmooth.rootsys import (
    _RANK_RULES,
    DynkinType,
    build_root_system,
    levi_factors,
    parse_group,
)


def euclid_full_roots(family, rank):
    """Enumerate the full classical root set directly from its Euclidean model."""
    out = set()
    if family == "A":
        n = rank + 1
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = [0] * n
                    v[i], v[j] = 1, -1
                    out.add(tuple(v))
        return out
    if family == "G":
        # roots of G2 in the sum-zero plane of R^3
        for i, j in itertools.permutations(range(3), 2):
            v = [0, 0, 0]
            v[i], v[j] = 1, -1
            out.add(tuple(v))
        for i in range(3):
            v = [-1, -1, -1]
            v[i] = 2
            out.add(tuple(v))
            out.add(tuple(-x for x in v))
        return out
    n = rank
    for i in range(n):
        for j in range(i + 1, n):
            for si, sj in itertools.product((1, -1), repeat=2):
                v = [0] * n
                v[i], v[j] = si, sj
                out.add(tuple(v))
    if family == "B":
        for i in range(n):
            for s in (1, -1):
                v = [0] * n
                v[i] = s
                out.add(tuple(v))
    elif family == "C":
        for i in range(n):
            for s in (2, -2):
                v = [0] * n
                v[i] = s
                out.add(tuple(v))
    elif family != "D":
        raise ValueError(family)
    return out


def bourbaki_simple_roots(family, rank):
    """Simple roots in the coordinates of euclid_full_roots; for E and F,
    which have no such model here, Bourbaki's (plates V-VIII) scaled by 2
    to integer coordinates. E6 and E7 are spanned by E8's first 6 and 7."""
    if family == "G":
        return [(1, -1, 0), (-2, 1, 1)]
    if family == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if family == "E":
        # 2 a_1 = e1 - e2 - ... - e7 + e8, 2 a_2 = 2(e1 + e2), and
        # 2 a_k = 2(e_(k-1) - e_(k-2)) for k >= 3
        out = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)]
        for k in range(3, rank + 1):
            v = [0] * 8
            v[k - 2], v[k - 3] = 2, -2
            out.append(tuple(v))
        return out
    n = rank + 1 if family == "A" else rank
    out = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        out.append(tuple(v))
    if family == "A":
        return out
    last = [0] * n
    if family == "B":
        last[-1] = 1
    elif family == "C":
        last[-1] = 2
    else:
        last[-2] = last[-1] = 1
    return out + [tuple(last)]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def euclidean_positive_roots(rs):
    """The package's positive roots, mapped into the Euclidean model."""
    simples = bourbaki_simple_roots(rs.dynkin_type.family, rs.rank)
    return [
        tuple(sum(c * a[k] for c, a in zip(coords, simples)) for k in range(len(simples[0])))
        for coords in rs.positive_root_coords
    ]


CLASSICAL = [("A", r) for r in range(1, 6)] + [
    ("B", r) for r in range(2, 6)
] + [("C", r) for r in range(2, 6)] + [("D", r) for r in range(4, 7)] + [("G", 2)]


@pytest.mark.parametrize("family,rank", CLASSICAL)
def test_root_sets_match_euclidean_model(family, rank):
    rs = build_root_system(DynkinType(family, rank))
    pos = euclidean_positive_roots(rs)
    got = set(pos) | {tuple(-x for x in v) for v in pos}
    assert len(got) == 2 * len(pos)
    assert got == euclid_full_roots(family, rank)
    simples = bourbaki_simple_roots(family, rank)
    assert rs.cartan_matrix == tuple(
        tuple(2 * dot(a, b) // dot(b, b) for b in simples) for a in simples
    )


def reflect(v, a):
    num = 2 * dot(v, a)
    den = dot(a, a)
    assert num % den == 0
    c = num // den
    return tuple(x - c * y for x, y in zip(v, a))


def weyl_order_bruteforce(rs):
    """Closure of the simple reflections acting on the positive roots."""
    identity = tuple(euclidean_positive_roots(rs))
    simples = bourbaki_simple_roots(rs.dynkin_type.family, rs.rank)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for a in simples:
                img = tuple(reflect(v, a) for v in elem)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)],
)
def test_weyl_order_by_generation(family, rank):
    rs = build_root_system(DynkinType(family, rank))
    assert weyl_order_bruteforce(rs) == rs.weyl_order


ALL_TYPES = [(f, r) for f, (lo, hi) in sorted(_RANK_RULES.items()) for r in range(lo, hi + 1)]


def plate_degrees(family, rank):
    """The fundamental degrees of Bourbaki's plates I-IX: closed forms for
    A-D, the listed values for E, F and G."""
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(sorted([*range(2, 2 * rank - 1, 2), rank]))
    return {
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
        ("F", 4): (2, 6, 8, 12),
        ("G", 2): (2, 6),
    }[family, rank]


#: the Weyl group orders of the plates, for the exceptional types
EXCEPTIONAL_WEYL_ORDERS = {("E", 6): 51_840, ("E", 7): 2_903_040, ("E", 8): 696_729_600,
                           ("F", 4): 1_152, ("G", 2): 12}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_degree_identities(family, rank):
    # the degrees are read off the root heights, the Weyl order and the
    # Coxeter number off the degrees: the plates are the oracle
    rs = build_root_system(DynkinType(family, rank))
    degs = rs.fundamental_degrees
    assert degs == plate_degrees(family, rank)
    if (family, rank) in EXCEPTIONAL_WEYL_ORDERS:
        assert rs.weyl_order == EXCEPTIONAL_WEYL_ORDERS[family, rank]
    assert len(degs) == rank
    assert sum(d - 1 for d in degs) == rs.num_positive_roots
    prod = 1
    for d in degs:
        prod *= d
    assert prod == rs.weyl_order
    assert max(degs) == rs.coxeter_number
    assert rs.coxeter_number * rank == 2 * rs.num_positive_roots


def test_dim_g_counts_roots_and_cartan():
    gl4 = build_root_system(parse_group("GL4"))
    assert gl4.dim_g == 16
    gsp4 = build_root_system(parse_group("GSp4"))
    assert gsp4.dim_g == 11
    so7 = build_root_system(parse_group("SO7"))
    assert so7.dim_g == 21


def test_cartan_matrix_shape():
    rs = build_root_system(DynkinType("F", 4))
    cm = rs.cartan_matrix
    assert all(cm[i][i] == 2 for i in range(4))
    assert all(cm[i][j] <= 0 for i in range(4) for j in range(4) if i != j)
    # one double bond in the middle of the F4 diagram: a bond's
    # multiplicity is the product of its two Cartan entries
    mults = sorted(cm[i][j] * cm[j][i] for i in range(4) for j in range(i + 1, 4) if cm[i][j])
    assert mults == [1, 1, 2]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_neighbors_join_simple_roots_that_are_not_orthogonal(family, rank):
    rs = build_root_system(DynkinType(family, rank))
    simples = bourbaki_simple_roots(family, rank)
    assert rs.cartan_matrix == tuple(
        tuple(2 * dot(a, b) // dot(b, b) for b in simples) for a in simples
    )
    for i, a in enumerate(simples):
        assert rs.neighbors(i) == tuple(j for j, b in enumerate(simples)
                                        if j != i and dot(a, b) != 0)


# Bourbaki plates V-VIII, pinned entry by entry
EXCEPTIONAL_CARTAN = {
    ("E", 6): (
        (2, 0, -1, 0, 0, 0),
        (0, 2, 0, -1, 0, 0),
        (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, -1, 2),
    ),
    ("E", 7): (
        (2, 0, -1, 0, 0, 0, 0),
        (0, 2, 0, -1, 0, 0, 0),
        (-1, 0, 2, -1, 0, 0, 0),
        (0, -1, -1, 2, -1, 0, 0),
        (0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, -1, 2),
    ),
    ("E", 8): (
        (2, 0, -1, 0, 0, 0, 0, 0),
        (0, 2, 0, -1, 0, 0, 0, 0),
        (-1, 0, 2, -1, 0, 0, 0, 0),
        (0, -1, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, 0),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, 0, -1, 2),
    ),
    ("F", 4): (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    ),
}


@pytest.mark.parametrize("family,rank", sorted(EXCEPTIONAL_CARTAN))
def test_exceptional_cartan_matrices_pinned(family, rank):
    rs = build_root_system(DynkinType(family, rank))
    assert rs.cartan_matrix == EXCEPTIONAL_CARTAN[family, rank]


def test_levi_factor_typing_in_e8():
    rs = build_root_system(DynkinType("E", 8))
    levi = levi_factors(rs, {1, 2, 3, 4, 6, 7})
    named = [(t.name, emb) for t, emb in levi.factors]
    assert named == [("D4", (4, 3, 1, 2)), ("A2", (6, 7))]


def test_levi_factor_typing_classical():
    b3 = build_root_system(DynkinType("B", 3))
    assert [t.name for t, _ in levi_factors(b3, {1, 2}).factors] == ["C2"]
    assert [t.name for t, _ in levi_factors(b3, {0}).factors] == ["A1"]
    c3 = build_root_system(DynkinType("C", 3))
    assert [t.name for t, _ in levi_factors(c3, {1, 2}).factors] == ["C2"]
    a4 = build_root_system(DynkinType("A", 4))
    assert [t.name for t, _ in levi_factors(a4, {0, 1, 3}).factors] == ["A2", "A1"]
    assert levi_factors(a4, set()).factors == ()


#: SHA-256 of the typing of every nonempty subset of simple roots of every
#: ambient type, serialized as ``_levi_typing_lines`` spells out
LEVI_TYPING_SHA256 = "d43e45d27056fdc78ab937a9c5b4efd280cca153ceeb8aef2fe44b4e08ed2d6f"


def _levi_typing_lines():
    # one line per (ambient, subset): the ambient's name, the subset's
    # indices, then each factor as name:embedding, in levi_factors' order;
    # ambients by family and rank, subsets by their bit mask
    for family, (lo, hi) in sorted(_RANK_RULES.items()):
        for rank in range(lo, hi + 1):
            rs = build_root_system(DynkinType(family, rank))
            for mask in range(1, 2**rank):
                subset = [i for i in range(rank) if mask >> i & 1]
                factors = levi_factors(rs, subset).factors
                yield rs, subset, factors, "%s %s %s" % (
                    rs.dynkin_type.name,
                    ",".join(map(str, subset)),
                    " ".join("%s:%s" % (t.name, ",".join(map(str, emb))) for t, emb in factors),
                )


def test_levi_typing_of_every_subset_is_pinned():
    lines = []
    for rs, subset, factors, line in _levi_typing_lines():
        lines.append(line)
        # independent of the typing: the factors split the subset, and the
        # ambient roots supported on it are exactly the factors' roots
        assert sum(t.rank for t, _ in factors) == len(subset)
        assert sorted(i for _, emb in factors for i in emb) == subset
        supported = sum(1 for c in rs.positive_root_coords
                        if all(x == 0 or i in subset for i, x in enumerate(c)))
        assert supported == sum(build_root_system(t).num_positive_roots for t, _ in factors)
    assert len(lines) == 2465
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == LEVI_TYPING_SHA256


@pytest.mark.parametrize("family", sorted(_RANK_RULES))
def test_packed_columns_hold_the_root_coordinates(family):
    lo, hi = _RANK_RULES[family]
    for rank in range(lo, hi + 1):
        rs = build_root_system(DynkinType(family, rank))
        coords = rs.positive_root_coords
        assert len(rs.packed_columns) == rank
        for i, column in enumerate(rs.packed_columns):
            assert list(column.to_bytes(len(coords), "little")) == [c[i] for c in coords]
        assert rs.packed_columns is rs.packed_columns


def test_levi_subset_records_ambient():
    rs = build_root_system(DynkinType("D", 5))
    levi = levi_factors(rs, {0, 1, 2})
    assert levi.ambient is rs
    assert levi.subset == frozenset({0, 1, 2})


def test_parse_group_names():
    assert parse_group("GL3") == DynkinType("A", 2, central_torus=1)
    assert parse_group("SL2") == DynkinType("A", 1)
    assert parse_group("Sp6") == DynkinType("C", 3)
    assert parse_group("SO7") == DynkinType("B", 3)
    assert parse_group("SO8") == DynkinType("D", 4)
    assert parse_group("SO6") == DynkinType("D", 3)
    assert parse_group("GSp4") == DynkinType("C", 2, central_torus=1)
    assert parse_group("E7") == DynkinType("E", 7)
    assert parse_group("so5") == DynkinType("B", 2)


@pytest.mark.parametrize("rank", range(2, 9))
def test_parse_group_reads_every_symplectic_rank(rank):
    assert parse_group("Sp%d" % (2 * rank)) == DynkinType("C", rank)
    assert parse_group("sp%d" % (2 * rank)) == parse_group("C%d" % rank)


@pytest.mark.parametrize("bad", ["GL0", "Sp5", "E9", "H4", "widget"])
def test_parse_group_rejects(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


@pytest.mark.parametrize("name, reason", [
    ("GL1", "rank 0 out of range [1, 8] for family A"),
    ("sl10", "rank 9 out of range [1, 8] for family A"),
    ("SO4", "rank 2 out of range [3, 8] for family D"),
    ("So3", "rank 1 out of range [2, 8] for family B"),
    ("E9", "rank 9 out of range [6, 8] for family E"),
    ("G3", "rank 3 out of range [2, 2] for family G"),
    ("Sp2", "rank 1 out of range [2, 8] for family C"),
    ("Sp18", "rank 9 out of range [2, 8] for family C"),
])
def test_parse_group_names_the_group_whose_rank_is_out_of_range(name, reason):
    with pytest.raises(ValueError) as info:
        parse_group(name)
    assert str(info.value) == "group %r: %s" % (name, reason)
