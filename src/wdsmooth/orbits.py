"""Nilpotent orbits, weighted Dynkin diagrams and cocharacter gradings.

Classical orbits are partitions with the usual parity constraints
(orthogonal types: even parts with even multiplicity; symplectic: odd
parts with even multiplicity). Weighted diagrams come from sorting the
sl2 weight multiset of the partition. The distinguished diagrams of E6
and E7 are the only stored ones, kept below with their citation; the
tests check the computed D and F4 Levi diagrams against Carter's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Mapping, Sequence

from .rootsys import DynkinType, LeviSubset, RootSystem, build_root_system, levi_factors

__all__ = [
    "OrbitLabel",
    "WeightedDynkinDiagram",
    "UnsupportedTypeError",
    "classical_orbits",
    "is_distinguished",
    "is_very_even",
    "is_zero_orbit",
    "validate_orbit",
    "weighted_dynkin",
    "distinguished_table",
    "grading_dims",
    "check_distinguished_criterion",
    "exposed_roots",
    "exposed_root_sweep",
    "smooth_bound_r",
]


#: source citations for the diagram rows, keyed by table name; every
#: report's provenance block lists them. "E6" and "E7" cite _EXCEPTIONAL;
#: "D" and "F4-Levi" cite the rows the tests check the computed diagrams
#: against
PROVENANCE = {
    "D": "Carter, Finite Groups of Lie Type (1985), pp. 174-175",
    "E6": "Carter, Finite Groups of Lie Type (1985), p. 176",
    "E7": "Carter, Finite Groups of Lie Type (1985), p. 176",
    "F4-Levi": "Carter, Finite Groups of Lie Type (1985), pp. 174-175",
}

#: distinguished orbits of E6 and E7 in Carter's order, keyed by
#: DynkinType.name: orbit name -> labels on alpha_1..alpha_rank
_EXCEPTIONAL: dict[str, dict[str, tuple[int, ...]]] = {
    "E6": {
        "E6": (2, 2, 2, 2, 2, 2),
        "E6(a1)": (2, 2, 2, 0, 2, 2),
        "E6(a2)": (2, 0, 0, 2, 0, 2),
    },
    "E7": {
        "E7": (2, 2, 2, 2, 2, 2, 2),
        "E7(a1)": (2, 2, 2, 0, 2, 2, 2),
        "E7(a2)": (2, 2, 2, 0, 2, 0, 2),
        "E7(a3)": (2, 0, 0, 2, 0, 2, 2),
        "E7(a4)": (2, 0, 0, 2, 0, 0, 2),
        "E7(a5)": (0, 0, 0, 2, 0, 0, 2),
    },
}


class UnsupportedTypeError(ValueError):
    """Raised when no orbit data is available for the requested type."""


@dataclass(frozen=True)
class OrbitLabel:
    """A nilpotent orbit: a partition for classical types, or a stored
    name like "E7(a3)" for exceptional distinguished orbits. The name
    "0" denotes the zero orbit in any type."""

    parts: tuple[int, ...] | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if (self.parts is None) == (self.name is None):
            raise ValueError("orbit label needs exactly one of parts or name")
        if self.parts is not None:
            if not self.parts or any(p <= 0 for p in self.parts):
                raise ValueError("partition parts must be positive")
            if list(self.parts) != sorted(self.parts, reverse=True):
                raise ValueError("partition parts must be non-increasing")

    @staticmethod
    def partition(parts: Iterable[int]) -> "OrbitLabel":
        return OrbitLabel(parts=tuple(int(p) for p in parts))

    @staticmethod
    def named(name: str) -> "OrbitLabel":
        return OrbitLabel(name=str(name))

    @staticmethod
    def zero() -> "OrbitLabel":
        return OrbitLabel(name="0")

    def __str__(self) -> str:
        if self.name is not None:
            return self.name
        return ",".join(str(p) for p in self.parts)  # type: ignore[union-attr]


@dataclass(frozen=True)
class WeightedDynkinDiagram:
    """Labels on the simple roots of a system, in Bourbaki order."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        # ints only: a float 2.0 equals 2, but root levels are summed as ints
        if any(type(l) is not int or l not in (0, 1, 2) for l in self.labels):
            raise ValueError("weighted diagram labels must be ints in {0, 1, 2}")


def _orbit_size(t: DynkinType) -> int:
    """Size of the matrix realization the partitions refer to."""
    if t.family == "A":
        return t.rank + 1
    if t.family == "B":
        return 2 * t.rank + 1
    if t.family in ("C", "D"):
        return 2 * t.rank
    raise UnsupportedTypeError("partitions only label classical orbits")


def _partitions(n: int) -> list[tuple[int, ...]]:
    # descending lexicographic order, which refines dominance
    out: list[tuple[int, ...]] = []

    def rec(rem: int, mx: int, cur: list[int]) -> None:
        if rem == 0:
            out.append(tuple(cur))
            return
        for p in range(min(rem, mx), 0, -1):
            cur.append(p)
            rec(rem - p, p, cur)
            cur.pop()

    rec(n, n, [])
    return out


def _partition_ok(family: str, parts: tuple[int, ...]) -> bool:
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    if family == "A":
        return True
    if family in ("B", "D"):
        return all(m % 2 == 0 for p, m in mult.items() if p % 2 == 0)
    if family == "C":
        return all(m % 2 == 0 for p, m in mult.items() if p % 2 == 1)
    raise UnsupportedTypeError("partitions only label classical orbits")


def classical_orbits(rs: RootSystem) -> list[OrbitLabel]:
    """All nilpotent orbits of a classical type, in descending
    lexicographic (hence dominance-refining) order."""
    t = rs.dynkin_type
    n = _orbit_size(t)
    return [
        OrbitLabel.partition(p)
        for p in _partitions(n)
        if _partition_ok(t.family, p)
    ]


def is_very_even(rs: RootSystem, o: OrbitLabel) -> bool:
    """True for type D partitions with all parts even; such a partition
    carries two orbits, which this package flags but does not split."""
    return (
        rs.dynkin_type.family == "D"
        and o.parts is not None
        and all(p % 2 == 0 for p in o.parts)
    )


def is_zero_orbit(rs: RootSystem, o: OrbitLabel) -> bool:
    if o.name == "0":
        return True
    return o.parts is not None and set(o.parts) == {1}


def validate_orbit(rs: RootSystem, o: OrbitLabel) -> None:
    """Raise ValueError if the label does not name an orbit of rs."""
    t = rs.dynkin_type
    if o.name is not None:
        if o.name == "0":
            return
        if t.family == "E" and o.name in _exceptional_rows(t):
            return
        raise ValueError("unknown orbit name %r for %s" % (o.name, t.name))
    assert o.parts is not None
    n = _orbit_size(t)
    if sum(o.parts) != n:
        raise ValueError(
            "partition %s does not sum to %d as required for %s"
            % (o, n, t.name)
        )
    if not _partition_ok(t.family, o.parts):
        raise ValueError("partition %s violates the parity rule for %s" % (o, t.name))


def is_distinguished(rs: RootSystem, o: OrbitLabel) -> bool:
    """Distinguished test: type A only the full-Jordan-block orbit;
    orthogonal types need distinct odd parts; symplectic distinct even
    parts. Stored exceptional labels are all distinguished."""
    validate_orbit(rs, o)
    if is_zero_orbit(rs, o):
        return False
    if o.name is not None:
        return True
    parts = o.parts
    assert parts is not None
    family = rs.dynkin_type.family
    if family == "A":
        return len(parts) == 1
    if len(set(parts)) != len(parts):
        return False
    if family in ("B", "D"):
        return all(p % 2 == 1 for p in parts)
    return all(p % 2 == 0 for p in parts)


def _sl2_weights(parts: Sequence[int]) -> list[int]:
    """The sl2 weights of a partition, block by block: part - 1, part - 3,
    ..., 1 - part for each part, unsorted."""
    return [w for part in parts for w in range(part - 1, -part, -2)]


def weighted_dynkin(rs: RootSystem, o: OrbitLabel) -> WeightedDynkinDiagram:
    """Weighted Dynkin diagram of an orbit.

    Classical types use the sl2 weight recipe: sort the weight multiset
    of the partition, keep the dominant half, and take consecutive
    differences along the chain (with the family's rule at the fork or
    the multiple bond). Stored exceptional rows are returned as is.
    """
    validate_orbit(rs, o)
    t = rs.dynkin_type
    if o.name == "0":
        return WeightedDynkinDiagram(labels=(0,) * t.rank)
    if o.name is not None:
        return WeightedDynkinDiagram(labels=_EXCEPTIONAL[t.name][o.name])
    parts = o.parts
    assert parts is not None
    weights = sorted(_sl2_weights(parts), reverse=True)
    n = t.rank
    if t.family == "A":
        h = weights
        labels = tuple(h[i] - h[i + 1] for i in range(n))
    else:
        h = weights[:n]
        if t.family == "B":
            labels = tuple([h[i] - h[i + 1] for i in range(n - 1)] + [h[n - 1]])
        elif t.family == "C":
            labels = tuple([h[i] - h[i + 1] for i in range(n - 1)] + [2 * h[n - 1]])
        else:
            labels = tuple(
                [h[i] - h[i + 1] for i in range(n - 2)]
                + [h[n - 2] - h[n - 1], h[n - 2] + h[n - 1]]
            )
    return WeightedDynkinDiagram(labels=labels)


def _exceptional_rows(t: DynkinType) -> dict[str, tuple[int, ...]]:
    if t.name in _EXCEPTIONAL:
        return _EXCEPTIONAL[t.name]
    raise UnsupportedTypeError(
        "no stored distinguished table for type %s" % (t.name,)
    )


def distinguished_table(t: DynkinType) -> list[tuple[OrbitLabel, WeightedDynkinDiagram]]:
    """Distinguished orbits with diagrams: computed for classical types,
    stored rows for E6 and E7. Raises UnsupportedTypeError otherwise."""
    if t.family in ("A", "B", "C", "D"):
        rs = build_root_system(t)
        return [
            (o, weighted_dynkin(rs, o))
            for o in classical_orbits(rs)
            if is_distinguished(rs, o)
        ]
    return [
        (OrbitLabel.named(name), WeightedDynkinDiagram(labels=labels))
        for name, labels in _exceptional_rows(t).items()
    ]


def _root_levels(rs: RootSystem, labels: Sequence[int]) -> bytes:
    """The level sum_i c_i labels[i] of every positive root, one byte per
    root in the order of ``positive_root_coords``, read off the packed
    columns as one weighted sum. No byte carries into the next: labels
    lie in {0, 1, 2} and root heights are at most 29 (E8's highest root)
    under the rank rules, so every level is at most 58 < 256."""
    return sum(map(mul, labels, rs.packed_columns)).to_bytes(rs.num_positive_roots, "little")


def grading_dims(rs: RootSystem, w: WeightedDynkinDiagram) -> dict[int, int]:
    """Eigenspace dimensions of the cocharacter grading on g: the weight
    i -> dim g(lambda, i), in increasing i, for the weights whose
    dimension is nonzero.

    A root gamma = sum c_i alpha_i sits in weight sum c_i w_i, and -gamma
    in its negative; the Cartan (of the full reductive rank) sits in
    weight 0. The positive roots' levels are read off the root system's
    packed columns at once and counted level by level.
    """
    if len(w.labels) != rs.rank:
        raise ValueError("diagram has %d labels, expected %d" % (len(w.labels), rs.rank))
    levels = _root_levels(rs, w.labels)
    up = {lv: levels.count(lv) for lv in sorted(set(levels))}
    dims = {-lv: up[lv] for lv in reversed(up) if lv}
    dims[0] = rs.reductive_rank + 2 * up.pop(0, 0)
    dims.update(up)
    return dims


def _levi_root_levels(levi: LeviSubset, w_by_index: Mapping[int, int]) -> bytes:
    """Grading levels of the positive roots supported on the subset, one
    byte per root in the order of ``positive_root_coords``. A root's
    coordinates off the subset sum to 0 exactly when it is supported on
    the subset, so both readings come off the packed columns."""
    rs = levi.ambient
    levels = _root_levels(rs, [w_by_index.get(i, 0) for i in range(rs.rank)])
    outside = _root_levels(rs, [0 if i in levi.subset else 1 for i in range(rs.rank)])
    return bytes([lv for lv, off in zip(levels, outside) if not off])


def check_distinguished_criterion(
    levi: LeviSubset, w_by_index: Mapping[int, int]
) -> bool:
    """Dimension test for a distinguished diagram on a Levi subalgebra:
    dim l(0) equals dim l(2) plus the dimension of the Levi's center.

    Args:
        w_by_index: labels, ints in {0, 1, 2}, keyed by ambient
            simple-root index, covering exactly the subset.
    """
    rs = levi.ambient
    if set(w_by_index) != set(levi.subset):
        raise ValueError("labels must cover exactly the Levi subset")
    WeightedDynkinDiagram(tuple(w_by_index.values()))  # the labels' domain check
    levels = _levi_root_levels(levi, w_by_index)
    g0 = rs.reductive_rank + 2 * levels.count(0)
    g2 = levels.count(2)
    z_dim = rs.reductive_rank - len(levi.subset)
    return g0 == g2 + z_dim


def exposed_roots(levi: LeviSubset) -> frozenset[int]:
    """Simple roots of the Levi adjacent to an excluded simple root."""
    rs = levi.ambient
    out = set()
    for i in levi.subset:
        if any(j not in levi.subset for j in rs.neighbors(i)):
            out.add(i)
    return frozenset(out)


def exposed_root_sweep(ambients: Iterable[RootSystem]) -> list[tuple[str, tuple[int, ...], str, str]]:
    """Check label 2 on exposed roots across all proper Levi subsets.

    For every nonempty subset of simple roots of each ambient system and
    every distinguished diagram of every factor (from the computed or
    stored tables), record a violation tuple whenever an exposed root
    carries a label other than 2. Factors without available tables are
    only skipped when they contain no exposed root.

    Returns:
        list of (ambient name, subset, factor name, orbit label) for
        each violation; empty when the exposure property holds.
    """
    violations = []
    for rs in ambients:
        n = rs.rank
        for mask in range(1, 2**n):
            subset = frozenset(i for i in range(n) if mask >> i & 1)
            levi = levi_factors(rs, subset)
            exposed = exposed_roots(levi)
            if not exposed:
                continue
            for dt, emb in levi.factors:
                if not exposed.intersection(emb):
                    continue
                table = distinguished_table(dt)
                for orbit, diag in table:
                    for k, ambient_index in enumerate(emb):
                        if ambient_index in exposed and diag.labels[k] != 2:
                            violations.append(
                                (
                                    rs.dynkin_type.name,
                                    tuple(sorted(subset)),
                                    dt.name,
                                    str(orbit),
                                )
                            )
    return violations


def smooth_bound_r(gd: Mapping[int, int]) -> int:
    """Sharpened order bound from a grading as ``grading_dims`` gives it:
    one more than the top nonzero even level, halved. Equals the Coxeter
    number exactly for the regular orbit."""
    top = max((i for i in gd if i > 0 and i % 2 == 0), default=0)
    return 1 + top // 2
