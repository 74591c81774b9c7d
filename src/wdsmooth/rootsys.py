"""Root systems, Dynkin diagrams and Weyl data for families A through G.

Each Cartan matrix is read off its Dynkin diagram in Bourbaki's
numbering (Lie Groups and Lie Algebras, ch. VI, plates I-IX). Positive
roots are generated by closing the simple roots under simple
reflections, and live in simple-root coordinates: each root is its
integer coefficient vector. Everything is exact integer arithmetic; the
Euclidean models of the root systems serve as independent oracles in
the tests. The Weyl invariants come from the Cartan matrix alone: the
fundamental degrees from the root heights (Kostant), the Weyl order and
the Coxeter number from the degrees. A Levi subdiagram is typed by
matching its induced Cartan matrix with the standard ones, so each
diagram is written down once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod

__all__ = [
    "DynkinType",
    "RootSystem",
    "LeviSubset",
    "build_root_system",
    "levi_factors",
    "parse_group",
]

# admissible rank window per family (classical families capped at rank 8)
_RANK_RULES = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (2, 8),
    "D": (3, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class DynkinType:
    """A Dynkin family with rank, plus the dimension of any extra
    central torus (1 for GL_n on top of A_{n-1}, 1 for GSp4 on top
    of C2, 0 for the semisimple groups)."""

    family: str
    rank: int
    central_torus: int = 0

    def __post_init__(self) -> None:
        if self.family not in _RANK_RULES:
            raise ValueError("unknown family %r" % (self.family,))
        lo, hi = _RANK_RULES[self.family]
        if not lo <= self.rank <= hi:
            raise ValueError(
                "rank %d out of range [%d, %d] for family %s"
                % (self.rank, lo, hi, self.family)
            )
        if self.central_torus not in (0, 1):
            raise ValueError("central torus dimension must be 0 or 1")
        if self.central_torus == 1 and (self.family, self.rank) not in _REDUCTIVE_OK:
            if self.family != "A":
                raise ValueError("central torus only supported for GL_n and GSp4")

    @property
    def name(self) -> str:
        if self.central_torus:
            if self.family == "A":
                return "GL%d" % (self.rank + 1)
            if (self.family, self.rank) == ("C", 2):
                return "GSp4"
        return "%s%d" % (self.family, self.rank)

    @property
    def reductive_rank(self) -> int:
        return self.rank + self.central_torus


_REDUCTIVE_OK = {("C", 2)}


@dataclass(frozen=True)
class LeviSubset:
    """A subset of simple roots with its typed connected factors.

    Each factor is (DynkinType, embedding) where embedding[k] is the
    ambient index of the factor's k-th simple root in Bourbaki order.
    """

    ambient: "RootSystem"
    subset: frozenset[int]
    factors: tuple[tuple[DynkinType, tuple[int, ...]], ...]


@dataclass(frozen=True)
class RootSystem:
    dynkin_type: DynkinType
    positive_root_coords: tuple[tuple[int, ...], ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    fundamental_degrees: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.dynkin_type.rank

    @property
    def reductive_rank(self) -> int:
        return self.dynkin_type.reductive_rank

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_root_coords)

    @property
    def dim_g(self) -> int:
        """Dimension of the reductive Lie algebra: roots plus Cartan."""
        return 2 * len(self.positive_root_coords) + self.reductive_rank

    @functools.cached_property
    def packed_columns(self) -> tuple[int, ...]:
        """Column i of ``positive_root_coords`` packed into one int, one
        byte per root: byte k (little-endian) is the i-th coordinate of
        the k-th positive root. A weighted sum of the columns carries
        every root's level sum_i c_i w_i in its own byte, as long as no
        level reaches 256."""
        coords = self.positive_root_coords
        return tuple(int.from_bytes(bytes([c[i] for c in coords]), "little")
                     for i in range(self.rank))

    @property
    def weyl_order(self) -> int:
        """The product of the fundamental degrees."""
        return prod(self.fundamental_degrees)

    @property
    def coxeter_number(self) -> int:
        """The largest fundamental degree; the degrees ascend."""
        return self.fundamental_degrees[-1]

    def neighbors(self, i: int) -> tuple[int, ...]:
        """The simple roots joined to a_i in the Dynkin diagram."""
        return tuple(j for j, a in enumerate(self.cartan_matrix[i]) if a and j != i)


def _cartan(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix A[i][j] = 2(a_i, a_j)/(a_j, a_j) read off the diagram.

    Bonds follow Bourbaki's numbering: a chain (i, i+1), with D forking
    at its far end and E branching at a_4. The one multiple bond of B,
    C, F and G puts -m at [long][short].
    """
    bonds = [(i, i + 1) for i in range(rank - 1)]
    if family == "D":
        bonds[-1] = (rank - 3, rank - 1)
    elif family == "E":
        bonds = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, rank - 1)]
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in bonds:
        cartan[i][j] = cartan[j][i] = -1
    multiple = {
        "B": (rank - 2, rank - 1, 2),
        "C": (rank - 1, rank - 2, 2),
        "F": (1, 2, 2),
        "G": (1, 0, 3),
    }
    if family in multiple:
        long, short, m = multiple[family]
        cartan[long][short] = -m
    return cartan


def _generate_roots(cartan: list[list[int]], rank: int) -> list[tuple[int, ...]]:
    # close the simple roots under all simple reflections, in
    # simple-root coordinates: s_j(c)_j = c_j - sum_i c_i A[i][j]
    seen: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = []
    for i in range(rank):
        v = tuple(1 if j == i else 0 for j in range(rank))
        seen.add(v)
        frontier.append(v)
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for c in frontier:
            for j in range(rank):
                pairing = sum(c[i] * cartan[i][j] for i in range(rank))
                img = list(c)
                img[j] -= pairing
                t = tuple(img)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    pos = [c for c in seen if all(x >= 0 for x in c)]
    pos.sort(key=lambda c: (sum(c), c))
    return pos


_CACHE: dict[DynkinType, RootSystem] = {}


def build_root_system(t: DynkinType) -> RootSystem:
    """Construct the full root datum for a Dynkin type.

    The fundamental degrees are the exponents plus one, read off the
    root heights: with c_k positive roots of height k, the exponent k
    occurs c_k - c_(k+1) times (Kostant; Humphreys, Reflection Groups
    and Coxeter Groups, 3.20).
    """
    if t in _CACHE:
        return _CACHE[t]
    cartan = _cartan(t.family, t.rank)
    coords = _generate_roots(cartan, t.rank)
    heights = [sum(c) for c in coords]
    count = [heights.count(k) for k in range(heights[-1] + 2)]
    degrees = [k + 1 for k in range(1, heights[-1] + 1) for _ in range(count[k] - count[k + 1])]
    rs = RootSystem(
        dynkin_type=t,
        positive_root_coords=tuple(coords),
        cartan_matrix=tuple(tuple(row) for row in cartan),
        fundamental_degrees=tuple(degrees),
    )
    _CACHE[t] = rs
    return rs


def _identify_component(rs: RootSystem, nodes: list[int]) -> tuple[DynkinType, tuple[int, ...]]:
    """Type a connected induced subdiagram and return its Bourbaki embedding.

    The candidate embeddings are a chain read from each end, smaller end
    first, or a branched diagram's arms, sorted by (length, first node),
    read as D (longest arm reversed, the branch node, the two short arms)
    and as E. The type is the first family, in the order A, C, B, D, E, F,
    G, whose standard Cartan matrix the induced one equals under some
    candidate; C comes before B, so a two-node double bond reads as C2.
    """
    cartan = rs.cartan_matrix
    adj = {v: [w for w in rs.neighbors(v) if w in nodes] for v in nodes}

    def walk(prev: int | None, cur: int) -> list[int]:
        out = [cur]
        while nxt := [w for w in adj[cur] if w != prev]:
            prev, cur = cur, nxt[0]
            out.append(cur)
        return out

    branch = [v for v in nodes if len(adj[v]) > 2]
    if branch:
        c = branch[0]
        short, mid, long = sorted((walk(c, w) for w in adj[c]), key=lambda a: (len(a), a[0]))
        # E reads a1 at the far end of the two-node arm, a2 the one-node
        # arm, a3 its near end, a4 the branch node, then a5, ... outwards
        candidates = [long[::-1] + [c] + short + mid, mid[1:] + short + mid[:1] + [c] + long]
    else:
        chain = walk(None, min(v for v in nodes if len(adj[v]) < 2))
        candidates = [chain, chain[::-1]]
    n = len(nodes)
    for family in "ACBDEFG":
        lo, hi = _RANK_RULES[family]
        if lo <= n <= hi:
            std = _cartan(family, n)
            for emb in candidates:
                if all(cartan[a][b] == std[k][l] for k, a in enumerate(emb)
                       for l, b in enumerate(emb)):
                    return DynkinType(family, n), tuple(emb)
    raise ValueError("subdiagram on %s is not a Dynkin diagram" % (nodes,))


def levi_factors(rs: RootSystem, subset) -> LeviSubset:
    """Split a subset of simple roots into typed connected factors.

    Each factor is typed by matching its induced Cartan submatrix with
    the standard one of its type, so its embedding carries the ambient
    Cartan entries onto the standard matrix entry for entry.
    """
    sub = frozenset(int(i) for i in subset)
    for i in sub:
        if not 0 <= i < rs.rank:
            raise ValueError("simple root index %d out of range" % i)
    remaining = set(sub)
    comps: list[list[int]] = []
    while remaining:
        start = min(remaining)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in rs.neighbors(v):
                if w in remaining and w not in comp:
                    comp.add(w)
                    frontier.append(w)
        remaining -= comp
        comps.append(sorted(comp))
    factors = [_identify_component(rs, comp) for comp in comps]
    factors.sort(key=lambda f: min(f[1]))
    return LeviSubset(ambient=rs, subset=sub, factors=tuple(factors))


_GROUP_ALIASES = {"GSP4": DynkinType("C", 2, central_torus=1)}


def parse_group(name: str) -> DynkinType:
    """Parse a group name like GL3, SL4, SO7, Sp6, GSp4, D5 or E7."""
    s = name.strip().upper()
    if s in _GROUP_ALIASES:
        return _GROUP_ALIASES[s]
    if s.startswith("GL") and s[2:].isdigit():
        args = ("A", int(s[2:]) - 1, 1)
    elif s.startswith("SL") and s[2:].isdigit():
        args = ("A", int(s[2:]) - 1)
    elif s.startswith("SO") and s[2:].isdigit():
        n = int(s[2:])
        args = ("B", (n - 1) // 2) if n % 2 == 1 else ("D", n // 2)
    elif s.startswith("SP") and s[2:].isdigit() and int(s[2:]) % 2 == 0:
        args = ("C", int(s[2:]) // 2)
    elif len(s) >= 2 and s[0] in _RANK_RULES and s[1:].isdigit():
        args = (s[0], int(s[1:]))
    else:
        raise ValueError("cannot parse group name %r" % (name,))
    try:
        return DynkinType(*args)
    except ValueError as exc:  # the rank is out of range: name the group typed
        raise ValueError("group %r: %s" % (name, exc)) from None
