"""Order conditions on q and finite group orders.

Two conditions drive the classification. q is "considerate" for Coxeter
number h when q^k - 1 is invertible for every k <= h, i.e. the
multiplicative order of q in the residue field exceeds h. A prime l is
"banal" for a group over F_q when l does not divide the group order,
which factors as q^{#positive roots} times prod(q^d - 1) over the
fundamental degrees (times q - 1 per central torus factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

from .rootsys import _RANK_RULES, DynkinType, RootSystem, build_root_system

__all__ = [
    "QContext",
    "is_prime",
    "multiplicative_order",
    "is_considerate",
    "chevalley_steinberg_order",
    "is_banal",
    "implication_sweep",
    "SweepReport",
]


def _check_int(name: str, value) -> None:
    """Raise ValueError unless value is a Python int: group orders of a
    float q are computed in floating point, and those of a numpy integer
    wrap at 2^63 without a warning."""
    if type(value) is not int:
        raise ValueError("%s must be an int, got %r" % (name, value))


def is_prime(n: int) -> bool:
    if not isinstance(n, Integral) or n < 2:  # 7.0 and 7.5 are not primes
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, q + 1):
        if p * p > q:
            return is_prime(q)
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return False


@dataclass(frozen=True)
class QContext:
    """Residue cardinality q and coefficient characteristic l.

    l = 0 means characteristic zero. Otherwise l must be a prime not
    dividing q, so q is a unit in the coefficient field.
    """

    q: int
    l: int = 0

    def __post_init__(self) -> None:
        _check_int("q", self.q)
        _check_int("l", self.l)
        if not _is_prime_power(self.q):
            raise ValueError("q must be a prime power >= 2, got %r" % (self.q,))
        if self.l != 0:
            if not is_prime(self.l):
                raise ValueError("l must be 0 or a prime, got %r" % (self.l,))
            if self.q % self.l == 0:
                raise ValueError("l must not divide q")


def multiplicative_order(q: int, l: int) -> int:
    """Order of q in (Z/l)^*, for l prime not dividing q."""
    _check_int("q", q)
    _check_int("l", l)
    if not is_prime(l):
        raise ValueError("l must be a prime, got %r" % (l,))
    if q % l == 0:
        raise ValueError("q must be a unit mod l")
    return order_capped(q, l, l - 1)  # Fermat: the order divides l - 1


def order_capped(q: int, l: int, cap: int) -> int | None:
    """Smallest k <= cap with q^k = 1 mod l, or None if there is none."""
    x = q % l
    power = 1
    for k in range(1, cap + 1):
        power = power * x % l
        if power == 1:
            return k
    return None


def is_considerate(ctx: QContext, h: int) -> bool:
    """True when 1, q, ..., q^h are pairwise distinct in the coefficient
    field, i.e. q^k - 1 is invertible for all 1 <= k <= h."""
    if h < 1:
        raise ValueError("Coxeter number must be positive")
    if ctx.l == 0:
        return True  # an integer q >= 2 is never a root of unity
    return order_capped(ctx.q, ctx.l, h) is None


def chevalley_steinberg_order(rs: RootSystem, q: int) -> int:
    """Order of the group of F_q points.

    q^{#positive roots} * prod over fundamental degrees d of (q^d - 1),
    with one extra factor (q - 1) per central torus dimension.
    """
    _check_int("q", q)
    if q < 2:
        raise ValueError("q must be at least 2")
    order = q ** rs.num_positive_roots
    for d in rs.fundamental_degrees:
        order *= q**d - 1
    order *= (q - 1) ** rs.dynkin_type.central_torus
    return order


def is_banal(l: int, rs: RootSystem, q: int) -> bool:
    """True when the prime l does not divide the group order over F_q. In
    characteristic l = 0, as for ``is_considerate``, it is always true."""
    _check_int("l", l)
    if l != 0 and not is_prime(l):
        raise ValueError("l must be 0 or a prime, got %r" % (l,))
    order = chevalley_steinberg_order(rs, q)  # which checks q, also at l = 0
    return l == 0 or order % l != 0


@dataclass
class SweepReport:
    """Result of the considerate/banal implication sweep."""

    checked: int = 0
    #: (type, l, q) triples where considerate held but banal failed
    violations: list[tuple[str, int, int]] = field(default_factory=list)
    #: type A triples where banal held but considerate failed
    type_a_violations: list[tuple[str, int, int]] = field(default_factory=list)
    #: (type, l, q, order) triples that are banal but not considerate
    banal_not_considerate: list[tuple[str, int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.type_a_violations


def implication_sweep(
    families: str | list[str],
    rank_max: int,
    l_max: int,
    q_max: int,
) -> SweepReport:
    """Sweep considerate => banal over semisimple types and prime pairs.

    Covers each family's rank window, capped at rank_max, all primes
    l <= l_max and prime powers q <= q_max with l not dividing q. For
    type A the converse banal => considerate is checked as well (the two
    notions agree there). Instances that are banal but not considerate
    are collected; they show the gap between the two notions, e.g. the
    symplectic C3 group at order-5 elements q mod l with Coxeter number 6.
    """
    fams = list(families) if not isinstance(families, str) else [
        f for f in families.replace(",", "").upper() if not f.isspace()
    ]
    types = []
    for f in fams:
        if f not in _RANK_RULES:
            raise ValueError("unknown family %r" % (f,))
        lo, hi = _RANK_RULES[f]
        types += [DynkinType(f, r) for r in range(lo, min(hi, rank_max) + 1)]
    primes = [l for l in range(2, l_max + 1) if is_prime(l)]
    qs = [q for q in range(2, q_max + 1) if _is_prime_power(q)]
    report = SweepReport()
    for t in types:
        rs = build_root_system(t)
        h = rs.coxeter_number
        for q in qs:
            for l in primes:
                if q % l == 0:
                    continue
                ctx = QContext(q=q, l=l)
                considerate = is_considerate(ctx, h)
                banal = is_banal(l, rs, q)
                report.checked += 1
                if considerate and not banal:
                    report.violations.append((t.name, l, q))
                if t.family == "A" and banal and not considerate:
                    report.type_a_violations.append((t.name, l, q))
                if banal and not considerate:
                    report.banal_not_considerate.append(
                        (t.name, l, q, multiplicative_order(q, l))
                    )
    if not report.checked:  # an empty grid would pass vacuously
        raise ValueError(
            "implication sweep has no (type, q, l) case: families %r, rank_max %d, "
            "l_max %d, q_max %d" % ("".join(fams), rank_max, l_max, q_max)
        )
    return report
