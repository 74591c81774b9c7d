"""Smoothness verdicts for the irreducible components of the pair variety.

A component is indexed by a nilpotent orbit. The zero orbit gives a copy
of the group itself; distinguished orbits give smooth components when
the order of q in the coefficient field is large enough; any other
nonzero orbit gives a singular component. When the order condition on q
fails and no sharpened bound applies, the verdict is NotCovered rather
than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .arith import QContext, order_capped
from .orbits import (
    OrbitLabel,
    grading_dims,
    is_distinguished,
    is_zero_orbit,
    smooth_bound_r,
    validate_orbit,
    weighted_dynkin,
)
from .rootsys import RootSystem

__all__ = ["SmoothnessVerdict", "classify_component", "classify_product",
           "SMOOTH", "SINGULAR", "NOT_COVERED"]

SMOOTH = "Smooth"
SINGULAR = "Singular"
NOT_COVERED = "NotCovered"


@dataclass(frozen=True)
class SmoothnessVerdict:
    """Classification outcome for one component (or a product).

    sharpened_order_bound is the least r with the component smooth
    whenever 1, q, ..., q^r stay distinct; it is only set for zero and
    distinguished orbits. component_count is only set where the count
    is actually known (type A components and the zero orbit).
    """

    status: str
    orbit: OrbitLabel | tuple[OrbitLabel, ...]
    reasons: tuple[str, ...]
    component_count: int | None = None
    sharpened_order_bound: int | None = None
    considerate_checked: bool = False


def classify_component(
    rs: RootSystem, o: OrbitLabel, ctx: QContext
) -> SmoothnessVerdict:
    """Classify the component indexed by one nilpotent orbit.

    Returns:
        SmoothnessVerdict with status Smooth, Singular or NotCovered.
    """
    validate_orbit(rs, o)
    h = rs.coxeter_number
    ord_k = None if ctx.l == 0 else order_capped(ctx.q, ctx.l, h)
    zero = is_zero_orbit(rs, o)
    r = None
    if zero or is_distinguished(rs, o):
        r = smooth_bound_r(grading_dims(rs, weighted_dynkin(rs, o)))
        kind = "zero orbit" if zero else "distinguished orbit"
    if ord_k is not None and (r is None or ord_k <= r):
        bound = ("h", h) if r is None else ("r", r)
        status = NOT_COVERED
        reasons = ("q^%d = 1 in the coefficient field with %d <= %s = %d"
                   % (ord_k, ord_k, *bound),)
    elif r is None:
        status, reasons = SINGULAR, ("nonzero non-distinguished orbit",)
    elif ord_k is None:
        status, reasons = SMOOTH, (kind,)
    else:
        # the full order condition fails, but 1, q, .., q^r distinct is
        # already enough for this component
        status = SMOOTH
        reasons = (kind, "weak-order-bound: ord(q)=%d exceeds r=%d" % (ord_k, r))
    return SmoothnessVerdict(
        status=status,
        orbit=o,
        reasons=reasons,
        component_count=None if status == NOT_COVERED else _known_count(rs, zero),
        sharpened_order_bound=r,
        considerate_checked=ord_k is None,
    )


def _known_count(rs: RootSystem, zero: bool) -> int | None:
    # type A components are irreducible; the zero-orbit component is a
    # copy of the (connected) group in any type
    if zero or rs.dynkin_type.family == "A":
        return 1
    return None


def classify_product(
    components: Sequence[tuple[RootSystem, OrbitLabel]], ctx: QContext
) -> SmoothnessVerdict:
    """Classify a product of components, one orbit per factor.

    Smooth exactly when every factor is smooth; NotCovered as soon as
    any factor is not covered; Singular otherwise. The empty product is
    a point, hence smooth.
    """
    verdicts = [classify_component(rs, o, ctx) for rs, o in components]
    statuses = {v.status for v in verdicts}
    status = next((s for s in (NOT_COVERED, SINGULAR) if s in statuses), SMOOTH)
    counts = [v.component_count for v in verdicts]
    reasons = tuple(
        "factor %d (%s): %s" % (i, v.status, "; ".join(v.reasons))
        for i, v in enumerate(verdicts)
    )
    return SmoothnessVerdict(
        status=status,
        orbit=tuple(o for _, o in components),
        reasons=reasons or ("empty product",),
        component_count=(
            None if status == NOT_COVERED or None in counts else prod(counts)
        ),
        considerate_checked=all(v.considerate_checked for v in verdicts),
    )
