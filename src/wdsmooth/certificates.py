"""Singularity certificates for components of the pair variety.

A component attached to a nonzero non-distinguished nilpotent orbit is
certified singular by exhibiting, at a carefully chosen point (phi0, 0),
more independent tangent directions than the component's dimension.
Every certified direction is the derivative of an explicit curve inside
the component, so the count is a true lower bound on the local tangent
space, not just on the tangent space of the ambient pair variety.

The curves come in four families:

* the conjugation orbit of (phi0, 0);
* central torus translations of phi0, for the Levi of the orbit and for
  its reflection through a marked simple root fixing phi0;
* a unipotent translation along a root vector commuting with the
  nilpotent representative;
* straight lines in the q-eigenspace of Ad(phi0) that degenerate from
  the orbit stratum.

The resulting count satisfies an exact bookkeeping identity

    lower = dim g + eps1 + eps2 + eps3 - eps0

whose correction terms measure how much each family exceeds its naive
size. lower > dim(component) certifies a singular point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import kernels
from .arith import order_capped
from .orbits import OrbitLabel, _sl2_weights
from .variety import (
    GroupSpec,
    _gsp4_base_point,
    _jordan_nilpotent,
    _unit_q,
    jordan_partition,
    tangent_dim,
)

__all__ = [
    "CertificateError",
    "BasePoint",
    "EpsilonCertificate",
    "build_phi0",
    "epsilon_certificate",
]


class CertificateError(ValueError):
    """Raised when no certificate base point exists for the input."""


@dataclass(frozen=True)
class BasePoint:
    """Base point data: phi0, the orbit representative e, the grading
    element, the Levi basis, and the marked-reflection matrix."""

    spec: GroupSpec
    orbit: OrbitLabel
    p: int
    q: int
    phi0: NDArray[np.int64]
    e_mat: NDArray[np.int64]
    marked: int | None
    grading: NDArray[np.int64]
    levi_basis: NDArray[np.int64]
    reflection: NDArray[np.int64] | None


#: GSp4 orbits with a certificate base point; (2, 1, 1) has none yet
_GSP4_CERTIFIED = ((4,), (2, 2))


def _transposition(n: int, i: int, j: int) -> NDArray[np.int64]:
    w = np.eye(n, dtype=np.int64)
    w[[i, j]] = w[[j, i]]
    return w


def build_phi0(spec: GroupSpec, orbit: OrbitLabel, q: int, p: int,
               marked: int | None = None) -> BasePoint:
    """Construct the certificate base point for an orbit.

    phi0 is diagonal with consecutive eigenvalue ratios q inside Jordan
    blocks and across unmarked block boundaries, and ratio 1 at the
    marked boundary (for GSp4, the stratum sampler's base point, which
    has those ratios up to a scalar). Requires the order of q mod p to
    exceed the Coxeter number, so distinct powers of q stay distinct.
    """
    if orbit.parts is None:
        raise CertificateError("certificates need a partition orbit label")
    try:
        q = _unit_q(q, p)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
    h = spec.n  # the Coxeter number: h(GL_n) = n, h(GSp4) = h(C2) = 4
    if order_capped(q, p, h) is not None:
        raise CertificateError(
            "order of q mod p must exceed %d to separate eigenvalue ratios" % h
        )
    parts = tuple(sorted(orbit.parts, reverse=True))
    if spec.form is not None and parts not in _GSP4_CERTIFIED:
        raise CertificateError(
            "no base point construction for GSp4 orbit %r" % (parts,)
        )
    if sum(parts) != spec.n:
        raise CertificateError("partition does not sum to the matrix size")
    n = spec.n
    boundaries = set(np.cumsum(parts[:-1]).tolist())
    if len(parts) == 1 and marked is not None:
        raise CertificateError("a single-block orbit has no boundary to mark")
    if len(parts) > 1:
        if marked is None:
            marked = parts[0]
        if marked not in boundaries:
            raise CertificateError(
                "marked position %d is not a block boundary %s" % (marked, sorted(boundaries))
            )
    if spec.form is not None:
        phi0, e = _gsp4_base_point(spec, parts, q, p)
    else:
        # with no marked boundary every step is q: exponents n - 1, ..., 0
        exps = [0] * n
        for i in range(n - 2, -1, -1):
            step = 0 if (i + 1) == marked else 1
            exps[i] = exps[i + 1] + step
        phi0 = np.diag(np.array([pow(q, a, p) for a in exps], dtype=np.int64))
        e = _jordan_nilpotent(parts)
    # every basis vector lies in one root space or in the Cartan, so the
    # Levi of the Jordan blocks is spanned by the basis vectors supported
    # inside the diagonal blocks
    block = np.repeat(np.arange(len(parts)), parts)
    outside = block[:, None] != block
    levi = spec.lie_basis[~spec.lie_basis[:, outside].any(axis=1)]
    reflection = None
    if marked is not None:
        reflection = _transposition(n, marked - 1, marked)
        if spec.form is not None:
            reflection[marked, marked - 1] = -1  # so that w preserves the form
    return BasePoint(
        spec=spec, orbit=OrbitLabel.partition(parts), p=p, q=q,
        phi0=phi0, e_mat=e, marked=marked,
        grading=np.diag(np.array(_sl2_weights(parts), dtype=np.int64)),
        levi_basis=levi, reflection=reflection,
    )


@dataclass(frozen=True)
class EpsilonCertificate:
    """Verified tangent-direction count at a base point (phi0, 0).

    phi_span_dim counts independent group-side directions (orbit,
    doubled central torus, unipotent translation), n_span_dim counts
    nilpotent-side directions; lower_bound is their sum. The eps
    corrections satisfy lower = dim g + eps1 + eps2 + eps3 - eps0.
    certifies_singular means every direction was verified to come from
    a curve inside the component and the count exceeds dim(component).
    """

    group: str
    orbit: OrbitLabel
    p: int
    q: int
    marked: int
    phi0: NDArray[np.int64]
    stab_dim: int
    levi_zero_dim: int
    levi_two_dim: int
    center_dim: int
    orbit_dim: int
    torus_span_dim: int
    n_span_dim: int
    eps0: int
    eps1: int
    eps2: int
    eps3: int
    phi_span_dim: int
    lower_bound: int
    component_dim: int
    ambient_tangent_dim: int
    verified_tangency: bool
    failed_checks: tuple[str, ...]

    @property
    def certifies_singular(self) -> bool:
        return self.verified_tangency and self.lower_bound > self.component_dim

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "orbit": str(self.orbit),
            "p": self.p,
            "q": self.q,
            "marked": self.marked,
            "phi0_diagonal": [int(x) for x in np.diag(self.phi0)],
            "stab_dim": self.stab_dim,
            "levi_zero_dim": self.levi_zero_dim,
            "levi_two_dim": self.levi_two_dim,
            "center_dim": self.center_dim,
            "orbit_dim": self.orbit_dim,
            "torus_span_dim": self.torus_span_dim,
            "n_span_dim": self.n_span_dim,
            "eps": [self.eps0, self.eps1, self.eps2, self.eps3],
            "phi_span_dim": self.phi_span_dim,
            "lower_bound": self.lower_bound,
            "component_dim": self.component_dim,
            "ambient_tangent_dim": self.ambient_tangent_dim,
            "verified_tangency": self.verified_tangency,
            "certifies_singular": self.certifies_singular,
            "failed_checks": list(self.failed_checks),
        }


def _span_dim(mats: NDArray[np.int64], p: int) -> int:
    if not len(mats):
        return 0
    return kernels.rank_mod(mats.reshape(len(mats), -1), p)


def _kernel_span(images: NDArray[np.int64], basis: NDArray[np.int64],
                 p: int) -> NDArray[np.int64]:
    """Basis of the kernel of a linear map on span(basis), as a stack of
    combinations of the basis; images[k] is the image of basis[k]."""
    k = len(basis)
    coeffs = kernels.nullspace_mod(images.reshape(k, -1).T, p)
    return (coeffs @ basis.reshape(k, -1) % p).reshape(-1, *basis.shape[1:])


def epsilon_certificate(spec: GroupSpec, orbit: OrbitLabel, q: int, p: int,
                        marked: int | None = None) -> EpsilonCertificate:
    """Build and verify the singularity certificate for a nonzero
    non-distinguished orbit, at the base point (phi0, 0)."""
    base = build_phi0(spec, orbit, q, p, marked=marked)
    if base.marked is None or base.reflection is None:
        raise CertificateError(
            "orbit %s is distinguished here; the certificate targets "
            "non-distinguished orbits" % orbit
        )
    q = base.q
    phi0 = base.phi0
    e = base.e_mat
    w = base.reflection
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    phi0_inv = kernels.inv_mod(phi0, p)

    def ad0(m: NDArray[np.int64]) -> NDArray[np.int64]:
        return (phi0 @ m % p) @ phi0_inv % p

    winv = kernels.inv_mod(w, p)

    def reflect(m: NDArray[np.int64]) -> NDArray[np.int64]:
        return (w @ m % p) @ winv % p

    e_alt = reflect(e)

    # -- structural conditions backing the curve arguments --
    check("phi0-in-group", spec.is_group_element(phi0, p))
    check("reflection-in-group", spec.is_group_element(w, p))
    check("base-stratum", np.array_equal(ad0(e), q * e % p))
    check("orbit-type", jordan_partition(e, p) == base.orbit.parts)
    check("reflection-fixes-phi0", np.array_equal(reflect(phi0), phi0))
    check("grading-acts-by-two",
          np.array_equal((base.grading @ e - e @ base.grading) % p, 2 * e % p))

    # stabilizer of phi0 inside the Lie algebra
    basis = spec.lie_basis % p
    stab_dim = len(_kernel_span((ad0(basis) - basis) % p, basis, p))
    back = ((phi0_inv @ basis % p) @ phi0 - basis) % p
    orbit_vecs = back[back.any(axis=(1, 2))]
    orbit_dim = _span_dim(orbit_vecs, p)
    check("orbit-rank", orbit_dim == spec.dim_g - stab_dim)

    # Levi grading pieces (weights 0 and 2 of ad(grading)) and center
    levi, h = base.levi_basis, base.grading
    graded = (h @ levi - levi @ h) % p
    levi_zero = _kernel_span(graded, levi, p)
    levi_two = _kernel_span((graded - 2 * levi) % p, levi, p)
    center = _kernel_span((levi[:, None] @ levi - levi @ levi[:, None]) % p, levi, p)
    levi_zero_dim = len(levi_zero)
    levi_two_dim = len(levi_two)
    center_dim = len(center)
    # the orbit must be distinguished inside its Levi for the count
    if levi_zero_dim != levi_two_dim + center_dim:
        raise CertificateError(
            "orbit representative is not distinguished in its Levi"
        )

    # doubled torus: center and its reflection
    torus_vecs = np.concatenate([center, reflect(center)])
    torus_span_dim = _span_dim(torus_vecs, p)
    for z in center:
        check("center-commutes", not ((z @ e - e @ z) % p).any())
    for z in torus_vecs:
        check("torus-fixed-by-phi0", np.array_equal(ad0(z), z))

    # unipotent direction: the lowering vector E_{m, m-1} at the marked
    # position m (for GSp4, m = 2 and E_21 is the root vector y_alpha)
    m = base.marked
    e_neg = np.zeros((spec.n, spec.n), dtype=np.int64)
    e_neg[m, m - 1] = 1
    check("lowering-commutes", not ((e_neg @ e - e @ e_neg) % p).any())
    check("lowering-weight-zero", np.array_equal(ad0(e_neg), e_neg))

    # nilpotent-side directions: Levi weight-2 piece and its reflection
    n_vecs = np.concatenate([levi_two, reflect(levi_two)])
    n_span_dim = _span_dim(n_vecs, p)
    for v in n_vecs:
        check("eigen-q", np.array_equal(ad0(v), q * v % p))
        check("in-lie-algebra", spec.in_lie_algebra(v, p))
        # v + s e (or its reflection) realizes the orbit for some unit s
        anchor = e if jordan_partition((v + e) % p, p) == base.orbit.parts else e_alt
        realized = any(
            jordan_partition((v + s * anchor) % p, p) == base.orbit.parts
            for s in range(1, min(p, 5))
        )
        check("degenerates-from-orbit", realized)

    phi_vecs = np.concatenate([orbit_vecs, torus_vecs, e_neg[None]])
    phi_span_dim = _span_dim(phi_vecs, p)
    check(
        "phi-direct-sum",
        phi_span_dim == orbit_dim + torus_span_dim + 1,
    )

    eps0 = stab_dim - levi_zero_dim
    eps1 = torus_span_dim - center_dim
    eps2 = n_span_dim - levi_two_dim
    eps3 = 1
    lower = phi_span_dim + n_span_dim
    check(
        "bookkeeping-identity",
        lower == spec.dim_g + eps1 + eps2 + eps3 - eps0,
    )

    zero = np.zeros((spec.n, spec.n), dtype=np.int64)
    ambient = tangent_dim(spec, phi0, zero, q, p)
    check("within-ambient-tangent", lower <= ambient)

    return EpsilonCertificate(
        group=spec.name,
        orbit=base.orbit,
        p=p,
        q=q,
        marked=base.marked,
        phi0=phi0,
        stab_dim=stab_dim,
        levi_zero_dim=levi_zero_dim,
        levi_two_dim=levi_two_dim,
        center_dim=center_dim,
        orbit_dim=orbit_dim,
        torus_span_dim=torus_span_dim,
        n_span_dim=n_span_dim,
        eps0=eps0,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        phi_span_dim=phi_span_dim,
        lower_bound=lower,
        component_dim=spec.dim_g,
        ambient_tangent_dim=ambient,
        verified_tangency=not failures,
        failed_checks=tuple(failures),
    )
