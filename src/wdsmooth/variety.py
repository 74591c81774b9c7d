"""Exact matrix models of the pair variety over a prime field.

Points are pairs (phi, N) with phi in the group, N nilpotent in its Lie
algebra, and Ad(phi) N = q N. A ``GroupSpec`` is a group's name, its Lie
algebra basis and the form it preserves up to a similitude. Supported
realizations: GL(n) for n <= 4, which preserves no form, and GSp4, whose
form is Omega = antidiag(1, 1, -1, -1): g^T Omega g = mu(g) Omega with
mu a unit. The membership tests read the form off the spec.

A set of B points is one int64 array of shape (B, 2, n, n) with entries
in [0, p): ``pts[:, 0]`` holds the phis and ``pts[:, 1]`` the Ns, which
is the stack form ``sg_member`` takes. ``enumerate_sg`` and
``stratum_sample`` return that array. ``tangent_dim`` takes one phi and
one N with q and p, like ``tangent_matrix``; ``exp_bridge_check`` takes
either one pair (a bool) or (B, n, n) stacks of phis and Ns (a bool
array), like ``sg_member``.

All computations are exact over F_p. A tangent dimension is the
nullity of the defining map's differential T. For GL1 and GL2 at
invertible phi, ``tangent_dim`` computes it in closed form from the
entries of phi and N, as Python ints: under the trace form, which is
nondegenerate on gl_n at every p, the cokernel of T is dual to
H^2 = {Z in z(N) : q phi Z = Z phi}, so the nullity is n^2 + dim H^2.
Elsewhere (GL3, GL4, GSp4 and a singular phi) it eliminates T, by
deterministic Gaussian elimination, with its columns reversed, M half
first, built in that order from two numpy products: vec(phi) times the
M half's map of residues, kept per (spec, p, q), and phi times the
brackets [X, N], kept per (spec, p, N). ``nullity_mod`` reduces it
once; each entry is a sum of at most n^2 <= 16 products of residues,
the bound ``kernels.P_MAX`` is derived from. ``tangent_matrix`` is that
build, reduced, for every group, and the closed form's oracle. The
bracket cache also records, once per N, whether every bracket vanishes
mod p (N = 0, or N central); there the X half is zero, and
``tangent_dim`` eliminates the M half alone and adds dim g, which is
exact, since zero columns add to the nullity and nothing to the rank.
That is every zero-orbit sample of GL3, GL4 and GSp4. The GL sampler
reads all its draws from one buffered stream of its generator; numpy's
bounded draws concatenate, so the samples are those of one generator
call per block.
Every linear system on gl_n comes from one builder of X -> a X - X b,
with no inverse: the nilpotency scan's witness search and the GL(3)
bundle fibres solve N -> phi N - q N phi, which is Ad(phi) - q times
the invertible phi and so has the same RREF and kernel, and the sampler
solves its negated Jordan system q J phi - phi J. The GL2 enumeration
solves no system: it lists the points stratum by nilpotent orbit, N = 0
with every phi, then each nonzero nilpotent N = g E12 g^-1 with the
conjugates by g of the closed-form fibre of phi E12 = q E12 phi. The
nilpotency scan and the GL(2) bundle check read the nullity of
N -> phi N - q N phi for every phi of their stack at once, in closed
form from its trace and determinant (``_gl2_nullities``), with no
elimination; the scan lists no solution, and builds the system of only
the phis its witness search examines. The three walks over GL(2, F_p)
(enumeration, nilpotency scan, GL(2) bundle check) stop at p = 13.

p must be a prime <= ``kernels.P_MAX``. Every entry point checks it
through ``kernels.as_field``, which reduces its matrices, or, when it
takes q, first through ``_unit_q``, which also rejects a q divisible
by p. q must be a Python int, like p; ``sg_member`` and
``exp_bridge_check`` check its type and reduce it as it is, since for
them a non-unit q is just one that fails. ``tangent_dim`` reads a GL1 or
GL2 point given as int64 (n, n) arrays with one ``tolist()`` each and
reduces the entries as Python ints, since such an array needs no check;
any other input goes through ``as_field``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import kernels
from .arith import _check_int
from .orbits import OrbitLabel

__all__ = [
    "GroupSpec",
    "RedundancyReport",
    "BundleReport",
    "OMEGA4",
    "sg_member",
    "tangent_matrix",
    "tangent_dim",
    "enumerate_sg",
    "stratum_sample",
    "nilpotency_redundancy_check",
    "exp_nilpotent",
    "log_unipotent",
    "exp_bridge_check",
    "bundle_count_check",
    "jordan_partition",
]

#: similitude form for GSp4
OMEGA4 = np.array(
    [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=np.int64,
)


def _gl_basis(n: int) -> NDArray[np.int64]:
    return np.eye(n * n, dtype=np.int64).reshape(n * n, n, n)


def _gsp4_basis() -> NDArray[np.int64]:
    # Chevalley-style basis: Cartan (3) with the similitude direction,
    # then positive root vectors by height, then their transposes.
    def m(entries):
        out = np.zeros((4, 4), dtype=np.int64)
        for i, j, v in entries:
            out[i, j] = v
        return out

    basis = [
        m([(0, 0, 1), (3, 3, -1)]),             # h_beta-ish
        m([(1, 1, 1), (2, 2, -1)]),
        m([(2, 2, 1), (3, 3, 1)]),              # similitude direction
        m([(0, 1, 1), (2, 3, -1)]),             # x_beta (short)
        m([(1, 2, 1)]),                          # x_alpha (long)
        m([(0, 2, 1), (1, 3, 1)]),              # x_{beta+alpha}
        m([(0, 3, 1)]),                          # x_{2beta+alpha}
        m([(1, 0, 1), (3, 2, -1)]),             # y_beta
        m([(2, 1, 1)]),                          # y_alpha
        m([(2, 0, 1), (3, 1, 1)]),              # y_{beta+alpha}
        m([(3, 0, 1)]),                          # y_{2beta+alpha}
    ]
    return np.stack(basis)


def _read_only(a: NDArray[np.int64]) -> NDArray[np.int64]:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A matrix group: its name, its Lie algebra basis and the form it
    preserves up to a similitude.

    lie_basis is a (dim_g, n, n) integer array whose rows span the Lie
    algebra, n being the matrix size. form is None for GL(n), which
    preserves no form, and Omega for GSp4, the group of g with
    g^T Omega g = mu Omega, mu a unit. The spec keeps read-only copies of
    the arrays it is given. Specs compare and hash by identity: ``gl(n)``
    and ``gsp4()`` return one spec per process.
    """

    name: str
    lie_basis: NDArray[np.int64]
    form: NDArray[np.int64] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lie_basis", _read_only(np.array(self.lie_basis)))
        if self.form is not None:
            object.__setattr__(self, "form", _read_only(np.array(self.form)))

    @staticmethod
    @functools.cache
    def gl(n: int) -> "GroupSpec":
        if not 1 <= n <= 4:
            raise ValueError("GL(n) realizations support n <= 4")
        return GroupSpec("GL%d" % n, _gl_basis(n))

    @staticmethod
    @functools.cache
    def gsp4() -> "GroupSpec":
        return GroupSpec("GSp4", _gsp4_basis(), OMEGA4)

    # cached, since every tangent matrix reads them a few times per point
    @functools.cached_property
    def n(self) -> int:
        return self.lie_basis.shape[1]

    @functools.cached_property
    def dim_g(self) -> int:
        return self.lie_basis.shape[0]

    def is_group_element(self, m, p: int):
        """Whether m is invertible (and a similitude for GSp4): a bool for
        one (n, n) matrix, a bool array for a (B, n, n) stack."""
        return _per_matrix(self.n, lambda mats: self._group_mask(mats, p),
                           kernels.as_field(m, p))

    def in_lie_algebra(self, x, p: int):
        """Whether x lies in the Lie algebra: a bool for one (n, n) matrix,
        a bool array for a (B, n, n) stack."""
        return _per_matrix(self.n, lambda mats: self._lie_mask(mats, p),
                           kernels.as_field(x, p))

    def _group_mask(self, mats: NDArray[np.int64], p: int) -> NDArray[np.bool_]:
        ok = kernels.batch_nullity_mod(mats, p) == 0
        if self.form is not None:
            # g^T Omega g must be a nonzero multiple mu of Omega, read off
            # the corner where Omega is 1
            omega = self.form % p
            s = (mats.transpose(0, 2, 1) @ omega % p) @ mats % p
            mu = s[:, 0, -1]
            ok &= (mu != 0) & (s == mu[:, None, None] * omega % p).all(axis=(1, 2))
        return ok

    def _lie_mask(self, mats: NDArray[np.int64], p: int) -> NDArray[np.bool_]:
        if self.form is None:
            return np.ones(len(mats), dtype=bool)
        # X^T Omega + Omega X must be a multiple c of Omega
        omega = self.form % p
        y = (mats.transpose(0, 2, 1) @ omega + omega @ mats) % p
        c = y[:, 0, -1]
        return (y == c[:, None, None] * omega % p).all(axis=(1, 2))


def _per_matrix(n: int, mask, *mats: NDArray[np.int64]):
    """Apply mask, a (B, n, n) stacks -> (B,) bools test, to arrays of one
    shape: a bool for (n, n) matrices, the bool array for (B, n, n)
    stacks. Arrays of any other or of unequal shapes are not members."""
    shape = mats[0].shape
    stacked = len(shape) == 3
    if (len(shape) not in (2, 3) or shape[-2:] != (n, n)
            or any(m.shape != shape for m in mats)):
        return np.zeros(shape[0], dtype=bool) if stacked else False
    out = mask(*(m.reshape(-1, n, n) for m in mats))
    return out if stacked else bool(out[0])


def _is_nilpotent(n_mat: NDArray[np.int64], p: int):
    """N^n == 0, for one (n, n) matrix or elementwise over a (B, n, n) stack."""
    power = n_mat % p
    for _ in range(n_mat.shape[-1] - 1):
        power = power @ n_mat % p
    return ~power.any(axis=(-2, -1))


def sg_member(spec: GroupSpec, phi, n_mat, q: int, p: int):
    """Exact membership test for the pair variety.

    Checks: phi invertible (and a similitude for GSp4), N in the Lie
    algebra and nilpotent, and phi N = q N phi (equivalent to the
    adjoint condition without forming an inverse). Takes one phi and one
    N and returns a bool, or (B, n, n) stacks of both and returns a bool
    array.
    """
    phi = kernels.as_field(phi, p)
    n_mat = kernels.as_field(n_mat, p)
    q = _reduce_q(q, p)

    def mask(phis, ns):
        return (spec._group_mask(phis, p) & spec._lie_mask(ns, p) & _is_nilpotent(ns, p)
                & (phis @ ns % p == q * (ns @ phis % p) % p).all(axis=(1, 2)))

    return _per_matrix(spec.n, mask, phi, n_mat)


def _reduce_q(q: int, p: int) -> int:
    """q reduced mod p; raises unless q is a Python int (3.0 would make
    float arrays, and 3.5 fail deep inside)."""
    _check_int("q", q)
    return q % p


def _unit_q(q: int, p: int) -> int:
    """q reduced mod p; raises unless p is a prime <= P_MAX and q an int
    that is a unit."""
    kernels._check_p(p)
    q = _reduce_q(q, p)
    if q == 0:
        raise ValueError("q must be a unit mod p")
    return q


#: the most samples one call may ask for: the GL sampler makes up to 500
#: attempts per sample and the GSp4 sampler draws every sample at once
_MAX_SAMPLES = 10_000


def _sample_count(count: int, seed: int) -> None:
    """Reject a sample count that is not an int in [1, _MAX_SAMPLES], and
    a seed that is not a non-negative int: numpy's generator rejects one
    without naming the seed, and the GL(2) bundle branch, which samples
    nothing, would ignore it."""
    _check_int("samples", count)
    _check_int("seed", seed)
    if count < 1:
        raise ValueError("samples must be positive")
    if count > _MAX_SAMPLES:
        raise ValueError("samples must be at most %d" % _MAX_SAMPLES)
    if seed < 0:
        raise ValueError("seed must be non-negative")


def _sylvester(a: NDArray[np.int64], b: NDArray[np.int64], p: int) -> NDArray[np.int64]:
    """The matrix of X -> a X - X b on gl_n in row-major vec coordinates,
    for (..., n, n) arrays a and b of residues: a (..., n^2, n^2) array.

    With a = phi and b = q phi it is N -> phi N - q N phi, which is
    (Ad(phi) - q) N right-multiplied by the invertible phi: the same
    kernel, and, as an invertible matrix times Ad(phi) - q, the same row
    space, so the same RREF, rank, pivots and canonical kernel basis,
    with no inverse formed.
    """
    n = a.shape[-1]
    eye = np.eye(n, dtype=np.int64)
    # entry ((i, j), (k, l)) is a[i, k] [j = l] - [i = k] b[l, j]
    out = (a[..., :, None, :, None] * eye[:, None, :]
           - eye[:, None, :, None] * np.swapaxes(b, -1, -2)[..., None, :, None, :])
    return out.reshape(a.shape[:-2] + (n * n, n * n)) % p


def _point_matrix(spec: GroupSpec, a, p: int, name: str) -> NDArray[np.int64]:
    """a reduced mod p; raises unless it is one (n, n) matrix of spec."""
    a = kernels.as_field(a, p)
    if a.shape != (spec.n, spec.n):
        raise ValueError("%s must have shape (%d, %d) for %s, got %s"
                         % (name, spec.n, spec.n, spec.name, a.shape))
    return a


# A few slots suffice: enumeration lists its points grouped by N, one q and
# one p per call, so one slot of each cache serves all of an N's points,
# and the sampler's distinct Ns miss at the cost of one lookup each.
@functools.lru_cache(maxsize=8)
def _m_map(spec: GroupSpec, p: int, q: int) -> NDArray[np.int64]:
    """The M half of the column-reversed tangent matrix as a map of phi:
    the (n^2, n^2 dim_g) residues A with vec(phi) @ A the half's row-major
    (n^2, dim_g) array, for q reduced mod p; read-only.

    Row (k, l), column (i, j, m) is [i = k] M_m[l, j] - q M_m[i, k] [l = j],
    M_m the m-th element of the reversed basis: the coefficient of
    phi[k, l] in entry (i, j) of phi M_m - q M_m phi.
    """
    n = spec.n
    basis = spec.lie_basis[::-1]
    eye = np.eye(n, dtype=np.int64)
    a = (np.einsum("ik,mlj->klijm", eye, basis)
         - q * np.einsum("mik,lj->klijm", basis, eye))
    return _read_only(a.reshape(n * n, -1) % p)


@functools.lru_cache(maxsize=8)
def _brackets(spec: GroupSpec, p: int, n_bytes: bytes) -> NDArray[np.int64] | None:
    """The brackets [X_m, N] over the reversed basis as one (n, n dim_g)
    array, entry (k, (j, m)) being [X_m, N][k, j], reduced mod p, for N the
    reduced (n, n) int64 matrix with bytes n_bytes; read-only. phi times
    it, read as (n^2, dim_g), is the X half of the column-reversed tangent
    matrix. None when every bracket vanishes mod p (N = 0, or N central),
    where that half is zero whatever phi is."""
    n = spec.n
    n_mat = np.frombuffer(n_bytes, dtype=np.int64).reshape(n, n)
    basis = spec.lie_basis[::-1]
    brackets = (basis @ n_mat - n_mat @ basis) % p  # (m, k, j)
    if not brackets.any():
        return None
    return _read_only(brackets.transpose(1, 2, 0).reshape(n, -1))


def _point_residues(spec: GroupSpec, a, p: int, name: str) -> list[int]:
    """The row-major residues mod p of one (n, n) matrix of spec, as Python
    ints; raises as ``_point_matrix`` does. An int64 array of that shape
    needs no check, so its ``tolist()`` is reduced as it is, with no numpy
    call; anything else goes through ``_point_matrix``."""
    if type(a) is np.ndarray and a.dtype is kernels._INT64 and a.shape == (spec.n, spec.n):
        return [x % p for row in a.tolist() for x in row]
    return _point_matrix(spec, a, p, name).ravel().tolist()


def _checked_point(spec: GroupSpec, phi, n_mat, q: int, p: int
                   ) -> tuple[NDArray[np.int64], NDArray[np.int64], int]:
    """(phi, N, q) reduced mod p; raises unless p is a prime <= P_MAX, q a
    unit and phi and N (n, n) matrices of spec."""
    q = _unit_q(q, p)
    return (_point_matrix(spec, phi, p, "phi"), _point_matrix(spec, n_mat, p, "N"), q)


def _reversed_halves(spec: GroupSpec, phi: NDArray[np.int64], n_mat: NDArray[np.int64],
                     q: int, p: int) -> tuple[NDArray[np.int64], NDArray[np.int64] | None]:
    """The two halves of the tangent matrix at (phi, N) with its columns
    reversed, for (phi, N, q) as ``_checked_point`` returns them, each
    (n^2, dim_g), C-contiguous and unreduced: the M half over the reversed
    basis, then the X half, which is None where every bracket [X_m, N]
    vanishes mod p and the half is zero.

    Every entry is congruent mod p to that of ``tangent_matrix`` and lies
    in [0, n^2 (p - 1)^2]: an entry of the M half is a sum of n^2 products
    of residues (vec(phi) @ A), one of the X half a sum of n (phi @ the
    brackets). n^2 <= 16 is the K of ``kernels.P_MAX``, so nothing
    overflows int64.
    """
    size = spec.n * spec.n
    m_half = (phi.reshape(size) @ _m_map(spec, p, q)).reshape(size, -1)
    brackets = _brackets(spec, p, n_mat.tobytes())
    return m_half, None if brackets is None else (phi @ brackets).reshape(size, -1)


def tangent_matrix(spec: GroupSpec, phi, n_mat, q: int, p: int) -> NDArray[np.int64]:
    """Differential of the defining equation at (phi, N).

    The equation is phi N = q N phi, the inverse-free form of
    Ad(phi) N = q N that ``sg_member`` checks. In the chart
    phi * exp(eps X), N + eps M with X, M running over the Lie algebra
    basis it differentiates to (X, M) -> phi([X, N] + M) - q M phi, which
    is the differential of the adjoint form right-multiplied by the
    invertible phi, so the kernel is the same. Returns the
    (n^2, 2 dim_g) matrix of that map, reduced mod p, with the X columns
    first and each half in basis order; the tangent space is its kernel.
    phi and N must be (n, n) matrices of spec, and q a unit mod p.

    It is the matrix ``tangent_dim`` eliminates with its columns
    reversed, reduced and read backwards, built in numpy for every group:
    two products, vec(phi) times the M half's map, kept per (spec, p, q),
    and phi times the brackets [X, N], kept per (spec, p, N), each a sum
    of at most n^2 <= 16 products of residues; where every bracket
    vanishes mod p the X columns are zero. Its nullity is the oracle of
    ``tangent_dim``'s closed form for GL1 and GL2.
    """
    m_half, x_half = _reversed_halves(spec, *_checked_point(spec, phi, n_mat, q, p), p)
    if x_half is None:
        x_half = np.zeros_like(m_half)
    return np.concatenate([m_half, x_half], axis=1)[:, ::-1] % p


def _small_h2(phi: list[int], n_mat: list[int], q: int, p: int) -> int | None:
    """dim H^2 = dim {Z in z(N) : q phi Z = Z phi} for GL1 and GL2, z(N)
    the centralizer of N in gl_n, from the row-major residues of phi and
    N and q reduced mod p, all Python ints; None when phi is singular.

    - N = c I, which every N of GL1 is: z(N) = gl_n. At phi = a I, H^2 is
      gl_n when q = 1 and 0 otherwise. Any other phi is cyclic, and so is
      q phi, so the Z with (q phi) Z = Z phi number
      deg gcd(chi_phi, chi_{q phi}), chi_phi = t^2 - tr t + det and
      chi_{q phi} = t^2 - q tr t + q^2 det: 2 when the two are equal,
      else 1 when their resultant vanishes, else 0.
    - N not scalar (GL2): z(N) = span{I, N}, and Z = x I + y N lies in
      H^2 when x (q - 1) phi + y w = 0, w = q phi N - N phi. At q = 1 that
      is 2 - [w != 0]. Otherwise (q - 1) phi != 0, and H^2 is a line when w
      is a multiple of phi, that is when w adj(phi) is scalar, and 0 when
      not.
    """
    if len(phi) == 1:
        return int(q == 1) if phi[0] else None
    a, b, c, d = phi
    det = (a * d - b * c) % p
    if not det:
        return None
    e, f, g, h = n_mat
    if f or g or e != h:
        w0 = q * (a * e + b * g) - e * a - f * c
        w1 = q * (a * f + b * h) - e * b - f * d
        w2 = q * (c * e + d * g) - g * a - h * c
        w3 = q * (c * f + d * h) - g * b - h * d
        if q == 1:
            return 1 if w0 % p or w1 % p or w2 % p or w3 % p else 2
        # w adj(phi) = [[d w0 - c w1, a w1 - b w0], [d w2 - c w3, a w3 - b w2]]
        return int(not (a * w1 - b * w0) % p and not (d * w2 - c * w3) % p
                   and not (d * w0 - c * w1 - a * w3 + b * w2) % p)
    if not (b or c) and a == d:
        return 4 if q == 1 else 0
    a1, a0, b1, b0 = -(a + d), det, -q * (a + d), q * q * det
    if not (a1 - b1) % p and not (a0 - b0) % p:
        return 2
    return int(not ((a0 - b0) ** 2 - (a1 - b1) * (a0 * b1 - a1 * b0)) % p)


def _gl2_nullities(phis: NDArray[np.int64], q: int, p: int) -> NDArray[np.int64]:
    """The nullity of N -> phi N - q N phi for each phi of a (B, 2, 2) stack
    of invertible residues, q reduced mod p, in closed form: the number of
    Z with (q phi) Z = Z phi, as in ``_small_h2`` at a scalar N. With
    tau = tr phi and delta = det phi it is 4 [q = 1] at a scalar phi and
    otherwise deg gcd(chi_phi, chi_{q phi}): 2 when the two are equal,
    (q - 1) tau = 0 and (1 - q^2) delta = 0, else 1 when their resultant
    ((1 - q^2) delta)^2 - (q - 1) tau q (q - 1) tau delta vanishes, else
    0. Each product is of two residues, reduced as it is formed."""
    a, b, c, d = phis.reshape(-1, 4).T
    tau = (a + d) % p
    delta = (a * d - b * c) % p
    # chi_phi - chi_{q phi} = dt t + dd, and cross = a0 b1 - a1 b0 for
    # chi_phi = t^2 + a1 t + a0 and chi_{q phi} = t^2 + b1 t + b0
    dt = (q - 1) * tau % p
    dd = (1 - q * q) % p * delta % p
    cross = q * (q - 1) % p * tau % p * delta % p
    resultant = (dd * dd - dt * cross) % p
    scalar = (b == 0) & (c == 0) & (a == d)
    return np.where(scalar, 4 * (q == 1),
                    np.where((dt == 0) & (dd == 0), 2, (resultant == 0).astype(np.int64)))


def tangent_dim(spec: GroupSpec, phi, n_mat, q: int, p: int) -> int:
    """Tangent space dimension at (phi, N), exactly.

    For GL1 and GL2 at invertible phi, in closed form, with no
    elimination: dim g + dim H^2 (``_small_h2``). The trace form is
    nondegenerate on gl_n at every p, and under it the cokernel of the
    tangent map T, (X, M) -> phi([X, N] + M) - q M phi, is dual to
    {Y : Y phi = q phi Y, [N, Y phi] = 0}, the Y orthogonal to its image,
    which Z = Y phi maps onto H^2. So T, with 2 dim g columns, has rank
    dim g - dim H^2.

    The GL1 and GL2 branch checks its input without a numpy call per
    matrix: after q and p (``_unit_q``), a phi or N that is an int64
    (n, n) array is read with one ``tolist()`` and its entries reduced
    as Python ints, and any other input goes through ``as_field`` and
    the shape check, which raise as they do for every group.

    Otherwise (n >= 3, GSp4, or a singular phi) the nullity of
    ``tangent_matrix`` with its columns reversed, so that the M half,
    M -> phi M - q M phi, comes first: a rank does not depend on the
    order of the columns, the elimination stops once every nonzero row
    has a pivot, and the M half holds most of the rank at the sampled
    points. The matrix is handed to ``nullity_mod`` unreduced, so it is
    reduced once. Where every bracket [X_m, N] vanishes mod p (N = 0, or
    any N central in the Lie algebra), which the per-N bracket cache
    records once per N, the X half is zero and only the M half is
    eliminated: dim_g zero columns add dim_g to the nullity and nothing
    to the rank, so its nullity plus dim_g is exactly the whole
    matrix's.
    """
    # gl_n is the only n^2-dimensional Lie algebra of n x n matrices
    if spec.n <= 2 and spec.dim_g == spec.n * spec.n:
        q = _unit_q(q, p)
        h2 = _small_h2(_point_residues(spec, phi, p, "phi"),
                       _point_residues(spec, n_mat, p, "N"), q, p)
        if h2 is not None:
            return spec.dim_g + h2
    phi, n_mat, q = _checked_point(spec, phi, n_mat, q, p)
    m_half, x_half = _reversed_halves(spec, phi, n_mat, q, p)
    if x_half is None:
        return kernels.nullity_mod(m_half, p) + spec.dim_g
    return kernels.nullity_mod(np.concatenate([m_half, x_half], axis=1), p)


def _all_invertible_2x2(p: int) -> NDArray[np.int64]:
    rng = np.arange(p, dtype=np.int64)
    a, b, c, d = np.meshgrid(rng, rng, rng, rng, indexing="ij")
    mats = np.stack(
        [a.reshape(-1), b.reshape(-1), c.reshape(-1), d.reshape(-1)], axis=1
    ).reshape(-1, 2, 2)
    dets = (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % p
    return mats[dets != 0]


def _gl2_walk(spec: GroupSpec, p: int, q: int, what: str
              ) -> tuple[int, NDArray[np.int64]]:
    """(q, phis) for a walk over GL(2, F_p), p <= 13: q reduced, and every
    invertible phi in lexicographic order. what names the walk in errors."""
    q = _unit_q(q, p)
    if spec.form is not None or spec.n != 2:
        raise ValueError("%s is only supported for GL(2)" % what)
    if p > 13:
        raise ValueError("%s is capped at p = 13" % what)
    return q, _all_invertible_2x2(p)


def _digits(d: int, p: int) -> NDArray[np.int64]:
    """The (p^d - 1, d) coefficients 1 .. p^d - 1 in base p, first digit
    least significant: on a canonical kernel basis (a 1 in each free
    column) they give its nonzero vectors, distinct, in a fixed order."""
    k = np.arange(1, p**d, dtype=np.int64)
    return k[:, None] // p ** np.arange(d, dtype=np.int64) % p


def enumerate_sg(spec: GroupSpec, p: int, q: int) -> NDArray[np.int64]:
    """Exhaustively enumerate the pair variety for GL(2), p <= 13.

    Stratum by nilpotent orbit, with no elimination. N = 0 pairs with
    every invertible phi. Every nonzero nilpotent N is g E12 g^-1 for
    some invertible g, and phi N = q N phi exactly when g^-1 phi g lies in
    F = {[[q d, b], [0, d]] : d != 0}, the solutions of phi E12 = q E12 phi;
    so N pairs with the p (p - 1) phis g F g^-1, whichever such g is taken.
    Returns the (B, 2, 2, 2) point array: the N = 0 points in
    lexicographic phi order, then the others by N in lexicographic order,
    and for each N its phis g [[q d, b], [0, d]] g^-1 in (d, b) order, g
    the first invertible matrix in lexicographic order with g E12 g^-1 = N.
    """
    q, gs = _gl2_walk(spec, p, q, "full enumeration")
    a, b, c, d = gs.reshape(-1, 4).T
    det_inv = kernels._inverse_mod((a * d - b * c) % p, p)
    # g E12 g^-1 = g E12 adj(g) / det g = [[-ac, a^2], [-c^2, ac]] / det g
    ns = np.stack([-a * c, a * a, -c * c, a * c], axis=1) % p * det_inv[:, None] % p
    _, first = np.unique(ns @ p ** np.arange(3, -1, -1), return_index=True)
    adj = np.stack([d, -b, -c, a], axis=1)[first]
    g_inv = (adj * det_inv[first, None] % p).reshape(-1, 1, 2, 2)
    d_f, b_f = np.divmod(np.arange(p, p * p), p)  # d = 1 .. p - 1, then b = 0 .. p - 1
    fibre = np.stack([q * d_f % p, b_f, np.zeros_like(d_f), d_f], axis=1).reshape(-1, 2, 2)
    phis = (gs[first, None] @ fibre % p) @ g_inv % p
    regular = np.stack([phis, np.broadcast_to(ns[first].reshape(-1, 1, 2, 2), phis.shape)],
                       axis=2)
    return np.concatenate([np.stack([gs, np.zeros_like(gs)], axis=1),
                           regular.reshape(-1, 2, 2, 2)])


def _jordan_nilpotent(parts: tuple[int, ...]) -> NDArray[np.int64]:
    n = sum(parts)
    out = np.zeros((n, n), dtype=np.int64)
    pos = 0
    for part in parts:
        for i in range(part - 1):
            out[pos + i, pos + i + 1] = 1
        pos += part
    return out


#: GSp4 base point per orbit: the exponents of q on phi's diagonal, and
#: the indices of the basis root vectors (x_beta = 3, x_alpha = 4) that
#: sum to N. For (4,) both simple-root ratios must equal q, and the
#: scalar shift to (3, 2, 1, 0) keeps the entries integral without a
#: square root of q; for (2, 1, 1) the long-root vector x_alpha = E_23
#: needs t2/t3 = q.
_GSP4_ORBITS = {
    (4,): ((3, 2, 1, 0), (3, 4)),
    (2, 2): ((1, 0, 0, -1), (3,)),
    (2, 1, 1): ((0, 1, 0, 1), (4,)),
    (1, 1, 1, 1): ((0, 0, 0, 0), ()),
}


def _gsp4_base_point(spec: GroupSpec, parts: tuple[int, ...], q: int, p: int
                     ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """(phi, N) with Ad(phi) N = q N and N in the GSp4 orbit of parts,
    for a unit q reduced mod p."""
    if parts not in _GSP4_ORBITS:
        raise ValueError("unsupported GSp4 orbit %r" % (parts,))
    exps, roots = _GSP4_ORBITS[parts]
    phi = np.diag(np.array([pow(q, a, p) for a in exps], dtype=np.int64))
    return phi, spec.lie_basis[list(roots)].sum(axis=0) % p


@functools.lru_cache(maxsize=128)
def _jordan_system(parts: tuple[int, ...], q: int, p: int
                   ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """The Jordan nilpotent J of a partition and the canonical kernel basis
    of phi J = q J phi, a linear system on vec(phi), as read-only arrays:
    one elimination serves every sampler call on one (orbit, q, p)."""
    jordan = _jordan_nilpotent(parts)
    # q J phi - phi J, the system negated: the same RREF and basis
    basis = kernels.nullspace_mod(_sylvester(q * jordan, jordan, p), p)
    jordan.flags.writeable = False
    basis.flags.writeable = False
    return jordan, basis


def _random_gl(draw, n: int, p: int) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """A uniform random g in GL(n, F_p) and its inverse: reads g's n^2
    entries, row by row, from draw(n^2), a callable returning that many
    draws from [0, p), until one inverts, one elimination per try."""
    while True:
        g = draw(n * n).reshape(n, n)
        try:
            return g, kernels.inv_mod(g, p)
        except ValueError:  # singular draw
            continue


def _draw_blocks(rng: np.random.Generator, p: int, size: int):
    """take(k), the next k draws from [0, p) of rng, as a view.

    The draws come from one buffer of ``rng.integers(0, p, size=size)``,
    refilled from rng when a block would run past its end; the entries
    left unread open the new buffer. numpy's bounded draws from one
    generator concatenate, k calls drawing as much as one call of their
    total size, so the blocks equal those of one
    ``rng.integers(0, p, size=k)`` call per block.
    """
    buf = np.empty(0, dtype=np.int64)
    pos = 0

    def take(k: int) -> NDArray[np.int64]:
        nonlocal buf, pos
        if pos + k > len(buf):
            buf = np.concatenate([buf[pos:], rng.integers(0, p, size=max(size, k))])
            pos = 0
        pos += k
        return buf[pos - k:pos]

    return take


def _random_gsp4_stack(rng: np.random.Generator, spec: GroupSpec, p: int, count: int
                       ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """count random GSp4 elements and their inverses, as two (count, 4, 4)
    stacks: the torus element diag(t1, t2, mu / t2, mu / t1), of multiplier
    mu, times (I + c x) for every root vector x of the basis.

    The draws are one (count, 11) call. numpy draws with array bounds one
    entry at a time in row order, so the generator's stream is that of 11
    scalar draws per element, (t1, t2, mu) first, and the elements do not
    depend on how many are drawn at once.
    """
    # (t1, t2, mu) from [1, p), then the 8 root coefficients from [0, p)
    draws = rng.integers((1, 1, 1) + (0,) * 8, p, size=(count, 11))
    t1, t2, mu = draws[:, :3].T
    torus = np.stack([t1, t2, mu * kernels._inverse_mod(t2, p) % p,
                      mu * kernels._inverse_mod(t1, p) % p], axis=1)
    eye = np.eye(4, dtype=np.int64)
    g = torus[:, :, None] * eye
    for k, c in zip(range(3, 11), draws[:, 3:].T):  # all root vectors in the basis
        g = g @ ((eye + c[:, None, None] * spec.lie_basis[k]) % p) % p
    return g, _similitude_inverse(g, mu, spec.form, p)


def _similitude_inverse(g, mu, omega: NDArray[np.int64], p: int) -> NDArray[np.int64]:
    """Inverse of a similitude g of the form omega, g^T omega g = mu omega,
    for one (n, n) matrix and its multiplier or a (B, n, n) stack and B
    multipliers: g^-1 = mu^-1 omega^-1 g^T omega, with no elimination.
    omega is a signed permutation matrix, so omega^-1 = omega^T."""
    omega = omega % p
    adjoint = (omega.T @ np.swapaxes(g, -1, -2) % p) @ omega % p
    return adjoint * kernels._inverse_mod(np.asarray(mu), p)[..., None, None] % p


def stratum_sample(
    spec: GroupSpec,
    p: int,
    q: int,
    orbit: OrbitLabel,
    count: int,
    seed: int = 0,
) -> NDArray[np.int64]:
    """Sample points (phi, N) with N in a fixed nilpotent orbit.

    GL(n): conjugate the Jordan form J by random invertible matrices g
    and sample invertible solutions phi of phi N = q N phi, N = g J g^-1.
    The system phi J = q J phi is solved once per (orbit, q, p) and the
    solution kept; its kernel basis, conjugated by g in one product with
    J, spans the solutions for N, and its RREF with the columns reversed
    is the canonical kernel basis that ``nullspace_mod`` of N's own
    system would give, so the samples do not depend on which of the two
    is eliminated. At N = 0 a draw of g is kept on its rank and not
    inverted. Every entry of g and every try's coefficients are read in
    turn from one stream of ``rng.integers(0, p)`` draws, buffered
    count (n^2 + d) at a time for d solutions and refilled as needed;
    numpy's bounded draws from one generator concatenate, so the samples
    equal those of one generator call per matrix and per try. GSp4:
    conjugate a base point by random group elements built from torus and
    root elements, all count of them built, inverted and applied as one
    stack. The generator is seeded, so samples are deterministic. Returns the
    (B, 2, n, n) point array, B <= count: a GL(n) sampler that finds no
    invertible solution in its attempts returns fewer points.
    """
    q = _unit_q(q, p)
    _sample_count(count, seed)
    if orbit.parts is None:
        raise ValueError("stratum sampling needs a partition orbit label")
    rng = np.random.default_rng(seed)
    if spec.form is not None:
        base = np.stack(_gsp4_base_point(spec, orbit.parts, q, p))
        g, ginv = _random_gsp4_stack(rng, spec, p, count)
        return (g[:, None] @ base % p) @ ginv[:, None] % p
    if sum(orbit.parts) != spec.n:
        raise ValueError("partition does not sum to the matrix size")
    n = spec.n
    jordan, jordan_basis = _jordan_system(tuple(orbit.parts), q, p)
    d = jordan_basis.shape[0]
    # J and the solutions for J, conjugated together by each g
    stack = np.concatenate([jordan[None], jordan_basis.reshape(d, n, n)])
    take = _draw_blocks(rng, p, count * (n * n + d))
    points = []
    attempts = 0
    while d and len(points) < count and attempts < 500 * count:
        attempts += 1
        if d == n * n:
            # N = J = 0: every phi solves, the identity is the basis, and
            # g conjugates only zeros, so a draw is kept on its rank and
            # never inverted
            while kernels.rank_mod(take(n * n).reshape(n, n), p) < n:
                continue
            n_mat, basis = jordan, jordan_basis
        else:
            g, ginv = _random_gl(take, n, p)
            conj = (g @ stack % p) @ ginv % p
            n_mat = conj[0]
            # the solutions for N = g J g^-1 are g X g^-1; the canonical
            # kernel basis is their RREF with the columns reversed
            basis = kernels.rref_mod(conj[1:].reshape(d, n * n)[:, ::-1], p)[0][::-1, ::-1]
        for _ in range(40):
            phi = (take(d) @ basis % p).reshape(n, n)
            if kernels.rank_mod(phi, p) == n:
                points.append((phi, n_mat))
                break
    return np.array(points, dtype=np.int64).reshape(-1, 2, n, n)


@dataclass(frozen=True)
class RedundancyReport:
    """Outcome of scanning every phi for non-nilpotent solutions N of
    Ad(phi) N = q N. With q of large order there are none, so imposing
    nilpotency on N is redundant; with small order a witness appears:
    the first phi in lexicographic order with a non-nilpotent N, and its
    first such N when the nonzero solutions are listed by their
    coordinates in the canonical kernel basis, read as base-p numbers
    with the first coordinate least significant."""

    p: int
    q: int
    pairs_checked: int
    non_nilpotent_count: int
    witness_phi: NDArray[np.int64] | None
    witness_n: NDArray[np.int64] | None


def nilpotency_redundancy_check(spec: GroupSpec, p: int, q: int) -> RedundancyReport:
    """Count the nonzero solutions of Ad(phi) N = q N over all phi in
    GL(2, F_p) from the nullity d of N -> phi N - q N phi, as p^d - 1 per
    phi, with d read in closed form off the whole stack
    (``_gl2_nullities``). Exactly |GL(2, F_p)| of them are nilpotent: the
    p^2 - 1 nonzero nilpotent N form one class and each is conjugate to
    q N, so the phi solving phi N = q N phi form a coset of its
    centralizer. The witness is searched for only when the rest is
    nonzero, which needs ord(q) <= 2: phi by phi, each with its own
    system, built with no inverse, and its canonical kernel basis."""
    q, phis = _gl2_walk(spec, p, q, "redundancy scan")
    nullity = _gl2_nullities(phis, q, p)
    checked = int((p**nullity - 1).sum())
    bad = checked - len(phis)
    wphi = wn = None
    for i in np.flatnonzero(nullity) if bad else ():
        basis = kernels.nullspace_mod(_sylvester(phis[i], q * phis[i] % p, p), p)
        sols = (_digits(int(nullity[i]), p) @ basis % p).reshape(-1, 2, 2)
        other = np.flatnonzero(~_is_nilpotent(sols, p))
        if len(other):
            wphi, wn = phis[i].copy(), sols[other[0]]
            break
    return RedundancyReport(
        p=p, q=q, pairs_checked=checked, non_nilpotent_count=bad,
        witness_phi=wphi, witness_n=wn,
    )


def _series(x, shift: int, coeff, p: int, name: str) -> NDArray[np.int64]:
    """The sum of coeff(k) a^k over k < n, a = x - shift I, for one (n, n)
    matrix x or each matrix of a (..., n, n) stack, coeff(k) a residue:
    with a nilpotent the series of exp and log end before a^n. Needs
    p > n, so that the denominators of the coefficients, k! and k, are
    units."""
    x = kernels._square_stack(x, p)
    size = x.shape[-1]
    if p <= size:
        raise ValueError("need p > matrix size for the %s series" % name)
    eye = np.eye(size, dtype=np.int64)
    a = (x - shift * eye) % p
    power = np.broadcast_to(eye, x.shape)
    out = coeff(0) * power
    for k in range(1, size):
        power = power @ a % p
        out = (out + coeff(k) * power) % p
    return out


def exp_nilpotent(n_mat, p: int) -> NDArray[np.int64]:
    """exp(N) for nilpotent N via the terminating series, for one (n, n)
    matrix or each matrix of a (..., n, n) stack; needs p > n so the
    factorials are invertible."""
    return _series(n_mat, 0, lambda k: pow(math.factorial(k), -1, p), p, "exponential")


def log_unipotent(u, p: int) -> NDArray[np.int64]:
    """log(u) for unipotent u via the terminating series, for one (n, n)
    matrix or each matrix of a (..., n, n) stack."""
    return _series(u, 1, lambda k: (-1) ** (k + 1) * pow(k, -1, p) % p if k else 0, p,
                   "logarithm")


def exp_bridge_check(phi, n_mat, q: int, p: int):
    """Translate (phi, N) to (phi, sigma) with sigma = exp(N) and check
    phi sigma = sigma^q phi, plus log(exp(N)) = N. For invertible phi the
    first is phi sigma phi^{-1} = sigma^q without forming the inverse.
    Takes one phi and one N and returns a bool, or (B, n, n) stacks of
    both and returns a bool array."""
    phi = kernels.as_field(phi, p)
    n_mat = kernels.as_field(n_mat, p)
    q = _reduce_q(q, p)
    if phi.shape != n_mat.shape:
        raise ValueError("phi must have N's shape %s, got %s" % (n_mat.shape, phi.shape))
    sigma = exp_nilpotent(n_mat, p)
    ok = (log_unipotent(sigma, p) == n_mat).all(axis=(-2, -1))
    rhs = kernels.matpow_mod(sigma, q, p) @ phi % p
    ok &= (phi @ sigma % p == rhs).all(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


@dataclass(frozen=True)
class BundleReport:
    """Fiber counts of the projection to phi over the open stratum where
    phi has eigenvalue multiset z * {1, q, ..., q^{n-1}}."""

    p: int
    q: int
    base_points: int
    expected_fiber: int
    fiber_counts: tuple[int, ...]
    quadratic_extension_points: int

    @property
    def ok(self) -> bool:
        return all(c == self.expected_fiber for c in self.fiber_counts)


def bundle_count_check(
    spec: GroupSpec, p: int, q: int, samples: int = 20, seed: int = 0
) -> BundleReport:
    """Count solutions N of Ad(phi) N = q N over semisimple base points,
    as p to the nullity of N -> phi N - q N phi.

    GL(2), p <= 13: enumerate every phi whose eigenvalue multiset is
    {z, qz} (including pairs living in the quadratic extension, detected
    from the characteristic polynomial) and count the N solutions, which
    should number p^{n-1} each, from the nullities in closed form
    (``_gl2_nullities``), as the nilpotency scan does. GL(3): sample
    conjugates of z diag(1, q, q^2) with a seeded generator, and eliminate
    their systems, built with no inverse, in one ``batch_nullity_mod``.
    """
    q = _unit_q(q, p)
    _sample_count(samples, seed)
    if spec.form is not None or spec.n not in (2, 3):
        raise ValueError("bundle check supports GL(2) and GL(3)")
    quad = 0
    if spec.n == 2:
        phis = _gl2_walk(spec, p, q, "GL(2) bundle check")[1]
        tr = (phis[:, 0, 0] + phis[:, 1, 1]) % p
        det = (phis[:, 0, 0] * phis[:, 1, 1] - phis[:, 0, 1] * phis[:, 1, 0]) % p
        # the eigenvalue multiset is {z, qz}, with z in F_p or in F_{p^2},
        # exactly when q tr^2 = (1+q)^2 det; it lies in the quadratic
        # extension when the discriminant is a non-residue. At p = 2 the
        # Euler criterion's exponent is 0, so every nonzero disc passes
        on_locus = q * tr % p * tr % p == (1 + q) ** 2 % p * det % p
        disc = (tr * tr - 4 * det)[on_locus] % p
        euler = np.array([pow(d, (p - 1) // 2, p) for d in range(p)], dtype=np.int64)
        quad = int(((disc != 0) & (euler[disc] == p - 1)).sum())
        nullities = _gl2_nullities(phis[on_locus], q, p)
    else:
        rng = np.random.default_rng(seed)
        phis = []
        for _ in range(samples):
            z = int(rng.integers(1, p))
            d = np.array([z, z * q % p, z * q * q % p], dtype=np.int64)
            g, ginv = _random_gl(lambda k: rng.integers(0, p, size=k), 3, p)
            # phi = g diag(d) g^-1, where g * d = g diag(d) scales g's columns
            phis.append((g * d % p) @ ginv % p)
        phis = np.stack(phis)
        nullities = kernels.batch_nullity_mod(_sylvester(phis, q * phis % p, p), p)
    return BundleReport(
        p=p, q=q, base_points=len(nullities), expected_fiber=p ** (spec.n - 1),
        fiber_counts=tuple(p**d for d in nullities.tolist()),
        quadratic_extension_points=quad,
    )


def jordan_partition(n_mat, p: int) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix, as a descending partition.

    The rank drop rank(A^k) - rank(A^(k+1)) counts the parts larger than
    k, so the partition is the conjugate of the drops: its i-th part is
    the number of drops >= i.
    """
    a = kernels.as_field(n_mat, p)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("N must have shape (n, n), got %s" % (a.shape,))
    size = a.shape[0]
    if not _is_nilpotent(a, p):
        raise ValueError("matrix is not nilpotent")
    ranks = [size]
    power = np.eye(size, dtype=np.int64)
    while ranks[-1] > 0:
        power = power @ a % p
        ranks.append(kernels.rank_mod(power, p))
    drops = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
    return tuple(sum(d >= i for d in drops) for i in range(1, max(drops, default=0) + 1))
