"""Exact linear algebra over prime fields.

Matrices are numpy int64 arrays with entries reduced into [0, p). The
single-matrix entry points (``rref_mod``, ``rank_mod``, ``nullity_mod``,
``nullspace_mod``, ``inv_mod``) run one elimination routine on rows of
Python ints, with first-nonzero pivoting, so ranks, kernels and reduced
forms are deterministic and no product can overflow inside the
elimination. ``rank_mod`` and ``nullity_mod`` read only the pivot count,
so they stop at row echelon form; the others reduce fully (Gauss-Jordan).
Matrices come in through ``tolist()`` and results go back out as int64
arrays. ``batch_nullity_mod`` reduces a whole (B, m, n) stack at once in
int64, one column at a time, for callers that hold real batches.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

#: Largest modulus whose int64 matrix products stay exact. The longest
#: inner product the package forms in int64 has K = 16 terms (a
#: combination of up to n^2 = 16 kernel vectors for GL4), each term below
#: (p - 1)^2. K (p - 1)^2 < 2^63 means p - 1 < 2^29.5, and the largest
#: such p is 759,250,125.
P_MAX = 759_250_125


def _rref(rows: list[list[int]], p: int, full: bool = True) -> list[int]:
    # In-place elimination of rows of ints in [0, p), p prime; returns the
    # pivot column of each nonzero row, in order. full=True clears each
    # pivot column from every other row (reduced row echelon form);
    # full=False clears it only from the rows below, which is all a rank
    # needs. The pivot row is zero left of its pivot, so every update
    # starts at the pivot column.
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r == m:
            break
        for piv in range(r, m):
            if rows[piv][col]:
                break
        else:
            continue
        row = rows[piv]
        rows[piv] = rows[r]
        rows[r] = row
        tail = row[col:]
        inv = pow(tail[0], p - 2, p)  # Fermat inverse
        if inv != 1:
            tail = [x * inv % p for x in tail]
            row[col:] = tail
        for i in range(0 if full else r + 1, m):
            if i != r:
                other = rows[i]
                f = other[col]
                if f:
                    other[col:] = [(x - f * y) % p for x, y in zip(other[col:], tail)]
        pivots.append(col)
        r += 1
    return pivots


def as_field(a, p: int) -> NDArray[np.int64]:
    """Coerce to an int64 array with entries reduced into [0, p)."""
    return np.asarray(a, dtype=np.int64) % p


def _rows(a, p: int) -> tuple[list, tuple[int, ...]]:
    mat = as_field(a, p)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d array")
    return mat.tolist(), mat.shape


def rref_mod(a, p: int) -> tuple[NDArray[np.int64], int, NDArray[np.int64]]:
    """Reduced row echelon form of a matrix mod p.

    Returns:
        (rref, rank, pivot_columns). Deterministic: the first nonzero
        entry in each column is used as the pivot.
    """
    rows, shape = _rows(a, p)
    pivots = _rref(rows, p)
    red = np.array(rows, dtype=np.int64).reshape(shape)
    return red, len(pivots), np.array(pivots, dtype=np.int64)


def rank_mod(a, p: int) -> int:
    rows, _ = _rows(a, p)
    return len(_rref(rows, p, full=False))


def nullity_mod(a, p: int) -> int:
    rows, shape = _rows(a, p)
    return shape[1] - len(_rref(rows, p, full=False))


def _inverse_mod(x: NDArray[np.int64], p: int) -> NDArray[np.int64]:
    # Fermat inverse x^(p-2) of every entry, by binary powering; each
    # product is of two residues, so below (p - 1)^2 < 2^63 for p <= P_MAX
    out = np.ones_like(x)
    base = x
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def batch_nullity_mod(stack, p: int) -> NDArray[np.int64]:
    """Right-kernel dimension for each matrix in a (B, m, n) stack.

    The stack is reduced one column at a time: each matrix takes as its
    pivot the largest entry of the column among its rows not yet used as
    pivot rows, and one rank-1 update with the pivot row scaled to a
    leading 1 clears the column from those rows (the pivot row included;
    it is never read again). Entries stay in [0, p), so the products in
    the update are below (p - 1)^2 < 2^63 for p <= P_MAX and never
    overflow int64. A column with no pivot is all zero in the unused
    rows, so its update changes nothing.
    """
    a = as_field(stack, p)
    if a.ndim != 3:
        raise ValueError("expected a 3-d array")
    b, m, n = a.shape
    which = np.arange(b)
    used = np.zeros((b, m), dtype=bool)
    rank = np.zeros(b, dtype=np.int64)
    for col in range(n if b and m else 0):
        column = np.where(used, 0, a[:, :, col])
        piv = column.argmax(axis=1)
        val = column[which, piv]
        found = val != 0
        if not found.any():
            continue
        row = a[which, piv, col + 1:] * _inverse_mod(val, p)[:, None] % p
        a[:, :, col + 1:] = (a[:, :, col + 1:] - column[:, :, None] * row[:, None, :]) % p
        used[which, piv] |= found
        rank += found
    return n - rank


def nullspace_mod(a, p: int) -> NDArray[np.int64]:
    """Basis of the right kernel of a mod p, one vector per row.

    The basis is the canonical one read off the reduced echelon form:
    each free column contributes the vector with a 1 there and the
    negated reduced column above the pivots.
    """
    rows, (_, n) = _rows(a, p)
    pivots = _rref(rows, p)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, c in enumerate(pivots):
            basis[k, c] = -rows[r][f] % p
    return basis


def inv_mod(a, p: int) -> NDArray[np.int64]:
    """Inverse of a square matrix mod p. Raises ValueError if singular."""
    rows, shape = _rows(a, p)
    n = shape[0]
    if shape != (n, n):
        raise ValueError("expected a square matrix")
    aug = [row + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(rows)]
    if _rref(aug, p) != list(range(n)):
        raise ValueError("matrix is singular mod %d" % p)
    return np.array([row[n:] for row in aug], dtype=np.int64).reshape(n, n)


def matmul_mod(a, b, p: int) -> NDArray[np.int64]:
    return as_field(a, p) @ as_field(b, p) % p


def matpow_mod(a, e: int, p: int) -> NDArray[np.int64]:
    """a**e mod p by binary powering, e >= 0."""
    if e < 0:
        raise ValueError("negative exponent; invert first")
    n = a.shape[0]
    result = np.eye(n, dtype=np.int64)
    base = as_field(a, p)
    while e > 0:
        if e & 1:
            result = result @ base % p
        base = base @ base % p
        e >>= 1
    return result
