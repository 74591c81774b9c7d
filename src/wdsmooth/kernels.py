"""Exact linear algebra over prime fields.

Matrices are numpy int64 arrays with entries reduced into [0, p). The
single-matrix entry points (``rref_mod``, ``rank_mod``, ``nullity_mod``,
``nullspace_mod``, ``inv_mod``) eliminate with first-nonzero pivoting,
so ranks, kernels and reduced forms are deterministic. Each row is
packed into one Python int, one bit field per entry, so clearing a
column from a row is a single big-int update, and entries are reduced
mod p only where a pivot is read and once at the end: the fields are
wide enough that no intermediate value can carry from one entry into the
next. Each pivot's inverse comes from the extended Euclidean algorithm
(``pow(lead, -1, p)``), which at the largest primes is several times
faster than Fermat's ``lead^(p - 2)``. One loop, ``_echelon``,
eliminates: it takes each pivot row out of the working rows and clears
the pivot column from the rows after it, and, when a reduced form is
asked for, from the pivot rows taken before it too. ``rank_mod`` and
``nullity_mod`` read its pivot count and unpack nothing; ``rref_mod``,
``nullspace_mod`` and ``inv_mod`` reduce fully (Gauss-Jordan) and unpack
the pivot rows. The layout of the fields (item type, words per field,
width, mask, shifts) is keyed by p, min(m, n) and n, under one rule: a
field holds p - 1 times p^min(m, n), the most an entry can grow to, so
no field ever carries. It is kept in a small LRU cache, since the
callers reduce matrices of a few shapes at one p, over and over. Rows go
in and out as bytes: the field width is rounded up to 8, 16 or 32 bits
or to whole 64-bit words, so the matrix cast to that unsigned type is
one ``tobytes()`` and each row one ``int.from_bytes``. The reduced rows
come back through one ``np.frombuffer``, with a field of several words
reduced mod p by Horner's rule; ``nullspace_mod`` reads its basis off
the reduced form and its free columns. The stack entry point,
``batch_nullity_mod``, counts the nullity of each matrix of a (B, m, n)
stack at once, in int64 through one column loop that stops at what a
rank needs, for callers that hold real batches; ``matpow_mod`` powers
one matrix or each matrix of a stack. No public entry point calls
another. Every routine needs p to be a prime <= ``P_MAX``: prime so that
every nonzero residue has an inverse, and within the bound so that a
product of two residues fits int64. ``_check_p`` checks it, called by
``as_field``, which every entry point reduces its input through, by
``_inverse_mod``, the stack inverse that ``variety`` also calls on its
own arrays, and by ``variety._unit_q``, which every entry point that
takes q calls first. A p that passed is kept, and its one fast path, a
Python int found in that set, serves every caller. Any other p is
checked in turn: that it is a Python int, so that neither a float nor a
numpy integer gets in, then the bound, so that no trial division runs
past sqrt(P_MAX), then primality.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.typing import NDArray

from .arith import _check_int, is_prime

#: Largest modulus whose int64 matrix products stay exact. The longest
#: inner product the package forms in int64 has K = 16 terms (a
#: combination of up to n^2 = 16 kernel vectors for GL4, or an entry of a
#: GL4 or GSp4 tangent matrix's M half, a sum over the 16 entries of phi),
#: each term below (p - 1)^2. K (p - 1)^2 < 2^63 means p - 1 < 2^29.5,
#: and the largest such p is 759,250,125.
P_MAX = 759_250_125

_INT64 = np.dtype(np.int64)
#: little-endian unsigned types by byte size: the field items of ``_pack``
_UNSIGNED = {size: np.dtype("<u%d" % size) for size in (1, 2, 4, 8)}
#: the moduli ``_check_p`` has accepted
_PRIMES: set[int] = set()


@functools.lru_cache(maxsize=32)
def _layout(p: int, k: int, n: int) -> tuple[np.dtype, int, int, range, int]:
    # The packing of rows of n residues that an elimination mod p with at
    # most k pivots clears: (dtype, words, mask, shifts, step), each field
    # `words` items of the unsigned `dtype`, W = 8 itemsize words bits wide,
    # `mask` its W low bits, `shifts` the W c at which entry c starts,
    # `step` the bytes of a row. One width rule serves every caller: a
    # column is cleared from a row by adding to it c <= p - 1 times the
    # pivot row, so a bound X on the fields becomes p X, and after k pivots
    # every field is at most (p - 1) p^k. With w the bit length of that
    # bound and W >= w, no field ever carries into the next. W is w rounded
    # up to 8, 16 or 32 bits or to whole 64-bit words, which only widens the
    # margin. Kept per shape, since the callers reduce matrices of a few
    # shapes at one p, over and over.
    size = -(-((p - 1) * p**k).bit_length() // 8)  # bytes of w
    item = 8 if size > 4 else 1 << (size - 1).bit_length()
    words = -(-size // item)
    width = 8 * item * words
    shifts = range(0, width * n, width)
    return _UNSIGNED[item], words, (1 << width) - 1, shifts, item * words * n


def _pack(mat: NDArray[np.int64], p: int) -> tuple[list[int], tuple]:
    # The nonzero rows of an (m, n) int64 array with entries in [0, p), each
    # packed into one int, entry c in bits [W c, W (c + 1)), and their
    # ``_layout``. A zero row stays zero and is never a pivot, so it is left
    # out. Rows move in as bytes: the fields are the items of an unsigned
    # little-endian array, `words` items per field, so the matrix cast to
    # that type (zero-padded to (m, n, words) when a field spans several
    # words) is one tobytes(), and each row one int.from_bytes of its slice.
    m, n = mat.shape
    layout = _layout(p, min(m, n), n)
    dtype, words, _, _, step = layout
    fields = mat.astype(dtype)
    if words > 1:  # each field: its value, then zero words
        fields = np.concatenate([fields[:, :, None], np.zeros((m, n, words - 1), dtype)], axis=2)
    data = fields.tobytes()  # step is 0 with n = 0, and the range below empty
    return [v for i in range(0, m * step, step or 1)
            if (v := int.from_bytes(data[i:i + step], "little"))], layout


def _echelon(mat: NDArray[np.int64], p: int, reduced: bool
             ) -> tuple[list[int], list[int], list[int], tuple]:
    # The one elimination of an (m, n) int64 array with entries in [0, p),
    # p prime, with first-nonzero pivoting: (the pivot columns, their
    # pivots' inverses, the packed pivot rows in pivot order, the
    # ``_layout``). The pivot rows are the row echelon form, or, when
    # `reduced`, the reduced one, each row still to be scaled by its
    # pivot's inverse; their number is the rank.
    #
    # The rows are packed by ``_pack``, so clearing a column from a row is
    # one big-int update. Fields are not kept reduced: only the entry of
    # the current column is, in each row scanned. The first working row
    # nonzero there mod p is the pivot; the rows before it are 0 there, so
    # only the rows after it are cleared, each by adding
    # c = (-f lead^-1 mod p) <= p - 1 times the pivot row, f its entry,
    # which makes that entry 0 mod p. The pivot row then leaves the working
    # rows for the done rows, which a reduced form clears the same way.
    # This is exact:
    # - fields stay >= 0, since only nonnegative multiples are added, so
    #   no field ever borrows from the next;
    # - each row, working or done, gains at most one multiple per pivot,
    #   and there are at most min(m, n) pivots, so by ``_layout``'s rule no
    #   field ever carries into the next;
    # - each field stays congruent mod p to its entry in the usual
    #   elimination (which scales pivot rows to a leading 1) up to a unit,
    #   so the pivot columns are the same, and the reduced row echelon
    #   form is unique, so a reduced result equals the usual method's.
    rows, layout = _pack(mat, p)
    mask, shifts = layout[2], layout[3]
    pivots: list[int] = []
    invs: list[int] = []
    done: list[int] = []
    for col, sh in enumerate(shifts):
        for piv, v in enumerate(rows):
            lead = (v >> sh & mask) % p
            if lead:
                break
        else:
            continue
        del rows[piv]
        inv = pow(lead, -1, p)
        c = p - inv
        for i in range(piv, len(rows)):
            f = (rows[i] >> sh & mask) % p
            if f:
                rows[i] += f * c % p * v
        if reduced:
            for i, u in enumerate(done):
                f = (u >> sh & mask) % p
                if f:
                    done[i] = u + f * c % p * v
        pivots.append(col)
        invs.append(inv)
        done.append(v)
        if not rows:
            break
    return pivots, invs, done, layout


def _rref(mat: NDArray[np.int64], p: int) -> tuple[list[int], NDArray[np.int64]]:
    # The pivot columns of an (m, n) int64 array with entries in [0, p), p
    # prime, and its reduced row echelon form as a new (m, n) int64 array,
    # from ``_echelon``. Zero rows, which ``_pack`` leaves out, come back
    # as the last rows. The pivot rows' to_bytes are joined into one
    # np.frombuffer; each word is reduced mod p, a field of several words
    # is reduced by Horner's rule with 2^64 mod p, and each row is scaled
    # by its pivot's inverse in int64. Every product there is of two
    # residues, below p^2 < 2^63 for p <= P_MAX (a Horner step adds one
    # more residue), so nothing overflows.
    m, n = mat.shape
    pivots, invs, done, (dtype, words, _, _, step) = _echelon(mat, p, True)
    r = len(done)
    data = b"".join([v.to_bytes(step, "little") for v in done]) + bytes(step * (m - r))
    fields = (np.frombuffer(data, dtype).reshape(m, n, words) % p).astype(np.int64)
    red = fields[:, :, -1]
    for j in range(words - 2, -1, -1):  # Horner's rule in base 2^64
        red = (red * (2**64 % p) + fields[:, :, j]) % p
    return pivots, red * np.array(invs + [0] * (m - r), dtype=np.int64)[:, None] % p


def _check_p(p: int) -> None:
    """Raise ValueError unless p is a Python int that is a prime <= P_MAX;
    a p that passed is kept, so a repeat costs one type test and one set
    lookup."""
    if type(p) is int and p in _PRIMES:  # 7.0 == 7 would find 7 in the set
        return
    _check_int("p", p)
    if p > P_MAX:  # first, so that no trial division runs past sqrt(P_MAX) < 27,555
        raise ValueError("p exceeds the int64-safe bound %d" % P_MAX)
    if not is_prime(p):
        raise ValueError("p must be prime")
    _PRIMES.add(p)


def as_field(a, p: int) -> NDArray[np.int64]:
    """Coerce to an int64 array with entries reduced into [0, p).

    p must be a Python int that is a prime <= P_MAX. Signed integers and
    bools (read as 0 and 1) are accepted as they are, floats only when
    every entry is an integer that int64 holds (``np.eye(n)`` is fine),
    unsigned integers only below 2^63, and object arrays (a list holding
    a Python int past int64 makes one) only when every entry is an
    integer that int64 holds; anything else (complex numbers, fractions,
    text, bytes, datetimes, timedeltas and structured records included)
    raises ValueError rather than being parsed, truncated, wrapped or
    overflowing, and so does any other p.
    """
    _check_p(p)
    arr = np.asarray(a)
    if arr.dtype is not _INT64:  # int64 input, the common case, needs no check
        kind = arr.dtype.kind
        if kind not in "biufO":
            raise ValueError("expected integer entries, got dtype %s" % arr.dtype)
        if kind == "f" and not np.all((np.abs(arr) < 2.0**63) & (arr == np.trunc(arr))):
            raise ValueError("expected integer entries")
        if kind == "u" and arr.size and arr.max() >= 2**63:
            raise ValueError("expected integer entries below 2^63")
        if kind == "O" and not all(isinstance(x, (int, np.integer)) and -2**63 <= x < 2**63
                                   for x in arr.flat):
            raise ValueError("expected integer entries that int64 holds")
        arr = arr.astype(np.int64)
    return arr % p


def _matrix(a, p: int) -> NDArray[np.int64]:
    mat = as_field(a, p)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d array")
    return mat


def _square_stack(a, p: int) -> NDArray[np.int64]:
    """a as a reduced (..., n, n) array; raises unless its matrices are
    square."""
    a = as_field(a, p)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("expected a square matrix")
    return a


def rref_mod(a, p: int) -> tuple[NDArray[np.int64], int, NDArray[np.int64]]:
    """Reduced row echelon form of a matrix mod p.

    Returns:
        (rref, rank, pivot_columns). Deterministic: the first nonzero
        entry in each column is used as the pivot.
    """
    pivots, red = _rref(_matrix(a, p), p)
    return red, len(pivots), np.array(pivots, dtype=np.int64)


def rank_mod(a, p: int) -> int:
    return len(_echelon(_matrix(a, p), p, False)[2])


def nullity_mod(a, p: int) -> int:
    mat = _matrix(a, p)
    return mat.shape[1] - len(_echelon(mat, p, False)[2])


def _inverse_mod(x: NDArray[np.int64], p: int) -> NDArray[np.int64]:
    # Fermat inverse x^(p-2) of every entry, by binary powering; each
    # product is of two residues, so below (p - 1)^2 < 2^63 for p <= P_MAX.
    # p is checked here too, since callers hand it arrays they reduced
    # themselves: a composite p would give no inverse, a larger one overflow
    _check_p(p)
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

    One column loop over the whole stack, in int64. Each matrix takes as
    its pivot the largest entry of the column among its rows not yet used
    as pivot rows, and one rank-1 update with the pivot row scaled to a
    leading 1 clears the column from those rows (the pivot row included;
    it is never read again). Entries stay in [0, p), so the products in
    the update are below (p - 1)^2 < 2^63 for p <= P_MAX. A matrix with
    no pivot in the column is all zero there in its unused rows, so its
    update changes nothing.
    """
    a = as_field(stack, p)
    if a.ndim != 3:
        raise ValueError("expected a 3-d array")
    b, m, n = a.shape
    which = np.arange(b)
    used = np.zeros((b, m), dtype=bool)
    for col in range(n if b and m else 0):
        column = np.where(used, 0, a[:, :, col])
        piv = column.argmax(axis=1)
        val = column[which, piv]
        found = val != 0
        if not found.any():
            continue
        row = a[which, piv, col + 1:] * _inverse_mod(val, p)[:, None] % p
        a[:, :, col + 1:] = (a[:, :, col + 1:] - column[:, :, None] * row[:, None, :]) % p
        used[which[found], piv[found]] = True
    return n - used.sum(axis=1)


def nullspace_mod(a, p: int) -> NDArray[np.int64]:
    """Basis of the right kernel of a mod p, one vector per row.

    The basis is the canonical one read off the reduced echelon form:
    each free column contributes the vector with a 1 there and the
    negated reduced column above the pivots.
    """
    pivots, red = _rref(_matrix(a, p), p)
    n = red.shape[1]
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    # pivot row r, negated, at the index of its pivot column, and the
    # identity's rows elsewhere: column f, for a free column f, is then the
    # basis vector of f (the diagonal at pivot columns is overwritten, and
    # no pivot column is read)
    placed = np.eye(n, dtype=np.int64)
    placed[pivots] = -red[:len(pivots)] % p
    return placed.T[free]


def inv_mod(a, p: int) -> NDArray[np.int64]:
    """Inverse of a square matrix mod p. Raises ValueError if singular."""
    mat = _matrix(a, p)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("expected a square matrix")
    pivots, red = _rref(np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1), p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular mod %d" % p)
    return red[:, n:]


def matpow_mod(a, e: int, p: int) -> NDArray[np.int64]:
    """a**e mod p by binary powering, e >= 0, for one (n, n) matrix or
    each matrix of a (..., n, n) stack."""
    if e < 0:
        raise ValueError("negative exponent; invert first")
    base = _square_stack(a, p)
    result = np.broadcast_to(np.eye(base.shape[-1], dtype=np.int64), base.shape).copy()
    while e > 0:
        if e & 1:
            result = result @ base % p
        base = base @ base % p
        e >>= 1
    return result
