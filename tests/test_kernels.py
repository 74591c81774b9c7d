"""Exact linear algebra over prime fields, checked against a pure-Python
oracle, sympy's GF(p) matrices and hypothesis properties."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from wdsmooth import kernels
from wdsmooth.kernels import (
    P_MAX,
    _inverse_mod,
    as_field,
    batch_nullity_mod,
    inv_mod,
    matpow_mod,
    nullity_mod,
    nullspace_mod,
    rank_mod,
    rref_mod,
)
from wdsmooth.variety import GroupSpec, exp_nilpotent, log_unipotent, tangent_matrix

PRIMES = [2, 3, 5, 7, 11, 101]


def oracle_rank(mat, p):
    # row reduction on plain Python ints, no numpy involved
    rows = [[int(x) % p for x in row] for row in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    col = 0
    while rank < m and col < n:
        pivot = next((r for r in range(rank, m) if rows[r][col] % p), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p) if p > 2 else rows[rank][col]
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def reference_rref(rows, p, full=True):
    # the list-of-ints Gauss-Jordan the kernel used before it packed rows
    # into ints, kept as the entry-for-entry reference: in place on rows
    # of ints in [0, p); returns the pivot columns
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
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
        inv = pow(tail[0], p - 2, p)
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


def reference_nullspace(rows, pivots, p):
    n = len(rows[0])
    basis = []
    for f in range(n):
        if f not in pivots:
            vec = [0] * n
            vec[f] = 1
            for row, c in zip(rows, pivots):
                vec[c] = -row[f] % p
            basis.append(vec)
    return basis


def reference_inverse(a, p):
    n = len(a)
    aug = [row + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(a.tolist())]
    if reference_rref(aug, p) != list(range(n)):
        return None
    return [row[n:] for row in aug]


def random_mat(rng, shape, p):
    return rng.integers(0, p, size=shape).astype(np.int64)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_python_oracle(p):
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = rng.integers(1, 9, size=2)
        a = random_mat(rng, (m, n), p)
        assert rank_mod(a, p) == oracle_rank(a, p)


@pytest.mark.parametrize("p", [3, 7, 11])
def test_rref_is_reduced(p):
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, n = rng.integers(1, 8, size=2)
        a = random_mat(rng, (m, n), p)
        r, rk, pivots = rref_mod(a, p)
        assert rk == oracle_rank(a, p)
        # pivot structure: leading ones, zeros elsewhere in pivot columns
        seen = -1
        for i in range(rk):
            lead = next(j for j in range(n) if r[i, j] != 0)
            assert lead == pivots[i] > seen
            seen = lead
            assert r[i, lead] == 1
            col = r[:, lead].copy()
            col[i] = 0
            assert not col.any()
        assert not r[rk:].any()


def test_rref_preserves_row_space():
    p = 7
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_mat(rng, (5, 6), p)
        r, rk, _ = rref_mod(a, p)
        stacked = np.vstack([a, r[:rk]])
        assert rank_mod(stacked, p) == rk


@pytest.mark.parametrize("p", [3, 7, 13])
def test_nullspace_vectors_annihilate(p):
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = rng.integers(1, 8, size=2)
        a = random_mat(rng, (m, n), p)
        basis = nullspace_mod(a, p)
        assert basis.shape == (n - rank_mod(a, p), n)
        if basis.shape[0]:
            assert not (a @ basis.T % p).any()
            assert rank_mod(basis, p) == basis.shape[0]
        assert nullity_mod(a, p) == basis.shape[0]


def test_batch_nullity_agrees_with_single():
    p = 11
    rng = np.random.default_rng(9)
    batch = rng.integers(0, p, size=(40, 5, 7)).astype(np.int64)
    got = batch_nullity_mod(batch, p)
    want = np.array([nullity_mod(b, p) for b in batch])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [5, 11])
def test_inverse(p):
    rng = np.random.default_rng(13)
    eye = np.eye(4, dtype=np.int64)
    found = 0
    while found < 10:
        a = random_mat(rng, (4, 4), p)
        if rank_mod(a, p) < 4:
            continue
        found += 1
        b = inv_mod(a, p)
        assert np.array_equal(a @ b % p, eye)
        assert np.array_equal(b @ a % p, eye)


def test_inverse_rejects_singular():
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)
    with pytest.raises(ValueError):
        inv_mod(a, 5)


def test_matpow_matches_repeated_product():
    p = 7
    rng = np.random.default_rng(17)
    a = random_mat(rng, (3, 3), p)
    acc = np.eye(3, dtype=np.int64)
    for k in range(7):
        assert np.array_equal(matpow_mod(a, k, p), acc)
        acc = acc @ a % p


def test_as_field_normalizes_negatives():
    a = np.array([[-1, 8], [7, -9]])
    assert np.array_equal(as_field(a, 7), np.array([[6, 1], [0, 5]]))


def test_as_field_rejects_non_integral_floats():
    for bad in ([[0.5, 2.7]], [[1.0, np.nan]], [[np.inf, 0.0]], [[2.0**64]]):
        with pytest.raises(ValueError, match="integer entries"):
            as_field(bad, 5)
    with pytest.raises(ValueError, match="integer entries"):
        rank_mod([[0.5, 2.7]], 5)
    # integral floats, such as an identity built by numpy, still convert
    assert np.array_equal(as_field(np.eye(3), 5), np.eye(3, dtype=np.int64))
    assert as_field([[-2.0, 7.0]], 5).tolist() == [[3, 2]]


def test_as_field_rejects_unsigned_entries_int64_cannot_hold():
    for bad in ([2**64 - 1], [[0, 2**63]]):
        with pytest.raises(ValueError, match="below 2\\^63"):
            as_field(np.array(bad, dtype=np.uint64), 5)
    with pytest.raises(ValueError, match="below 2\\^63"):
        rank_mod(np.array([[2**64 - 1]], dtype=np.uint64), 5)
    # smaller unsigned entries, and an empty unsigned array, still convert
    assert as_field(np.array([2**63 - 1, 7], dtype=np.uint64), 5).tolist() == [
        (2**63 - 1) % 5, 2]
    assert as_field(np.zeros((0, 3), dtype=np.uint64), 5).shape == (0, 3)


def test_as_field_rejects_complex_entries():
    for bad in ([[1 + 2j]], [[1 + 0j, 2]], np.eye(2, dtype=np.complex64)):
        with pytest.raises(ValueError, match="integer entries"):
            as_field(np.asarray(bad), 5)
    with pytest.raises(ValueError, match="integer entries"):
        nullspace_mod([[1j, 0]], 5)


def test_as_field_rejects_object_entries_int64_cannot_hold():
    # a Python int past int64 makes numpy build an object array
    for bad in ([2**70], [[1, -2**63 - 1]]):
        with pytest.raises(ValueError, match="integer entries that int64 holds"):
            as_field(bad, 5)
    with pytest.raises(ValueError, match="integer entries that int64 holds"):
        rank_mod([[2**64, 1]], 5)
    # object arrays of integers that int64 holds still convert
    held = np.array([2**63 - 1, -2**63, np.int64(7)], dtype=object)
    assert as_field(held, 5).tolist() == [(2**63 - 1) % 5, (-2**63) % 5, 2]


def test_as_field_rejects_fractions():
    for bad in ([Fraction(1, 2), 1], [[Fraction(4, 2)]], np.array([1.5, 2], dtype=object)):
        with pytest.raises(ValueError, match="integer entries that int64 holds"):
            as_field(bad, 5)


def test_as_field_rejects_text_times_and_records():
    # numpy casts digit strings, bytes, datetimes and timedeltas to int64
    # without a word, so each would be read as a matrix of integers
    for bad in ([["1", "2"], ["3", "4"]], [[b"1", b"2"]],
                np.array([[1, 2], [3, 4]], dtype="m8[s]"),
                np.array([["2020-01-01", "2020-01-02"]], dtype="M8[D]"),
                np.zeros((2, 2), dtype=[("a", np.int64)])):
        with pytest.raises(ValueError, match="expected integer entries, got dtype"):
            as_field(bad, 5)
    with pytest.raises(ValueError, match="expected integer entries, got dtype"):
        rank_mod([["1", "2"], ["3", "4"]], 5)
    with pytest.raises(ValueError, match="expected integer entries, got dtype"):
        nullity_mod(np.array([[1, 2], [3, 4]], dtype="m8[s]"), 5)
    # bools still convert, as 0 and 1
    assert as_field(np.array([[True, False]]), 5).tolist() == [[1, 0]]
    assert rank_mod(np.eye(3, dtype=bool), 5) == 3


def test_matpow_takes_lists_and_rejects_non_square():
    assert matpow_mod([[1, 1], [0, 1]], 3, 5).tolist() == [[1, 3], [0, 1]]
    for bad in (np.ones((2, 3), dtype=np.int64), np.ones(3, dtype=np.int64),
                np.ones((4, 2, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            matpow_mod(bad, 2, 5)


def gf(mat, p):
    """The same matrix as a sympy DomainMatrix over GF(p)."""
    rows = np.asarray(mat, dtype=np.int64).tolist()
    return DomainMatrix([[GF(p)(x) for x in row] for row in rows],
                        np.shape(mat), GF(p))


def from_gf(dm, p):
    return np.array([[int(x) % p for x in row] for row in dm.to_list()],
                    dtype=np.int64).reshape(dm.shape)


#: a prime below kernels.P_MAX; int64 products of its residues need care
LARGE_P = 536_870_909
#: the largest prime <= kernels.P_MAX: the widest entries the kernels accept
TOP_P = 759_250_111


def low_rank(rng, shape, rank, p):
    # the product of an m x rank and a rank x n factor, on Python ints
    m, n = shape
    u = random_mat(rng, (m, rank), p).astype(object)
    v = random_mat(rng, (rank, n), p).astype(object)
    return (u @ v % p).astype(np.int64).reshape(m, n)


def full_rank(rng, shape, p):
    while True:
        a = random_mat(rng, shape, p)
        if oracle_rank(a, p) == min(shape):
            return a


def oracle_cases():
    """Random and adversarial matrices: zero, 1 x n and n x 1, 16 x 32,
    p = 2, a p whose squares reach 2^58, and rank-deficient products,
    wide and tall (the tall ones leave rows below the last pivot); then
    the same at the largest p the kernels accept, and dense full-rank
    32 x 32, 16 x 32 and 32 x 16 matrices, whose elimination takes the
    most pivots and so grows the packed row entries the most."""
    rng = np.random.default_rng(29)
    for p in (2, 3, 11, 101, LARGE_P):
        yield np.zeros((3, 5), dtype=np.int64), p
        yield random_mat(rng, (1, 7), p), p
        yield random_mat(rng, (7, 1), p), p
        yield random_mat(rng, (16, 32), p), p
        for rank in (0, 1, 5, 12):
            yield low_rank(rng, (16, 32), rank, p), p
            yield low_rank(rng, (16, 22), rank, p), p
        for _ in range(6):
            m, n = rng.integers(1, 10, size=2)
            yield random_mat(rng, (m, n), p), p
    for p in (2, 3, 11, 101, LARGE_P):
        for rank in (1, 5, 12):
            yield low_rank(rng, (32, 16), rank, p), p
            yield low_rank(rng, (22, 16), rank, p), p
    yield np.zeros((3, 5), dtype=np.int64), TOP_P
    yield random_mat(rng, (1, 7), TOP_P), TOP_P
    yield random_mat(rng, (7, 1), TOP_P), TOP_P
    for rank in (0, 1, 5, 12):
        yield low_rank(rng, (16, 32), rank, TOP_P), TOP_P
        yield low_rank(rng, (32, 16), rank, TOP_P), TOP_P
    for p in (2, TOP_P):
        for shape in ((32, 32), (16, 32), (32, 16)):
            yield full_rank(rng, shape, p), p


@pytest.mark.parametrize("a, p", list(oracle_cases()))
def test_rref_rank_nullspace_match_sympy(a, p):
    red, rank, pivots = rref_mod(a, p)
    want_red, want_pivots = gf(a, p).rref()
    assert np.array_equal(red, from_gf(want_red, p))
    assert pivots.tolist() == list(want_pivots)
    assert rank == rank_mod(a, p) == gf(a, p).rank()
    assert nullity_mod(a, p) == a.shape[1] - gf(a, p).rank()
    # sympy scales its kernel basis differently; both must span one space
    basis = nullspace_mod(a, p)
    assert basis.shape == (a.shape[1] - rank, a.shape[1])
    if rank < a.shape[1]:
        want = gf(a, p).nullspace().rref()[0]
        assert np.array_equal(from_gf(gf(basis, p).rref()[0], p), from_gf(want, p))


@pytest.mark.parametrize("p", [2, 3, 11, 101, LARGE_P, TOP_P])
def test_inverse_matches_sympy(p):
    rng = np.random.default_rng(31)
    for n in (1, 2, 4, 16, 32):
        found = 0
        while found < 3:
            a = random_mat(rng, (n, n), p)
            if gf(a, p).rank() < n:
                with pytest.raises(ValueError):
                    inv_mod(a, p)
                continue
            found += 1
            assert np.array_equal(inv_mod(a, p), from_gf(gf(a, p).inv(), p))


@pytest.mark.parametrize("p", [2, 7, 11])
def test_batch_nullity_matches_sympy(p):
    rng = np.random.default_rng(37)
    stack = np.stack([low_rank(rng, (9, 18), int(r), p)
                      for r in rng.integers(0, 10, size=24)])
    want = [18 - gf(a, p).rank() for a in stack]
    given = stack.copy()
    assert batch_nullity_mod(stack, p).tolist() == want
    assert np.array_equal(stack, given)  # reduces a copy
    assert batch_nullity_mod(stack[:0], p).shape == (0,)


def mixed_stack(rng, batch, shape, p):
    """Members of every rank whose pivots sit in different rows and
    columns: low-rank products with a random number of leading columns
    cleared and their rows shuffled."""
    m, n = shape
    out = []
    for _ in range(batch):
        a = low_rank(rng, shape, int(rng.integers(0, min(m, n) + 1)), p)
        a[:, :rng.integers(0, n)] = 0
        out.append(a[rng.permutation(m)])
    return np.stack(out)


@pytest.mark.parametrize("p", [2, 7, LARGE_P])
@pytest.mark.parametrize("shape", [(4, 8), (9, 18), (16, 22), (8, 4)])
def test_batch_nullity_on_mixed_stacks_matches_sympy(p, shape):
    rng = np.random.default_rng(41)
    stack = mixed_stack(rng, 30, shape, p)
    ranks = [gf(a, p).rank() for a in stack]
    assert len(set(ranks)) > 2
    got = batch_nullity_mod(stack, p)
    assert got.dtype == np.int64
    assert got.tolist() == [shape[1] - r for r in ranks]


@pytest.mark.parametrize("shape", [(0, 4, 5), (3, 0, 5), (3, 4, 0), (0, 0, 0)])
def test_batch_nullity_on_empty_shapes(shape):
    got = batch_nullity_mod(np.zeros(shape, dtype=np.int64), 7)
    assert got.dtype == np.int64
    assert got.tolist() == [shape[2]] * shape[0]


def test_batch_nullity_rejects_a_single_matrix():
    with pytest.raises(ValueError):
        batch_nullity_mod(np.eye(3, dtype=np.int64), 7)


PRIME = st.sampled_from([2, 3, 5, 7, 11, 13, 101, TOP_P])


@st.composite
def matrices(draw, max_side=8):
    p = draw(PRIME)
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    cells = draw(st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n))
    return np.array(cells, dtype=np.int64).reshape(m, n), p


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_rank_is_invariant_under_row_operations(mp, data):
    a, p = mp
    m = a.shape[0]
    ops = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                       st.integers(1, p - 1)),
                             max_size=12))
    b = a.copy()
    for i, j, c in ops:
        if i == j:
            b[i] = b[i] * c % p  # scale a row by a unit
        else:
            b[i] = (b[i] + c * b[j]) % p  # add a multiple of another row
    b = b[data.draw(st.permutations(range(m)))]
    assert rank_mod(b, p) == rank_mod(a, p)


@settings(max_examples=40, deadline=None)
@given(PRIME, st.integers(2, 6), st.integers(1, 6), st.integers(1, 9), st.data())
def test_batch_nullity_equals_single_nullity(p, batch, m, n, data):
    # each member is a product of an m x r and an r x n factor, so ranks
    # below min(m, n) are drawn as often as full ones
    def factor(rows, cols):
        cells = data.draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                                   max_size=rows * cols))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)

    members = []
    for _ in range(batch):
        r = data.draw(st.integers(0, min(m, n)))
        members.append(factor(m, r) @ factor(r, n) % p)
    stack = np.stack(members)
    assert batch_nullity_mod(stack, p).tolist() == [nullity_mod(a, p) for a in stack]


@settings(max_examples=60, deadline=None)
@given(PRIME, st.sampled_from([(0,), (1,), (5,), (2, 3)]), st.integers(1, 4),
       st.integers(0, 12), st.data())
def test_matpow_on_a_stack_equals_per_matrix_powers(p, shape, n, e, data):
    size = int(np.prod(shape)) * n * n
    cells = data.draw(st.lists(st.integers(-p, 2 * p), min_size=size, max_size=size))
    stack = np.array(cells, dtype=np.int64).reshape(*shape, n, n)
    got = matpow_mod(stack, e, p)
    assert got.dtype == np.int64 and got.shape == stack.shape
    flat = stack.reshape(-1, n, n)
    assert got.reshape(-1, n, n).tolist() == [matpow_mod(m, e, p).tolist() for m in flat]


def assert_kernels_equal_the_reference(a, p):
    m, n = a.shape
    rows = a.tolist()
    pivots = reference_rref(rows, p)
    red, rank, got_pivots = rref_mod(a, p)
    assert red.tolist() == rows
    assert got_pivots.tolist() == pivots
    assert rank == rank_mod(a, p) == len(reference_rref(a.tolist(), p, full=False))
    assert nullity_mod(a, p) == n - rank
    assert nullspace_mod(a, p).tolist() == reference_nullspace(rows, pivots, p)
    if m == n:
        want = reference_inverse(a, p)
        if want is None:
            with pytest.raises(ValueError):
                inv_mod(a, p)
        else:
            assert inv_mod(a, p).tolist() == want


@settings(max_examples=150, deadline=None)
@given(PRIME, st.integers(1, 12), st.integers(1, 12), st.data())
def test_kernels_equal_the_reference_gauss_jordan(p, m, n, data):
    def factor(rows, cols):
        cells = data.draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                                   max_size=rows * cols))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)

    # a product of an m x r and an r x n factor, so every rank is drawn; its
    # r <= 12 int64 terms are each below p^2 < 2^59, so the sum (< 2^62.6) is exact
    r = data.draw(st.integers(0, min(m, n)))
    assert_kernels_equal_the_reference(factor(m, r) @ factor(r, n) % p, p)


#: (w, p, k): the elimination packs each entry of a matrix with min(m, n)
#: = k into a field of w = bitlen((p - 1) p^k) bits (the largest entry,
#: p - 1, times p per pivot) rounded up to 8, 16 or 32 bits or to whole
#: 64-bit words; each w sits on one side of a boundary
PACKING_WIDTHS = [
    (8, 3, 4), (9, 7, 2), (16, 37, 2), (17, 7, 5), (32, 23, 6),
    (33, 5, 13), (64, 29, 12), (65, 31, 12), (129, 1627, 11),
]


@pytest.mark.parametrize("w, p, k", PACKING_WIDTHS, ids=lambda v: str(v))
def test_kernels_equal_the_reference_at_each_packing_width(w, p, k):
    assert ((p - 1) * p**k).bit_length() == w
    rounded = min([width for width in (8, 16, 32) if width >= w] or [-(-w // 64) * 64])
    assert kernels._layout(p, k, 1)[2] == (1 << rounded) - 1  # the field mask
    rng = np.random.default_rng(53)
    for shape in ((k, k), (k, k + 3), (k + 2, k)):
        assert_kernels_equal_the_reference(np.full(shape, p - 1, dtype=np.int64), p)
        assert_kernels_equal_the_reference(full_rank(rng, shape, p), p)
        for rank in sorted({0, 1, k // 2, k - 1}):
            a = low_rank(rng, shape, rank, p)
            assert_kernels_equal_the_reference(a[rng.permutation(shape[0])], p)


def reference_rank_growth(rows, p):
    """The rank-only elimination of ``kernels._rank`` on rows of residues
    held as lists, with fields left unreduced as it leaves them: (rank,
    the largest entry any row reaches on the way)."""
    rows = [list(row) for row in rows]
    largest = max((x for row in rows for x in row), default=0)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i, row in enumerate(rows) if row[col] % p), None)
        if piv is None:
            continue
        pivot = rows.pop(piv)
        rank += 1
        c = p - pow(pivot[col] % p, -1, p)
        for row in rows[piv:]:
            f = row[col] % p
            if f:
                row[:] = [a + f * c % p * b for a, b in zip(row, pivot)]
                largest = max(largest, *row)
    return rank, largest


@pytest.mark.parametrize("p", [2, 7, TOP_P])
@pytest.mark.parametrize("top, shape", [("p - 1", (4, 8)), ("p - 1", (16, 32))], ids=str)
def test_rank_rows_never_carry_under_the_layout_rule(top, shape, p):
    # rows of residues, entries up to top = p - 1, as ``_pack`` packs them.
    # With k = min(m, n) pivots every entry stays at most (p - 1) p^k, which
    # the field holds, so the packed rank equals the rank of the rows mod p
    top = {"p - 1": p - 1}[top]
    m, n = shape
    k = min(m, n)
    _, _, mask, _, _ = kernels._layout(p, k, n)
    assert (top * p**k).bit_length() <= mask.bit_length()
    rng = np.random.default_rng(p + top)
    cases = [[[top] * n] * m, rng.integers(0, top + 1, size=shape, dtype=np.uint64).tolist()]
    cases += [low_rank(rng, shape, rank, p).tolist() for rank in (1, k // 2, k - 1)]
    for rows in cases:
        rank, largest = reference_rank_growth(rows, p)
        assert largest <= top * p**k <= mask
        assert kernels._rank(np.array(rows, dtype=np.int64), p) == rank
        assert rank == oracle_rank(rows, p)


def test_single_matrix_results_are_new_writable_arrays():
    p = 11
    a = np.array([[3, 4, 15], [1, -2, 0], [4, 2, 15]], dtype=np.int64)  # rank 2 mod 11
    b = np.array([[2, 3, 1], [0, 1, 5], [7, 0, 1]], dtype=np.int64)
    given = a.copy(), b.copy()
    results = [(rref_mod(a, p)[0], a), (nullspace_mod(a, p), a), (inv_mod(b, p), b),
               (rref_mod(b, p)[0], b)]
    for got, source in results:
        assert got.dtype == np.int64 and got.flags.writeable
        assert not np.shares_memory(got, source)
        got[...] = 0
    assert np.array_equal(a, given[0]) and np.array_equal(b, given[1])
    assert rank_mod(a, p) == 2 and rank_mod(b, p) == 3


#: moduli that are not primes: 9 = 3^2 has a residue, 3, with no inverse
NOT_PRIME = (0, 1, 9)

#: moduli of a type other than int: each is rejected even once p = 7 has
#: been accepted, though 7.0 == 7 and hashes alike
NOT_INT = (7.0, 7.5, np.int64(7))


def test_single_matrix_kernels_reject_p_past_the_bound():
    # their int64 products of two residues are exact only up to P_MAX, and
    # their pivot inverses exist only for a prime p
    for fn in (rref_mod, rank_mod, nullity_mod, nullspace_mod, inv_mod):
        for p in (759_250_133, 2**61 - 1):  # primes past P_MAX
            with pytest.raises(ValueError, match="int64-safe bound"):
                fn(np.eye(2, dtype=np.int64), p)
        for p in NOT_PRIME:
            with pytest.raises(ValueError, match="^p must be prime$"):
                fn(np.diag([3, 3]), p)
        fn(np.eye(2, dtype=np.int64), 7)
        for p in NOT_INT:
            with pytest.raises(ValueError, match="^p must be an int, got "):
                fn(np.eye(2, dtype=np.int64), p)


def test_stack_kernels_reject_p_past_the_bound():
    # at 2^61 - 1 numpy's int64 matmul wraps without a warning: the first
    # entry of this square came out as 13 where the exact value is 7, and
    # the tangent matrix and the exp and log series went wrong the same way
    calls = (lambda a, p: batch_nullity_mod(a[None], p),
             lambda a, p: matpow_mod(a, 2, p),
             lambda a, p: tangent_matrix(GroupSpec.gl(2), a, a, 2, p),
             lambda a, p: exp_nilpotent(a, p),
             lambda a, p: log_unipotent(a, p))
    for p in (759_250_133, 2**61 - 1):
        a = np.array([[p - 1, p - 2], [p - 3, p - 5]], dtype=np.int64)
        for call in calls:
            with pytest.raises(ValueError, match="^p exceeds the int64-safe bound 759250125$"):
                call(a, p)
    # p = 0 would divide by zero and 9 would give a wrong rank
    for p in NOT_PRIME:
        for call in calls:
            with pytest.raises(ValueError, match="^p must be prime$"):
                call(np.diag([3, 3]), p)
    for call in calls:
        call(np.diag([3, 3]), 7)
        for p in NOT_INT:
            with pytest.raises(ValueError, match="^p must be an int, got "):
                call(np.diag([3, 3]), p)
    # the largest prime within the bound is accepted, and exact
    a = [[TOP_P - 1, TOP_P - 2], [TOP_P - 3, TOP_P - 5]]
    exact = [[sum(a[i][k] * a[k][j] for k in range(2)) % TOP_P for j in range(2)]
             for i in range(2)]
    assert matpow_mod(a, 2, TOP_P).tolist() == exact
    assert batch_nullity_mod(np.array([a]), TOP_P).tolist() == [0]


def test_stack_inverse_checks_p_itself():
    # variety hands _inverse_mod arrays it reduced itself, with no as_field
    # on the way: 3 has no inverse mod 9, and past P_MAX the binary
    # powering's products of two residues would wrap int64
    x = np.array([3, 5], dtype=np.int64)
    with pytest.raises(ValueError, match="^p must be prime$"):
        _inverse_mod(x, 9)
    with pytest.raises(ValueError, match="^p exceeds the int64-safe bound 759250125$"):
        _inverse_mod(x, P_MAX + 1)
    assert _inverse_mod(x, 7).tolist() == [5, 3]
    assert _inverse_mod(x, TOP_P).tolist() == [pow(3, -1, TOP_P), pow(5, -1, TOP_P)]
