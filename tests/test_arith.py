"""Order conditions on q, group orders, considerate/banal sweep."""

import itertools
import re

import numpy as np
import pytest

from wdsmooth.arith import (
    QContext,
    chevalley_steinberg_order,
    implication_sweep,
    is_banal,
    is_considerate,
    is_prime,
    multiplicative_order,
    order_capped,
)
from wdsmooth.rootsys import build_root_system, parse_group


def rs_of(name):
    return build_root_system(parse_group(name))


def brute_force_gl2_order(p):
    count = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p != 0:
            count += 1
    return count


def brute_force_sl2_order(p):
    count = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            count += 1
    return count


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(49)
    assert is_prime(97)
    # 7.0 == 7, but no float is a prime
    assert not is_prime(7.0) and not is_prime(7.5)


def test_qcontext_validation():
    QContext(q=4, l=5)
    QContext(q=9, l=0)
    with pytest.raises(ValueError, match="prime power"):
        QContext(q=6, l=5)
    with pytest.raises(ValueError, match="prime power"):
        QContext(q=1, l=5)
    with pytest.raises(ValueError, match="l must be 0 or a prime"):
        QContext(q=4, l=9)
    with pytest.raises(ValueError, match="divide"):
        QContext(q=4, l=2)


def test_multiplicative_order():
    assert multiplicative_order(3, 11) == 5
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(4, 5) == 2
    assert multiplicative_order(1, 13) == 1
    for l in (2, 3, 5, 7, 11, 13, 29):
        for q in range(1, 3 * l):
            if q % l:
                want = next(k for k in range(1, l) if pow(q, k, l) == 1)
                assert multiplicative_order(q, l) == want
    with pytest.raises(ValueError):
        multiplicative_order(3, 12)
    with pytest.raises(ValueError):
        multiplicative_order(22, 11)


def test_order_capped():
    assert order_capped(3, 11, 6) == 5
    assert order_capped(3, 11, 4) is None
    assert order_capped(2, 7, 3) == 3


def test_considerate_basics():
    # order of 3 mod 11 is 5: fine up to h=4, fails at h >= 5
    assert is_considerate(QContext(q=3, l=11), 4)
    assert not is_considerate(QContext(q=3, l=11), 5)
    assert not is_considerate(QContext(q=3, l=11), 6)
    # characteristic zero is always considerate
    assert is_considerate(QContext(q=3, l=0), 30)
    with pytest.raises(ValueError):
        is_considerate(QContext(q=3, l=11), 0)


@pytest.mark.parametrize("p,want", [(2, 6), (3, 48), (5, 480)])
def test_gl2_order_brute_force(p, want):
    gl2 = rs_of("GL2")
    assert chevalley_steinberg_order(gl2, p) == want
    assert brute_force_gl2_order(p) == want


def test_sl2_order_brute_force():
    sl2 = rs_of("SL2")
    assert chevalley_steinberg_order(sl2, 3) == 24
    assert brute_force_sl2_order(3) == 24


def test_sp6_order_formula():
    sp6 = rs_of("Sp6")
    for q in (2, 3):
        want = q**9 * (q**2 - 1) * (q**4 - 1) * (q**6 - 1)
        assert chevalley_steinberg_order(sp6, q) == want
    assert chevalley_steinberg_order(sp6, 3) == 9170703360


# |G(F_2)| for the exceptional types, as the ATLAS lists them: the simple
# groups F4(2), E6(2), E7(2) and E8(2), and G2(2), which has U3(3) as a
# subgroup of index 2; nothing else pins an exceptional group order
EXCEPTIONAL_ORDERS_AT_2 = {
    "G2": 12_096,
    "F4": 3_311_126_603_366_400,
    "E6": 214_841_575_522_005_575_270_400,
    "E7": 7_997_476_042_075_799_759_100_487_262_680_802_918_400,
    "E8": 337_804_753_143_634_806_261_388_190_614_085_595_079_991_692_242_467_651_576_160_959_909_068_800_000,
}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_ORDERS_AT_2))
def test_exceptional_group_orders_at_q_2(name):
    assert chevalley_steinberg_order(rs_of(name), 2) == EXCEPTIONAL_ORDERS_AT_2[name]


def test_central_torus_factor():
    # GL_n order = SL_n order times (q - 1)
    gl3, sl3 = rs_of("GL3"), rs_of("SL3")
    for q in (2, 3, 4):
        assert chevalley_steinberg_order(gl3, q) == \
            chevalley_steinberg_order(sl3, q) * (q - 1)


def test_banal_witness_pair():
    # 11 does not divide |Sp6(F_3)| but ord(3 mod 11) = 5 <= 6 = h
    sp6, so7 = rs_of("Sp6"), rs_of("SO7")
    assert is_banal(11, sp6, 3)
    assert so7.coxeter_number == 6
    assert not is_considerate(QContext(q=3, l=11), so7.coxeter_number)
    assert multiplicative_order(3, 11) == 5


def test_implication_sweep_clean():
    report = implication_sweep("ABC", rank_max=3, l_max=13, q_max=9)
    assert report.ok
    assert report.checked == 245
    assert report.violations == []
    assert report.type_a_violations == []
    # the gap cases exist: banal but not considerate outside type A
    assert any(name.startswith("C3") for name, _, _, _ in report.banal_not_considerate)


@pytest.mark.parametrize("families, types", [
    ("A", 8),   # A1..A8, not an error at rank 9
    ("E", 3),   # E6..E8
    ("FG", 2),  # F4 and G2 only
    ("D", 6),   # D3..D8
])
def test_implication_sweep_caps_each_family_at_its_rank_window(families, types):
    # l_max = 5 and q_max = 4 leave six (q, l) pairs with l not dividing q
    report = implication_sweep(families, rank_max=9, l_max=5, q_max=4)
    assert report.checked == 6 * types
    assert report.checked == implication_sweep(families, 8, 5, 4).checked


def test_implication_sweep_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        implication_sweep("AX", rank_max=2, l_max=5, q_max=4)


@pytest.mark.parametrize("families, rank_max, l_max, q_max", [
    ("ABCDG", 0, 13, 9),   # no type reaches its minimal rank
    ("ABCDG", 4, -3, 9),   # no prime l
    ("ABCDG", 4, 13, 1),   # no prime power q
    ("A", 2, 2, 2),        # the only pair has l | q
    ("", 4, 13, 9),        # no family
    (",", 4, 13, 9),
])
def test_implication_sweep_rejects_an_empty_grid(families, rank_max, l_max, q_max):
    with pytest.raises(ValueError, match=r"no \(type, q, l\) case"):
        implication_sweep(families, rank_max, l_max, q_max)


def test_banal_agrees_with_order_divisibility():
    rs = rs_of("Sp4")
    for q in (2, 3, 4, 5):
        for l in (3, 5, 7, 11, 13):
            if q % l == 0:
                continue
            assert is_banal(l, rs, q) == (chevalley_steinberg_order(rs, q) % l != 0)
        assert is_banal(0, rs, q)  # characteristic zero
    for l in (-5, 1, 4):
        with pytest.raises(ValueError, match="l must be 0 or a prime, got %d" % l):
            is_banal(l, rs, 3)


@pytest.mark.parametrize("call, name, value", [
    # at q = 2.0 the order is the float 3.378e74, and 7 = 2^3 - 1 "does not
    # divide" it, while it divides |E8(2)|
    (lambda e8: is_banal(7, e8, 2.0), "q", 2.0),
    # int64 arithmetic wraps |E8(2)| to 0, which 37 would divide; it does
    # not divide |E8(2)|
    (lambda e8: chevalley_steinberg_order(e8, np.int64(2)), "q", np.int64(2)),
    (lambda e8: is_banal(37, e8, np.int64(2)), "q", np.int64(2)),
    (lambda e8: is_banal(7.0, e8, 2), "l", 7.0),
    (lambda e8: multiplicative_order(3.0, 7), "q", 3.0),
    (lambda e8: multiplicative_order(3, np.int64(7)), "l", np.int64(7)),
    (lambda e8: QContext(q=3.0, l=13), "q", 3.0),
    (lambda e8: QContext(q=3, l=13.0), "l", 13.0),
])
def test_q_and_l_must_be_python_ints(call, name, value):
    e8 = rs_of("E8")
    with pytest.raises(ValueError, match=re.escape("%s must be an int, got %r" % (name, value))):
        call(e8)
