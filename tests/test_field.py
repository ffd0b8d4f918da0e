"""Field arithmetic: exhaustive axiom checks on small fields, the
primitive-polynomial table, Frobenius powers, descriptors."""

import time

import pytest

from sumrank.field import (
    PRIMITIVE_POLYS,
    TABLE_LIMIT,
    Field,
    FieldError,
    base_field,
    field,
    parse_descriptor,
    validate_primitive,
)

F4 = field(2, 2)
F8 = field(2, 3)
F9 = field(3, 2)

A = 2  # code of alpha in any F_{q^M} with M >= 2

# x^21 + x^2 + 1, primitive over F_2, for a field of order 2^21 > TABLE_LIMIT
POLY_2_21 = (1, 0, 1) + (0,) * 18 + (1,)


def _mul_slow(f: Field, a: int, b: int) -> int:
    """a b in f without its tables: the schoolbook product of the digit
    polynomials, reduced modulo f.poly from the top degree down."""
    q, M = f.q, f.M
    prod = [0] * (2 * M - 1)
    for i, x in enumerate(f.digits(a)):
        for j, y in enumerate(f.digits(b)):
            prod[i + j] = (prod[i + j] + x * y) % q
    for d in range(2 * M - 2, M - 1, -1):
        top = prod[d]
        for i, c in enumerate(f.poly):
            prod[d - M + i] = (prod[d - M + i] - top * c) % q
    return f.from_digits(prod[:M])


def test_primitive_poly_table_validates():
    for (q, M), poly in PRIMITIVE_POLYS.items():
        assert validate_primitive(q, M, poly), (q, M, poly)


@pytest.mark.parametrize("q, M", [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2)])
def test_odd_prime_tables_build_primitive_fields(q, M):
    f = field(q, M)
    assert validate_primitive(q, M, f.poly)
    # the order of alpha, walked without the tables it seeds
    power, order = f.alpha, 1
    while power != 1:
        power = _mul_slow(f, power, f.alpha)
        order += 1
    assert order == q**M - 1


def test_validate_primitive_rejects():
    # (x+1)^2 is reducible
    assert not validate_primitive(2, 2, (1, 0, 1))
    # irreducible but x has order 5 != 15
    assert not validate_primitive(2, 4, (1, 1, 1, 1, 1))
    # over F_3: x^2 + 1 is irreducible but x has order 4 != 8, and x^2
    # makes x a zero divisor
    assert not validate_primitive(3, 2, (1, 0, 1))
    assert not validate_primitive(3, 2, (0, 0, 1))
    # not monic, a coefficient outside F_q, wrong degree, q not prime
    assert not validate_primitive(3, 2, (2, 1, 2))
    assert not validate_primitive(2, 2, (1, 2, 1))
    assert not validate_primitive(2, 3, (1, 1, 1))
    assert not validate_primitive(4, 1, (1, 1))


def test_validate_primitive_is_false_above_the_table_limit():
    assert 2**21 > TABLE_LIMIT == 2**20
    assert validate_primitive(2, 20, PRIMITIVE_POLYS[(2, 20)])
    assert not validate_primitive(2, 21, POLY_2_21)


def test_a_field_above_the_table_limit_is_refused_before_any_walk():
    start = time.perf_counter()
    with pytest.raises(FieldError, match="TABLE_LIMIT"):
        Field(2, 21, POLY_2_21)
    with pytest.raises(FieldError, match="TABLE_LIMIT"):
        parse_descriptor("2^21/" + "".join(map(str, reversed(POLY_2_21))))
    assert time.perf_counter() - start < 0.1


def test_a_prime_field_above_the_table_limit_is_refused_at_once():
    # 1048583 is the least prime above 2^20: base_field tried every
    # x + c through validate_primitive (95 s) before naming no limit
    start = time.perf_counter()
    with pytest.raises(FieldError, match="TABLE_LIMIT"):
        base_field(1048583)
    with pytest.raises(FieldError, match="not prime"):
        base_field(1048575)
    assert time.perf_counter() - start < 0.1
    assert base_field(101).poly == (2, 1)  # x + 2: a prime with no built-in polynomial


def test_add_examples():
    assert F4.add(A, A) == 0
    for x in F8.elements():
        assert F8.add(0, x) == x
    f3 = base_field(3)
    assert f3.add(1, 2) == 0


def test_mul_examples():
    # alpha * alpha = alpha + 1 in F_4 (reduction mod x^2+x+1)
    assert F4.mul(A, A) == 3
    # alpha^3 = alpha + 1 in F_8 (reduction mod x^3+x+1)
    assert F8.pow(A, 3) == 3
    for x in F9.elements():
        assert F9.mul(1, x) == x


def test_inv_examples():
    assert F4.inv(1) == 1
    assert F4.inv(A) == 3  # alpha + 1
    assert F8.inv(A) == 5  # alpha^2 + 1
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)
    for f in (F4, F9):
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -1)
        assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0
        a = f.alpha
        assert f.pow(a, -1) == f.inv(a)
        assert f.pow(a, -2) == f.mul(f.inv(a), f.inv(a))


def test_inv_f8_matches_extended_euclid():
    def poly_divmod(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] ^= c
            while a and a[-1] == 0:
                a.pop()
        return a or [0]

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] ^= x & y
        return out

    mod = list(F8.poly)
    for a in F8.nonzero():
        inv = F8.inv(a)
        prod = poly_mul(F8.digits(a), F8.digits(inv))
        assert F8.from_digits(poly_divmod(prod, mod) + [0, 0, 0]) == 1


def test_frobenius_examples():
    for x in F4.elements():
        assert F4.frobenius(x, 0) == x
    assert F4.frobenius(A, 1) == 3  # alpha^2 = alpha + 1
    assert F8.frobenius(A, 3) == A  # x^(q^M) = x


def test_frobenius_is_automorphism():
    for f in (F4, F8, F9):
        for a in f.elements():
            assert f.frobenius(a, f.M) == a
            for b in f.elements():
                assert f.frobenius(f.add(a, b), 1) == f.add(
                    f.frobenius(a, 1), f.frobenius(b, 1)
                )
                assert f.frobenius(f.mul(a, b), 1) == f.mul(
                    f.frobenius(a, 1), f.frobenius(b, 1)
                )


def test_is_in_base_field():
    assert F4.is_in_base_field(0)
    assert F4.is_in_base_field(1)
    assert not F4.is_in_base_field(A)
    f16 = field(2, 4)
    assert not f16.is_in_base_field(f16.alpha_pow(5))
    for f in (F4, F8, F9, f16):
        assert sum(f.is_in_base_field(x) for x in f.elements()) == f.q


@pytest.mark.parametrize("f", [F4, F8, F9], ids=["F4", "F8", "F9"])
def test_field_axioms_exhaustive(f: Field):
    els = list(f.elements())
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("f", [F4, F8, F9, base_field(2), base_field(3), field(3, 3),
                               field(5, 2)],
                         ids=["F4", "F8", "F9", "F2", "F3", "F27", "F25"])
def test_alpha_is_primitive(f: Field):
    seen = set()
    for e in range(f.order - 1):
        seen.add(f.alpha_pow(e))
        assert f.log[f.alpha_pow(e)] == e
    assert seen == set(f.nonzero())


def test_mul_slow_agrees_with_tables():
    for f in (F8, F9):
        for a in f.elements():
            for b in f.elements():
                assert _mul_slow(f, a, b) == f.mul(a, b)


def test_descriptor_round_trip():
    assert F8.descriptor() == "2^3/1011"
    for f in (F4, F8, F9, field(2, 4)):
        assert parse_descriptor(f.descriptor()) is f


def test_parse_descriptor_errors():
    with pytest.raises(FieldError):
        parse_descriptor("2^3")
    with pytest.raises(FieldError):
        parse_descriptor("2^3/11")
    with pytest.raises(FieldError):
        parse_descriptor("2^2/101")  # x^2+1 not primitive


def test_largest_table1_field_is_tabled():
    f = field(2, 18)  # the field of table1's largest row, [6,3,1]
    assert len(f.exp) == 2**18 - 1 and len(f.log) == 2**18
    assert f.mul(f.alpha, f.inv(f.alpha)) == 1
    assert _mul_slow(f, f.alpha_pow(200_000), f.alpha_pow(100_000)) == f.alpha_pow(37_857)


def test_digit_codecs():
    for f in (F4, F9):
        for x in f.elements():
            assert f.from_digits(f.digits(x)) == x
