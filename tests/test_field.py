"""Field arithmetic: exhaustive axiom checks on small fields, the
primitive-polynomial table, Frobenius powers, descriptors."""

import pytest

from sumrank.field import (
    PRIMITIVE_POLYS,
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
        power = f._mul_slow(power, f.alpha)
        order += 1
    assert order == q**M - 1


def test_validate_primitive_rejects():
    # (x+1)^2 is reducible
    assert not validate_primitive(2, 2, (1, 0, 1))
    # irreducible but x has order 5 != 15
    assert not validate_primitive(2, 4, (1, 1, 1, 1, 1))


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


@pytest.mark.parametrize("f", [F4, F8, F9], ids=["F4", "F8", "F9"])
def test_alpha_is_primitive(f: Field):
    seen = set()
    for e in range(f.order - 1):
        seen.add(f.alpha_pow(e))
    assert seen == set(f.nonzero())


def test_mul_slow_agrees_with_tables():
    for f in (F8, F9):
        for a in f.elements():
            for b in f.elements():
                assert f._mul_slow(a, b) == f.mul(a, b)


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


def test_large_field_has_no_tables_but_works():
    f = field(2, 18)  # above nothing: order 262144 <= table limit, has tables
    assert f.exp is not None
    assert f.mul(f.alpha, f.inv(f.alpha)) == 1


def test_digit_codecs():
    for f in (F4, F9):
        for x in f.elements():
            assert f.from_digits(f.digits(x)) == x
