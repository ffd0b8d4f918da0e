"""Arithmetic in extension fields F_{q^M} over a prime base field F_q.

Elements are represented as plain integers ("codes") in [0, q^M): the
base-q digits of the code are the coordinates of the element in the
polynomial basis {1, a, ..., a^(M-1)}, where a is the class of x modulo
the primitive polynomial.  Codes 0 and 1 are the additive and
multiplicative identities, and code q is the primitive element a itself.

For q = 2 the digit encoding coincides with the usual bit-vector
representation, so addition is XOR.  Every field is tabled, orders up to
2^20 (TABLE_LIMIT): multiplication, inversion and powers are lookups in
log/antilog tables that one walk over the powers of x builds while it
proves the polynomial primitive.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

# Largest field order a Field accepts: every field is tabled, orders up to
# 2^20, and its log/antilog tables are built with it.
TABLE_LIMIT = 1 << 20

# Primitive polynomials, ascending coefficient order (index i = coeff of
# x^i), lexicographically smallest for each supported (q, M).  Every
# entry is re-validated by the test suite via validate_primitive().
PRIMITIVE_POLYS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 17): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 18): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 19): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 20): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (1, 2, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 0, 1, 0, 0, 0, 0, 1),
    (5, 1): (2, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 0, 1, 1),
    (7, 1): (2, 1),
    (7, 2): (3, 1, 1),
}


class FieldError(ValueError):
    pass


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _mul_by_x(digits: list[int], poly, q: int, M: int) -> list[int]:
    """Multiply a length-M digit vector by x modulo poly (ascending coeffs)."""
    top = digits[M - 1]
    out = [0] + digits[: M - 1]
    if top:
        for i in range(M):
            out[i] = (out[i] - top * poly[i]) % q
    return out


def _antilog(q: int, M: int, poly) -> list[int] | None:
    """The codes of x^0, x^1, ..., x^(q^M - 2) modulo poly when poly
    (ascending, monic, degree M) is primitive over F_q and q^M is at most
    TABLE_LIMIT; None otherwise.

    One walk over the powers of x fills the table and proves primitivity:
    x must first return to 1 at step q^M - 1, so its order is exactly
    q^M - 1; this forces irreducibility, since a reducible quotient ring
    has fewer than q^M - 1 units.
    """
    poly = list(poly)
    if not _is_prime(q) or M < 1 or q ** M > TABLE_LIMIT:
        return None
    if len(poly) != M + 1 or poly[M] % q != 1:
        return None
    if any(c % q != c for c in poly):
        return None
    if poly[0] == 0:
        return None
    n = q ** M - 1
    exp = [0] * n
    if q == 2:
        # digits are bits, so mul-by-x is shift + conditional XOR, and only
        # the XOR can bring x back to 1
        polycode = sum(c << i for i, c in enumerate(poly))
        hi = 1 << M
        v = 1
        for i in range(n):
            exp[i] = v
            v <<= 1
            if v & hi:
                v ^= polycode
                if v == 1:
                    break
    else:
        qpows = [q ** i for i in range(M)]
        digits = [1] + [0] * (M - 1)
        v = 1
        for i in range(n):
            exp[i] = v
            digits = _mul_by_x(digits, poly, q, M)
            v = sum(d * p for d, p in zip(digits, qpows))
            if v == 1:
                break
    return exp if v == 1 and i == n - 1 else None


def validate_primitive(q: int, M: int, poly) -> bool:
    """True iff poly (ascending, monic, degree M) is primitive over F_q
    and q^M is at most TABLE_LIMIT, the largest order a Field accepts."""
    return _antilog(q, M, poly) is not None


def _check_order(q: int, M: int) -> None:
    """Raise FieldError unless F_{q^M} is a field a Field accepts: the
    order is tested against TABLE_LIMIT first, so a huge q is refused
    without trial division."""
    if M < 1:
        raise FieldError(f"extension degree M={M} must be >= 1")
    if q ** M > TABLE_LIMIT:
        raise FieldError(f"field order {q}^{M} is above TABLE_LIMIT = "
                         f"{TABLE_LIMIT}, the largest order a Field accepts")
    if not _is_prime(q):
        raise FieldError(f"base order q={q} is not prime")


class Field:
    """The field F_{q^M} with a fixed primitive polynomial.

    Immutable after construction; safe to share between workers.  All
    element-level operations take and return integer codes.
    """

    def __init__(self, q: int, M: int, poly=None):
        _check_order(q, M)
        if poly is None:
            try:
                poly = PRIMITIVE_POLYS[(q, M)]
            except KeyError:
                raise FieldError(
                    f"no built-in primitive polynomial for q={q}, M={M}; "
                    "pass one explicitly"
                ) from None
        poly = tuple(int(c) for c in poly)
        table = _antilog(q, M, poly)
        if table is None:
            raise FieldError(f"polynomial {poly} is not primitive over F_{q}")
        self.q = q
        self.M = M
        self.poly = poly
        self.order = q ** M
        self._qpows = tuple(q ** i for i in range(M + 1))
        self.exp = table
        self.log = log = [0] * self.order
        for i, a in enumerate(table):
            log[a] = i

    # -- tables and digits -----------------------------------------------

    @cached_property
    def zero_log_tables(self) -> tuple[list, list]:
        """(log, ext), built on first use from the tables: log as self.log
        but with log[0] = Z = 2(q^M - 1), and ext the antilog table
        extended with zeros, so ext[log[a] + log[b]] = a b for every a, b,
        zero included (the largest index is 2Z)."""
        n = self.order - 1
        log = list(self.log)
        log[0] = 2 * n
        return log, self.exp * 2 + [0] * (2 * n + 1)

    def digits(self, a: int) -> list[int]:
        """Base-q digits of a, ascending (coordinates in the polynomial basis)."""
        q = self.q
        out = []
        for _ in range(self.M):
            a, d = divmod(a, q)
            out.append(d)
        return out

    def from_digits(self, digits) -> int:
        """The code whose base-q digits, ascending, are digits[:M]."""
        digits = list(digits)
        code = 0
        for i in range(self.M - 1, -1, -1):
            code = code * self.q + digits[i]
        return code

    # -- arithmetic ------------------------------------------------------

    @property
    def alpha(self) -> int:
        """The primitive element (class of x); equals 1 when M == 1 and q == 2."""
        if self.M == 1:
            return (-self.poly[0]) % self.q
        return self.q

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        q = self.q
        out = 0
        for p in self._qpows[: self.M]:
            da = (a // p) % q
            db = (b // p) % q
            out += ((da + db) % q) * p
        return out

    def neg(self, a: int) -> int:
        if self.q == 2:
            return a
        q = self.q
        out = 0
        for p in self._qpows[: self.M]:
            d = (a // p) % q
            out += ((-d) % q) * p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.exp[(-self.log[a]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    def frobenius(self, a: int, j: int = 1) -> int:
        """a raised to q^j; a field automorphism power fixing F_q."""
        if j < 0:
            raise ValueError("frobenius power must be non-negative")
        if a == 0:
            return 0
        return self.pow(a, self.q ** (j % self.M))

    def alpha_pow(self, e: int) -> int:
        """alpha^e, e taken modulo q^M - 1."""
        return self.exp[e % (self.order - 1)]

    def is_in_base_field(self, a: int) -> bool:
        return self.pow(a, self.q) == a

    # -- structure -------------------------------------------------------

    def base(self) -> "Field":
        """The prime field F_q, as its own Field instance."""
        return base_field(self.q)

    def elements(self):
        return range(self.order)

    def nonzero(self):
        return range(1, self.order)

    # -- identity / serialization ----------------------------------------

    def descriptor(self) -> str:
        digits = "".join(str(c) for c in reversed(self.poly))
        return f"{self.q}^{self.M}/{digits}"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.q == other.q
            and self.M == other.M
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.q, self.M, self.poly))

    def __repr__(self):
        return f"Field({self.descriptor()!r})"


@lru_cache(maxsize=None)
def _cached_field(q: int, M: int, poly) -> Field:
    return Field(q, M, poly)


def field(q: int, M: int, poly=None) -> Field:
    """Shared, cached Field instance (tables built once per parameter set)."""
    if poly is None:
        if (q, M) not in PRIMITIVE_POLYS:
            raise FieldError(f"no built-in primitive polynomial for q={q}, M={M}")
        poly = PRIMITIVE_POLYS[(q, M)]
    return _cached_field(q, M, tuple(poly))


def base_field(q: int) -> Field:
    """The prime field F_q (extension degree 1)."""
    if (q, 1) in PRIMITIVE_POLYS:
        return field(q, 1)
    _check_order(q, 1)
    # search for x + c with -c a primitive root mod q
    for c in range(1, q):
        if validate_primitive(q, 1, (c, 1)):
            return field(q, 1, (c, 1))
    raise FieldError(f"no degree-1 primitive polynomial found for q={q}")


def parse_descriptor(desc: str) -> Field:
    """Parse a field descriptor like "2^3/1011" (poly digits high-to-low)."""
    try:
        head, digits = desc.split("/")
        q_s, M_s = head.split("^")
        q, M = int(q_s), int(M_s)
        poly = tuple(int(c) for c in reversed(digits))
    except (ValueError, AttributeError) as e:
        raise FieldError(f"malformed field descriptor {desc!r}") from e
    if len(poly) != M + 1:
        raise FieldError(
            f"descriptor {desc!r}: polynomial has {len(poly) - 1} != {M} degree"
        )
    return field(q, M, poly)


def check_field_key(obj: dict, f: Field) -> None:
    """Raise FieldError unless obj's "field" key, when it has one, names f,
    the field of the matrices obj holds."""
    if "field" in obj and parse_descriptor(obj["field"]) != f:
        raise FieldError(f"field {obj['field']!r} is not the matrices' field {f.descriptor()}")
