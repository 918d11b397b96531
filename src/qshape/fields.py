"""Exact scalars: the rationals and prime fields GF(p).

Elements are plain ``fractions.Fraction`` values in characteristic 0 and
ints in ``range(p)`` in characteristic p, so every stored scalar is already
in canonical form (lowest terms / least non-negative residue).
"""

from fractions import Fraction


def is_prime(n):
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7.

    Exact for n < 3,215,031,751, the least strong pseudoprime to all four
    bases, which covers every characteristic below 2^31.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """A base field, identified by its characteristic (0 or a prime < 2^31)."""

    __slots__ = ("char",)

    def __init__(self, char=0):
        char = int(char)
        if char != 0 and (char < 2 or char >= 2**31 or not is_prime(char)):
            raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {char}")
        self.char = char

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.char == other.char

    def __hash__(self):
        return hash(("FieldSpec", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    # -- element constructors ------------------------------------------------

    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def from_int(self, n):
        return Fraction(n) if self.char == 0 else n % self.char

    def coerce(self, x):
        """Accept ints, Fractions and 'p/q' strings; reject floats."""
        if isinstance(x, bool):
            raise TypeError("booleans are not scalars")
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            if self.char == 0:
                return x
            return self.div(self.from_int(x.numerator), self.from_int(x.denominator))
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.char == 0 else pow(a, -1, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0

    # -- formatting ----------------------------------------------------------

    def to_str(self, a):
        if self.char == 0:
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return str(a)


QQ = FieldSpec(0)


def check_same_field(f1, f2):
    if f1 != f2:
        raise ValueError(f"mixed-field input: {f1!r} vs {f2!r}")
