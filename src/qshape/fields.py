"""Exact scalars: the rationals and prime fields GF(p).

The contract: over QQ a scalar is an int when integral, else a
``fractions.Fraction`` in lowest terms; ints in ``range(p)`` over GF(p).
Every stored scalar is thus in one canonical form, and the integers that
make up almost all of the rationals an elimination meets cost int
arithmetic, not ``Fraction`` arithmetic.  No module but this one names
``Fraction``.

The sparse-vector kernels live here too, bound per field: ``axpy`` and
``scale`` on dicts index -> nonzero scalar (see ``FieldSpec``), with the
scalar op written into the loop, so a row operation costs one loop step
per entry and no call per entry.
"""

import re
from fractions import Fraction
from math import isqrt
from operator import index


def is_prime(n):
    """Trial division: exact, and a few ms for the largest characteristic,
    2^31 - 1, checked once per field."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class FieldSpec:
    """A base field, identified by its characteristic (0 or a prime < 2^31).

    The arithmetic ops are bound once per field in ``__init__``, so no op
    tests the characteristic when it is called.  ``muladd(y, c, x)`` is the
    fused scalar ``y + c*x``: one normalisation over QQ, one ``% p`` over
    GF(p).

    ``axpy`` and ``scale`` are the sparse kernels of elimination, on dicts
    index -> nonzero scalar in canonical form:
    - ``axpy(acc, w, c)`` does acc += c*w in place and returns acc.  It
      costs O(nnz(w)): an entry of w that acc lacks is appended, in w's
      order, an entry that cancels is deleted, and the others are updated
      where they stand.  c = 0 leaves acc unchanged.
    - ``scale(vec, c)`` returns c*vec as a fresh dict.
    """

    __slots__ = ("char", "zero", "one", "from_int", "coerce", "add", "mul",
                 "muladd", "neg", "inv", "axpy", "scale")

    def __init__(self, char=0):
        char = int(char)
        if char != 0 and (char < 2 or char >= 2**31 or not is_prime(char)):
            raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {char}")
        self.char = char
        ops = _qq_ops() if char == 0 else _gf_ops(char)
        for name, op in ops.items():
            setattr(self, name, op)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.char == other.char

    def __hash__(self):
        return hash(("FieldSpec", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def to_str(a):
        return str(a)


def _zero():
    return 0


def _one():
    return 1


def _coercer(name, from_int, from_fraction):
    def coerce(x):
        """Accept ints, Fractions and signed ASCII 'n' or 'p/q' strings;
        reject floats and other strings, which Fraction(str) would read
        ("1.5", "2e1", "1_0", " 1 "), and (ValueError) a zero denominator
        or, over GF(p), one divisible by p."""
        if isinstance(x, bool):
            raise TypeError("booleans are not scalars")
        if isinstance(x, int):
            return from_int(x)
        try:
            if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x):
                x = Fraction(x)
            if isinstance(x, Fraction):
                return from_fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {name}: {x}") from None
        raise TypeError(f"cannot coerce {x!r} into {name}")
    return coerce


def _qq_ops():
    # a Fraction op returns lowest terms, so the only canonicalisation left
    # is denominator 1 -> int; the int test first keeps the common case
    # cheap, and the three ops of the inner loops inline it to save a call
    def canon(r):
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def add(a, b):
        r = a + b
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def mul(a, b):
        r = a * b
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def muladd(y, c, x):
        r = y + c * x
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def neg(a):
        return -a

    def inv(a):
        if a == 1 or a == -1:  # almost every pivot; its own inverse
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # Fraction(1) / a, never 1 / a: the latter is a float for an int a
        return canon(Fraction(1) / a)

    # entries of w are nonzero, so c*x is nonzero for c != 0, and only a sum
    # can cancel; a Fraction op that lands on an integer has denominator 1
    def axpy(acc, w, c):
        if c == 0:
            return acc
        get = acc.get
        for i, x in w.items():
            y = get(i)
            if y is None:
                r = c * x
            else:
                r = y + c * x
                if not r:
                    del acc[i]
                    continue
            acc[i] = r if type(r) is int or r.denominator != 1 else r.numerator
        return acc

    def scale(vec, c):
        if c == 0:
            return {}
        out = {}
        for i, x in vec.items():
            r = c * x
            out[i] = r if type(r) is int or r.denominator != 1 else r.numerator
        return out

    return {"zero": _zero, "one": _one, "from_int": index,
            "coerce": _coercer("QQ", index, canon),
            "add": add, "mul": mul, "muladd": muladd, "neg": neg,
            "inv": inv, "axpy": axpy, "scale": scale}


def _gf_ops(p):
    def from_int(n):
        return n % p

    def add(a, b):
        return (a + b) % p

    def mul(a, b):
        return (a * b) % p

    def muladd(y, c, x):
        return (y + c * x) % p

    def neg(a):
        return (-a) % p

    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, p)

    def from_fraction(x):
        return x.numerator * inv(x.denominator % p) % p

    def axpy(acc, w, c):
        if c == 0:
            return acc
        get = acc.get
        for i, x in w.items():
            y = get(i)
            if y is None:
                acc[i] = c * x % p
                continue
            y = (y + c * x) % p
            if y:
                acc[i] = y
            else:
                del acc[i]
        return acc

    def scale(vec, c):
        if c == 0:
            return {}
        return {i: c * x % p for i, x in vec.items()}

    return {"zero": _zero, "one": _one, "from_int": from_int,
            "coerce": _coercer(f"GF({p})", from_int, from_fraction),
            "add": add, "mul": mul, "muladd": muladd, "neg": neg,
            "inv": inv, "axpy": axpy, "scale": scale}


QQ = FieldSpec(0)


def check_same_field(f1, f2):
    if f1 != f2:
        raise ValueError(f"mixed-field input: {f1!r} vs {f2!r}")
