"""Sparse balanced base-5 integers: the text and storage codec for
element values.

Every element of the constructed set families, and every pairwise sum or
difference of two such elements, has a base-5 expansion with digits in
{-2, -1, 0, 1, 2}. Such expansions are unique, so a sparse map from
exponent to nonzero digit is a canonical, carry-free representation of a
number with hundreds of digits.

DigitVector only converts: to and from integers, digit maps and the
sparse text form ``5^7+2*5^11-5^15``. Analyses never do arithmetic on
it; they compare and combine values as Python ints (``to_integer``).
"""

from __future__ import annotations

import re

from .errors import ParameterError

COEFF_MIN = -2
COEFF_MAX = 2

_SPARSE_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?5\^(\d+)")
_DECIMAL = re.compile(r"[+-]?\d+")


class DigitVector:
    """A balanced base-5 integer stored as sorted (exponent, digit) pairs.

    Invariants: exponents are non-negative and strictly increasing, digits
    are nonzero and lie in [-2, 2]. Two DigitVectors are equal exactly when
    their digit tuples are equal, which by uniqueness of balanced base-5
    expansions means they represent the same integer. Instances are
    immutable. Not a tuple: callers read a tuple element as a planar point.
    """

    __slots__ = ("digits",)

    def __init__(self, digits: tuple[tuple[int, int], ...] = ()):
        last = -1  # so the first exponent must be non-negative
        for exponent, coeff in digits:
            if exponent <= last:
                raise ValueError("exponents must be strictly increasing")
            if coeff == 0 or not (COEFF_MIN <= coeff <= COEFF_MAX):
                raise ValueError(f"digit {coeff} outside nonzero [-2, 2]")
            last = exponent
        object.__setattr__(self, "digits", digits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.digits == other.digits

    def __hash__(self):
        return hash((self.digits,))

    def __repr__(self):
        return f"DigitVector(digits={self.digits!r})"

    def __reduce__(self):
        return DigitVector, (self.digits,)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_map(cls, mapping) -> "DigitVector":
        """Build from an exponent -> digit mapping; zero digits are dropped."""
        items = tuple(sorted((e, c) for e, c in mapping.items() if c != 0))
        return cls(items)

    @classmethod
    def from_integer(cls, value: int) -> "DigitVector":
        """Balanced base-5 expansion of an arbitrary integer."""
        digits = {}
        v = value
        e = 0
        while v:
            r = v % 5
            if r > 2:
                r -= 5
            if r:
                digits[e] = r
            v = (v - r) // 5
            e += 1
        return cls(tuple(sorted(digits.items())))

    @classmethod
    def parse(cls, text: str) -> "DigitVector":
        """Parse either sparse notation like ``5^7+2*5^11-5^15`` or a
        plain decimal string."""
        compact = "".join(text.split())
        if not compact:
            raise ValueError("empty input")
        if _DECIMAL.fullmatch(compact):
            return cls.from_integer(int(compact))
        mapping: dict[int, int] = {}
        pos = 0
        for m in _SPARSE_TERM.finditer(compact):
            if m.start() != pos:
                raise ValueError(f"cannot parse {text!r} at {compact[pos:]!r}")
            pos = m.end()
            sign = -1 if m.group(1) == "-" else 1
            magnitude = int(m.group(2)) if m.group(2) else 1
            exponent = int(m.group(3))
            coeff = mapping.get(exponent, 0) + sign * magnitude
            if coeff:
                mapping[exponent] = coeff
            else:
                mapping.pop(exponent, None)
        if pos != len(compact):
            raise ValueError(f"cannot parse {text!r} at {compact[pos:]!r}")
        return cls.from_map(mapping)

    # -- conversions ------------------------------------------------------

    def to_integer(self) -> int:
        return sum(c * 5**e for e, c in self.digits)

    __int__ = to_integer

    def to_sparse(self) -> str:
        if not self.digits:
            return "0"
        pieces = []
        for e, c in self.digits:
            sign = "-" if c < 0 else ("+" if pieces else "")
            mag = abs(c)
            term = f"5^{e}" if mag == 1 else f"{mag}*5^{e}"
            pieces.append(sign + term)
        return "".join(pieces)

    def __str__(self):
        return self.to_sparse()


def as_int(x) -> int:
    """An element value as an int: a DigitVector's integer, an int itself."""
    if isinstance(x, DigitVector):
        return x.to_integer()
    if isinstance(x, int):
        return x
    raise ParameterError(f"cannot treat {x!r} as an integer")
