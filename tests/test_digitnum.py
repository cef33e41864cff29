import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from b2sets.digitnum import DigitVector

ZERO = DigitVector(())


def dv(mapping):
    return DigitVector.from_map(mapping)


def int_sum(a, b):
    """The balanced expansion of the integer sum of two values."""
    return DigitVector.from_integer(a.to_integer() + b.to_integer())


class TestConstruction:
    def test_zero_digits_dropped(self):
        assert dv({3: 0, 5: 1}) == dv({5: 1})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DigitVector(((0, 3),))
        with pytest.raises(ValueError):
            DigitVector(((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            DigitVector(((-1, 1),))

    @pytest.mark.parametrize(
        "digits, message",
        [
            (((2, 1), (2, -1)), "exponents must be strictly increasing"),
            (((3, 1), (1, 1)), "exponents must be strictly increasing"),
            (((-1, 1),), "exponents must be strictly increasing"),
            (((0, 0),), "digit 0 outside nonzero"),
            (((4, -3),), "digit -3 outside nonzero"),
        ],
    )
    def test_validation_messages(self, digits, message):
        with pytest.raises(ValueError, match=message):
            DigitVector(digits)


class TestValueSemantics:
    """A DigitVector is an immutable value, compared and hashed by its
    digits, and never a tuple: a tuple element is a planar point."""

    def test_equality_and_hash_follow_the_digits(self):
        a, b = dv({7: 1, 11: -2}), DigitVector(((7, 1), (11, -2)))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != dv({7: 1}) and len({a, b, dv({7: 1})}) == 2
        assert a != a.digits and a != a.to_integer()
        assert DigitVector() == ZERO

    def test_repr(self):
        assert repr(dv({7: 1, 11: -2})) == "DigitVector(digits=((7, 1), (11, -2)))"
        assert repr(ZERO) == "DigitVector(digits=())"

    def test_immutable(self):
        a = dv({7: 1})
        with pytest.raises(AttributeError):
            a.digits = ((8, 1),)
        with pytest.raises(AttributeError):
            a.other = 1
        with pytest.raises(AttributeError):
            del a.digits
        assert a.digits == ((7, 1),)

    def test_not_a_tuple_and_copies_are_equal(self):
        a = dv({7: 1, 11: -2})
        assert not isinstance(a, tuple)
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


class TestArithmetic:
    """Values are added as ints; sums and differences of two sign-digit
    values expand without carries."""

    def test_add_pointwise(self):
        assert int_sum(dv({7: 1, 11: 1}), dv({7: 1, 15: -1})) == dv({7: 2, 11: 1, 15: -1})

    def test_add_cancellation(self):
        assert int_sum(dv({3: 1}), dv({3: -1})) == ZERO

    def test_negate(self):
        a = dv({7: 1, 11: -1})
        assert DigitVector.from_integer(-a.to_integer()) == dv({7: -1, 11: 1})

    def test_sub(self):
        def int_diff(a, b):
            return DigitVector.from_integer(a.to_integer() - b.to_integer())

        assert int_diff(dv({7: 1}), dv({7: 1})) == ZERO
        assert int_diff(dv({7: 1, 11: 1}), dv({15: 1})) == dv({7: 1, 11: 1, 15: -1})


class TestConversion:
    def test_to_integer_small(self):
        assert dv({1: 1}).to_integer() == 5
        assert dv({0: 2, 1: -1}).to_integer() == -3

    def test_to_integer_large(self):
        # 5^7 + 5^11 + 5^15 evaluated independently
        assert dv({7: 1, 11: 1, 15: 1}).to_integer() == 30566484375

    def test_from_integer_balanced(self):
        assert DigitVector.from_integer(0) == ZERO
        assert DigitVector.from_integer(-3) == dv({0: 2, 1: -1})
        assert DigitVector.from_integer(30566484375) == dv({7: 1, 11: 1, 15: 1})

    def test_sparse_text_round_trip(self):
        a = dv({7: 1, 11: 2, 15: -1})
        assert a.to_sparse() == "5^7+2*5^11-5^15"
        assert DigitVector.parse(a.to_sparse()) == a
        assert DigitVector.parse("0") == ZERO
        assert ZERO.to_sparse() == "0"

    def test_parse_decimal(self):
        assert DigitVector.parse("30566484375") == dv({7: 1, 11: 1, 15: 1})
        assert DigitVector.parse("-3") == dv({0: 2, 1: -1})

    def test_parse_garbage(self):
        for bad in ("", "5^", "5^3+quux", "5**3"):
            with pytest.raises(ValueError):
                DigitVector.parse(bad)


digit_maps = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([-1, 1]),
    max_size=12,
)


@given(digit_maps)
def test_round_trip(mapping):
    a = dv(mapping)
    assert DigitVector.from_integer(a.to_integer()) == a


@given(digit_maps, digit_maps)
def test_add_homomorphism(m1, m2):
    # sign digits never carry: the integer sum expands digit by digit
    pointwise = {e: m1.get(e, 0) + m2.get(e, 0) for e in m1.keys() | m2.keys()}
    assert int_sum(dv(m1), dv(m2)) == dv(pointwise)


@given(digit_maps, digit_maps)
def test_uniqueness(m1, m2):
    a, b = dv(m1), dv(m2)
    assert (a == b) == (a.to_integer() == b.to_integer())


@given(st.integers(min_value=-10**30, max_value=10**30))
def test_from_integer_total(n):
    a = DigitVector.from_integer(n)
    assert a.to_integer() == n
    assert all(-2 <= c <= 2 and c != 0 for _, c in a.digits)
