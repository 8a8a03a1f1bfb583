"""Extended-rational arithmetic: conventions, order, parsing."""

import random
from fractions import Fraction

import pytest

from malg import (
    INF,
    ExtRational,
    InvalidRational,
    MalgError,
    NegativeWeight,
    make_space,
)
from malg.rationals import parse_rational, to_fraction

from helpers import general_parse_rational


def test_lowest_terms():
    x = ExtRational("6/8")
    assert x.as_fraction().numerator == 3
    assert x.as_fraction().denominator == 4
    assert ExtRational("10/4") == ExtRational(Fraction(5, 2))


def test_integer_and_string_forms():
    assert str(ExtRational(3)) == "3"
    assert str(ExtRational(Fraction(5, 6))) == "5/6"
    assert str(ExtRational(0)) == "0"
    assert str(INF) == "inf"
    for text in ["5/6", "3", "0", "7/2", "inf"]:
        assert str(ExtRational(text)) == text


def test_negative_rejected():
    # ExtRational states the sign rule once, for make_space too: a negative
    # value raises NegativeWeight, a MalgError that is still a ValueError
    for value in (-1, "-3/4", Fraction(-1, 2)):
        with pytest.raises(NegativeWeight) as caught:
            ExtRational(value)
        assert isinstance(caught.value, MalgError)
        assert isinstance(caught.value, ValueError)
        with pytest.raises(NegativeWeight):
            make_space(["p"], [["p"]], [value])


def test_string_digit_bound():
    # 4300 digits is CPython's default int-to-str limit: anything parsed prints
    assert str(ExtRational("1e4299")) == "1" + "0" * 4299
    assert ExtRational("1e-4299").as_fraction().denominator == 10**4299
    for text in ["1e4300", "1e-4300", "1" * 4301, "1/" + "3" * 4301, "1e99999999"]:
        with pytest.raises(ValueError):
            ExtRational(text)
    # InvalidRational is a MalgError that is still a ValueError
    with pytest.raises(InvalidRational):
        ExtRational("1e4300")
    with pytest.raises(InvalidRational):
        ExtRational("abc")
    with pytest.raises(InvalidRational):
        to_fraction("inf")  # finite values only
    assert ExtRational("inf") == INF


def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:  # the reference's exception is the expectation
        return type(exc), str(exc)
    return type(value), value


def test_parse_rational_matches_general_path():
    # the short path must not change what any string parses to, or the
    # type and message of what it raises
    rng = random.Random(20261018)
    # digits weighted up, so that many draws are plain "p" and "p/q"
    pieces = list("0123456789" * 3 + "/+-_.eE ") + ["\u0663", "\u00b2", "inf"]
    texts = [
        "".join(rng.choices(pieces, k=rng.randrange(13))) for _ in range(100_000)
    ]
    texts += ["0/0", "3/0", "007", "007/010", "1e5000", "5/6", "0", "00/7"]
    for digits in (4300, 4301):
        texts += ["9" * digits, "1/" + "3" * digits, "2" * digits + "/7"]
    for length in (8616, 8617):  # the length cap is 2 * 4300 + 16
        texts += ["0" * (length - 1) + "7", "1/" + "0" * (length - 3) + "3"]
    for length in (63, 64, 65, 66):  # around the short path's bound
        texts += ["7" * length, "1/" + "3" * (length - 2), "1/" + "0" * (length - 2)]
    for text in texts:
        assert _outcome(parse_rational, text) == _outcome(
            general_parse_rational, text
        ), text


def test_to_fraction_types():
    class Half(Fraction):
        pass

    exact = Fraction(5, 6)
    assert to_fraction(exact) is exact
    for value, expected in [(True, 1), (7, 7), (Half(1, 2), Fraction(1, 2))]:
        got = to_fraction(value)
        assert type(got) is Fraction and got == expected
    with pytest.raises(TypeError):
        to_fraction(0.5)
    with pytest.raises(TypeError):
        ExtRational(0.5)


def test_addition():
    assert ExtRational("1/2") + ExtRational("1/3") == ExtRational("5/6")
    assert ExtRational(7) + INF == INF
    assert INF + INF == INF
    assert sum([ExtRational(1), ExtRational(2)], ExtRational(0)) == ExtRational(3)
    # sum() starts from int 0
    assert sum([ExtRational("1/2"), ExtRational("1/2")]) == ExtRational(1)


def test_multiplication_conventions():
    assert ExtRational("2/3") * ExtRational("3/4") == ExtRational("1/2")
    assert ExtRational(0) * INF == ExtRational(0)
    assert INF * ExtRational(0) == ExtRational(0)
    assert ExtRational(5) * INF == INF
    assert INF * INF == INF
    assert Fraction(2) * INF == INF
    assert 0 * INF == ExtRational(0)


def test_no_division():
    # each route to the constant divides in its own arithmetic, so there
    # is no shared ratio operator to get wrong for all of them at once
    with pytest.raises(TypeError):
        ExtRational(1) / ExtRational(2)


def test_total_order():
    vals = [INF, ExtRational("1/2"), ExtRational(0), ExtRational(3)]
    assert sorted(vals) == [ExtRational(0), ExtRational("1/2"), ExtRational(3), INF]
    assert all(v < INF for v in vals[1:])
    assert INF <= INF
    assert not INF < INF
    assert ExtRational(2) >= 2
    assert ExtRational("1/2") > Fraction(1, 3)


def test_hash_matches_equality():
    assert hash(ExtRational(3)) == hash(3)
    assert hash(ExtRational("1/2")) == hash(Fraction(1, 2))
    # an ExtRational given to ExtRational keeps its value
    for value in (ExtRational("1/2"), INF):
        assert ExtRational(value) == value and hash(ExtRational(value)) == hash(value)
    d = {ExtRational("1/2"): "half", INF: "top"}
    assert d[ExtRational("2/4")] == "half"
    assert d[ExtRational.infinity()] == "top"


def test_as_fraction():
    assert ExtRational("5/6").as_fraction() == Fraction(5, 6)
    with pytest.raises(ValueError):
        INF.as_fraction()


def test_is_flags():
    assert INF.is_infinite and not INF.is_zero
    assert ExtRational(0).is_zero and not ExtRational(0).is_infinite
    assert not ExtRational("1/7").is_zero


def grid():
    vals = [ExtRational(Fraction(p, q)) for p in range(4) for q in (1, 2, 3)]
    return vals + [INF]


def test_commutativity_exhaustive():
    for a in grid():
        for b in grid():
            assert a + b == b + a
            assert a * b == b * a


def test_associativity_and_distributivity_exhaustive():
    g = grid()
    for a in g:
        for b in g:
            for c in g:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
