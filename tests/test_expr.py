from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sullivan.fixtures import parse_job
from sullivan.errors import ParseError, SullivanError
from sullivan.expr import parse_element, parse_rational
from sullivan.gca import Element, Generator, Monomial

F = Fraction

a1 = Generator("a1", 2, index=0)
b = Generator("b", 3, stage=1, index=1)
c = Generator("c", 3, stage=1, index=2)
GENS = {"a1": a1, "b": b, "c": c}


def test_parse_simple_sum():
    x = parse_element("a1^2*b - 3/2*c", GENS)
    assert x == Element(
        {Monomial(((a1, 2), (b, 1))): F(1), Monomial.of(c): F(-3, 2)}
    )


def test_roundtrip_with_printer():
    x = parse_element("a1^2*b - 3/2*c", GENS)
    assert parse_element(str(x), GENS) == x


def test_whitespace_insensitive():
    assert parse_element(" a1 * b ", GENS) == parse_element("a1*b", GENS)


def test_leading_minus():
    assert parse_element("-a1", GENS) == -Element.from_generator(a1)


def test_bare_coefficient_is_a_constant():
    assert parse_element("5/3", GENS) == Element({Monomial.unit(): F(5, 3)})


def test_coefficient_times_monomial():
    assert parse_element("2*a1*b", GENS) == 2 * parse_element("a1*b", GENS)


def test_odd_square_parses_to_zero():
    assert parse_element("b^2", GENS).is_zero


def test_unknown_generator_reports_column():
    with pytest.raises(ParseError) as err:
        parse_element("a1*zz", GENS)
    assert "zz" in str(err.value)
    assert err.value.column == 4
    for text, name, column in [("2*b*zz^2", "zz", 5), ("zz", "zz", 1), ("b^2 - 3*q", "q", 9)]:
        with pytest.raises(ParseError) as err:
            parse_element(text, GENS, 7)
        assert str(err.value) == f"unknown generator {name!r} (line 7, column {column})"


def test_trailing_operator_rejected():
    with pytest.raises(ParseError):
        parse_element("a1 +", GENS)
    for text in ("a1 +", "a1 -", "-"):
        with pytest.raises(ParseError) as err:
            parse_element(text, GENS)
        assert str(err.value) == "expected a coefficient or a generator name"
    for text in ("a1*", "3/", "a1^"):
        with pytest.raises(ParseError) as err:
            parse_element(text, GENS)
        assert str(err.value) == "unexpected end of expression"
    for text, message in [
        ("a1 / 2", "expected '+' or '-', found '/' (column 6)"),
        ("a1 b", "expected op, found 'b' (column 4)"),
        ("+a1", "expected a coefficient or a generator name (column 1)"),
        ("^2", "expected a coefficient or a generator name (column 1)"),
        ("a1^0", "exponents must be >= 1 (column 4)"),
        ("1/0", "zero denominator (column 3)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_element(text, GENS)
        assert str(err.value) == message


def test_number_after_star_rejected():
    with pytest.raises(ParseError):
        parse_element("a1*3", GENS)
    for text, message in [
        ("a1*3", "expected ident, found '3' (column 4)"),
        ("2*3", "expected ident, found '3' (column 3)"),
        ("a1^b", "expected num, found 'b' (column 4)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_element(text, GENS)
        assert str(err.value) == message


def test_empty_expression_rejected():
    for text in ("   ", "", "\t"):
        with pytest.raises(ParseError) as err:
            parse_element(text, GENS, 3)
        assert str(err.value) == "empty expression (line 3)"


def test_stray_character_rejected():
    for text, char, column in [("a1 @ b", "@", 3), ("a1 . b", ".", 3), ("\u00e9", "\u00e9", 1)]:
        with pytest.raises(ParseError) as err:
            parse_element(text, GENS)
        assert str(err.value) == f"unexpected character {char!r} (column {column})"


def test_parse_rational():
    assert parse_rational("-3/2") == F(-3, 2)
    assert parse_rational("7") == F(7)
    assert parse_rational("+2/4") == F(1, 2)
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")


# ---------------------------------------------------------------------------
# oracle: the parse equals the same expression built from Element arithmetic

ORACLE_GENS = {**GENS, "a2": Generator("a2", 4, index=3), "d": Generator("d", 5, index=4)}

# a factor is (name, exponent), exponent None when it is not written
_FACTORS = st.tuples(st.sampled_from(sorted(ORACLE_GENS)), st.one_of(st.none(), st.integers(1, 3)))
# a term is (coefficient, factors): the coefficient is None when it is not
# written, else (numerator, denominator or None); no factors is a scalar
_COEFFICIENTS = st.one_of(
    st.none(), st.tuples(st.integers(0, 12), st.one_of(st.none(), st.integers(1, 6)))
)
_TERMS = st.tuples(_COEFFICIENTS, st.lists(_FACTORS, max_size=5)).filter(
    lambda term: term[0] is not None or term[1]
)


@st.composite
def _expressions(draw):
    """Signed terms; some repeat an earlier term with the opposite sign."""
    terms = draw(st.lists(st.tuples(st.sampled_from([1, -1]), _TERMS), min_size=1, max_size=6))
    for i in draw(st.lists(st.integers(0, len(terms) - 1), max_size=3)):
        sign, term = terms[i]
        terms.append((-sign, term))
    return terms


def _term_text(term):
    coeff, factors = term
    words = [] if coeff is None else [str(coeff[0]) + ("" if coeff[1] is None else f"/{coeff[1]}")]
    words += [name + ("" if e is None else f"^{e}") for name, e in factors]
    return "*".join(words)


def _term_element(term):
    coeff, factors = term
    out = Element({Monomial.unit(): 1 if coeff is None else F(coeff[0], coeff[1] or 1)})
    for name, e in factors:
        for _ in range(e or 1):
            out = out * Element.from_generator(ORACLE_GENS[name])
    return out


@settings(max_examples=300, deadline=None)
@given(_expressions())
def test_parse_element_matches_element_arithmetic(terms):
    text = ("-" if terms[0][0] < 0 else "") + _term_text(terms[0][1])
    expected = _term_element(terms[0][1]) * terms[0][0]
    for sign, term in terms[1:]:
        text += f" {'+' if sign > 0 else '-'} {_term_text(term)}"
        expected = expected + _term_element(term) if sign > 0 else expected - _term_element(term)
    assert parse_element(text, ORACLE_GENS) == expected


# ---------------------------------------------------------------------------
# fuzzing: any text parses or is refused with a SullivanError

_LONG = "9" * 4400  # beyond Python's default limit for integer string conversion
_ELEMENT_PIECES = st.sampled_from(
    ["a1", "b", "c", "x", "^", "*", "/", "+", "-", " ", "0", "1", "2", "3/2", "^2",
     "\t", "\x00", "\x1b", "\u00e9", "\u0663", "\u2028", "\uff11", _LONG]
)
_JOB_PIECES = st.sampled_from(
    ["algebra:", "attach:", "gen a 2", "gen b 3", "rel a^2", "rel a*b - b", "truncation 4",
     "cell 3", "alpha a 1/2", "alpha b -3/", "# note", "", "gen", "gen a \u0663",
     f"gen a {_LONG}", f"truncation {_LONG}", f"cell {_LONG}", f"alpha a {_LONG}/2",
     "cell x", "\x00", "\x0c", "\u2029", "names:", "name k a^2", "name k", "name 1k a"]
)


def _texts(pieces, sep):
    return st.one_of(
        st.text(),
        st.lists(st.one_of(pieces, st.text(max_size=3)), max_size=10).map(sep.join),
    )


@settings(max_examples=400, deadline=None)
@given(_texts(_ELEMENT_PIECES, ""))
def test_parse_element_parses_or_refuses_any_text(text):
    try:
        x = parse_element(text, GENS)
    except SullivanError:
        return
    printed = str(x)
    assert parse_element(printed, GENS) == x
    assert str(parse_element(printed, GENS)) == printed


@settings(max_examples=400, deadline=None)
@given(_texts(_JOB_PIECES, "\n"))
def test_parse_job_parses_or_refuses_any_text(text):
    try:
        parse_job(text)
    except SullivanError:
        pass


def test_a_number_too_long_to_convert_is_a_parse_error():
    for text in (_LONG, f"a1^{_LONG}", f"1/{_LONG}"):
        with pytest.raises(ParseError, match="^a number of 4400 digits is too long"):
            parse_element(text, GENS)
    with pytest.raises(ParseError, match="^a number of 4400 digits is too long \\(line 2\\)$"):
        parse_job(f"algebra:\n  gen a {_LONG}\n")
