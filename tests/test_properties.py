"""Property tests for the polynomial parser.

Example counts stay small and generation is derandomized, so these run in
about a second and give the same verdict on every run.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulkit.ring import FamilyRegistry, ParseError, Poly, parse_poly

REG = FamilyRegistry()
REG.commuting("x", 3)

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)

monomials = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 4)), max_size=3, unique_by=lambda ge: ge[0]
).map(lambda pairs: tuple(sorted(pairs)))
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool)
polys = st.dictionaries(monomials, coefficients, max_size=5).map(lambda terms: Poly(REG, terms))

# tokens joined by spaces, so adjacent digits never fuse into a huge exponent
TOKENS = ["x1", "x2", "x3", "y", "(", ")", "+", "-", "*", "^", "/", "0", "1", "2", "3/4", "$"]
token_text = st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join)


@PROPERTY
@given(polys)
def test_rendered_poly_parses_back(p):
    assert parse_poly(REG, str(p)) == p


@PROPERTY
@given(st.one_of(st.text(max_size=30), token_text))
@example("\u00b2")  # a digit that int() rejects
@example("9" * 5000)  # more digits than int() converts
@example("(" * 1200 + "x1" + ")" * 1200)
def test_parse_returns_poly_or_raises_parse_error(text):
    try:
        result = parse_poly(REG, text)
    except ParseError:
        return
    assert isinstance(result, Poly)
    # the coefficient rule: int when integral, else Fraction; never a bool
    assert all(type(c) in (int, Fraction) and c for c in result.terms.values())
