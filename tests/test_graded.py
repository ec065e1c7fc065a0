from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severi.reference import (
    GradedPoly,
    Symbol,
    SymbolTable,
    TruncationRules,
    eval_graded,
    graded_mul,
)

TABLE = SymbolTable([Symbol("H", 1, 4), Symbol("a", 1), Symbol("b", 2)])
H4_ON = TruncationRules(nilpotent=True)
FREE = TruncationRules(nilpotent=False)


def mono(powers, c=1):
    return GradedPoly.monomial(TABLE, powers, c)


def test_nilpotency_rule():
    h3 = mono({"H": 3})
    h1 = mono({"H": 1})
    assert graded_mul(h3, h1, H4_ON).is_zero()
    assert not graded_mul(h3, h1, FREE).is_zero()


def test_unit_law():
    p = mono({"H": 2}, 3) + mono({"a": 1}, Fraction(1, 2))
    one = GradedPoly.constant(TABLE, 1)
    assert graded_mul(p, one, FREE) == p


def test_alternating_inverse_of_one_plus_h():
    # (1+H)(1-H+H^2-H^3) = 1 under H^4 = 0
    one_plus = GradedPoly.constant(TABLE, 1) + mono({"H": 1})
    alt = GradedPoly.constant(TABLE, 1)
    for k, s in ((1, -1), (2, 1), (3, -1)):
        alt = alt + mono({"H": k}, s)
    assert graded_mul(one_plus, alt, H4_ON) == GradedPoly.constant(TABLE, 1)


def test_degree_cap():
    p = mono({"a": 1})
    capped = TruncationRules(degree_cap=1, nilpotent=False)
    assert graded_mul(p, p, capped).is_zero()
    assert not graded_mul(p, p, FREE).is_zero()


def test_eval():
    assert eval_graded(mono({"H": 3}), {"H": 5}) == 125
    assert eval_graded(GradedPoly.zero(TABLE), {}) == 0
    p = mono({"H": 1, "b": 2}, Fraction(1, 3))
    assert eval_graded(p, {"H": 3, "b": 2}) == 4


def test_eval_missing_symbol():
    with pytest.raises(ValueError, match="missing symbols"):
        eval_graded(mono({"a": 1}), {"H": 1})


def _random_polys():
    term = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-5, max_value=5),
    )
    return st.lists(term, min_size=0, max_size=5).map(
        lambda ts: sum(
            (mono({"H": h, "a": a, "b": b}, c) for h, a, b, c in ts),
            GradedPoly.zero(TABLE),
        )
    )


@settings(max_examples=40)
@given(_random_polys(), _random_polys())
def test_mul_commutative(p, q):
    assert graded_mul(p, q, H4_ON) == graded_mul(q, p, H4_ON)


@settings(max_examples=40)
@given(_random_polys(), _random_polys(), _random_polys())
def test_mul_associative_with_truncation(p, q, r):
    # truncation applied stepwise equals truncation applied at the end:
    # dropped terms could never re-enter admitted degrees
    rules = TruncationRules(degree_cap=5, nilpotent=True)
    left = graded_mul(graded_mul(p, q, rules), r, rules)
    right = graded_mul(p, graded_mul(q, r, rules), rules)
    free = graded_mul(graded_mul(p, q, FREE), r, FREE)
    clipped = GradedPoly(
        TABLE,
        {
            e: c
            for e, c in free.terms.items()
            if TABLE.monomial_degree(e) <= 5 and e[0] < 4
        },
    )
    assert left == right == clipped
