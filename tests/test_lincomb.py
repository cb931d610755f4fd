"""LinearCombination products against a pair-by-pair oracle that multiplies
the coefficients in exact arithmetic, in all four algebras: words, Wick
products of normal forms, BELL and tensors.  Every result matches the
oracle in value, and each of its coefficients is an int exactly when it is
whole (``coefficient_rule``)."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellhop.lincomb
from bellhop.boson import (A, AD, BosonExpression, NormalOrderedForm, forgetful_normal_order, normal_order,
                           parse_expression, word_key, word_letters)
from bellhop.hopf import HopfElement, Monomial, TensorElement, antipode, coproduct, element_from_json, element_to_json
from bellhop.lincomb import _over_common_scale
from coefficient_rule import assert_canonical

PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, math.isqrt(p) + 1))][:40]

_MONOMIALS = [Monomial(c) for n in range(5) for c in itertools.combinations_with_replacement(range(1, 5), n)]
# 40 keys per algebra; small operands draw from the first 8, so that products
# collide on keys and cancel
KEYS = {
    BosonExpression: [word_key(w) for n in range(1, 6) for w in itertools.product((A, AD), repeat=n)][:40],
    NormalOrderedForm: sorted(itertools.product(range(7), repeat=2), key=lambda rs: (sum(rs), rs))[:40],
    HopfElement: _MONOMIALS[:40],
    TensorElement: list(itertools.product(_MONOMIALS[:7], repeat=2))[:40],
}
COEFFICIENTS = {
    "int": st.integers(-6, 6),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=12),
    "whole fraction": st.integers(-6, 6).map(Fraction),  # the constructor reads Fraction(3) as 3
    "mixed": st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=12)),
}


def product_oracle(x, y) -> dict:
    """x * y pair by pair in exact arithmetic; a key whose sum reaches zero
    goes.  Words concatenate as letter tuples, decoded and encoded again;
    other keys multiply by the algebra's key product."""
    out: dict = {}
    for (k1, c1), (k2, c2) in itertools.product(x.terms.items(), y.terms.items()):
        if type(x) is BosonExpression:
            keys = ((word_key(word_letters(k1) + word_letters(k2)), 1),)
        else:
            keys = x.key_product(k1, k2)
        for k, w in keys:
            c = out.pop(k, 0) + c1 * c2 * w
            if c:
                out[k] = c
    return out


@st.composite
def operands(draw, cls):
    kind = draw(st.sampled_from([*COEFFICIENTS, "primes"]))
    keys = KEYS[cls]
    if kind == "primes":  # 40 distinct prime denominators: a scale of ~250 bits
        nums = draw(st.lists(st.integers(1, 9), min_size=len(keys), max_size=len(keys)))
        return cls({k: Fraction(n, p) for k, n, p in zip(keys, nums, PRIMES)})
    chosen = draw(st.lists(st.sampled_from(keys[:8]), max_size=5))
    return cls({k: draw(COEFFICIENTS[kind]) for k in chosen})


def assert_same(got: dict, want: dict):
    """Equal values, and each coefficient got is an int exactly when it is whole."""
    assert got == want
    assert_canonical(got.values())


@pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_matches_the_fraction_oracle_in_value_and_type(cls, data):
    x, y = data.draw(operands(cls)), data.draw(operands(cls))
    assert_same((x * y).terms, product_oracle(x, y))


CANCELLING = {
    # two pairs reach the last key with opposite signs
    BosonExpression: ("ad + ad a", "a ad - ad", word_key((AD, A, AD))),
    NormalOrderedForm: ("ad + a", "a - ad", (1, 1)),
    HopfElement: ("y1 + y2", "y2 - y1", Monomial((1, 2))),
}


@pytest.mark.parametrize("cls", list(CANCELLING), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("cx, cy", [(1, 1), (Fraction(1, 2), 1), (Fraction(1, 2), Fraction(5, 3)),
                                    (Fraction(3), Fraction(2)), (1, Fraction(-4))])
def test_cancelling_products_match_the_oracle(cls, cx, cy):
    text_x, text_y, cancelled = CANCELLING[cls]
    x, y = cls.parse(text_x) * cx, cls.parse(text_y) * cy
    assert cancelled not in (x * y).terms
    assert_same((x * y).terms, product_oracle(x, y))


def test_tensor_products_cancel_like_the_oracle():
    one, y1 = Monomial(), Monomial((1,))
    x = TensorElement({(y1, one): Fraction(1, 2), (one, y1): Fraction(1, 2)})
    y = TensorElement({(y1, one): Fraction(2, 3), (one, y1): Fraction(-2, 3)})
    assert (y1, y1) not in (x * y).terms
    assert_same((x * y).terms, product_oracle(x, y))


# BosonExpression multiplies words by concatenation: one comprehension when
# one side has one word length, a loop that collides and cancels when both
# sides mix lengths.  Integer texts; the scalars give the coefficient kinds,
# whole Fractions among them.
WORD_PAIRS = {
    "one length left": ("ad a - 2 a ad + 3 a^2", "1 + 5 ad - 7 ad a^2"),
    "one length right": ("1 + 5 ad - 7 ad a^2", "ad a - 2 a ad + 3 a^2"),
    "one length each": ("3 ad - 2 a", "5 ad + a"),
    # the empty word and ad meet on ad, and ad a ad twice: both cancel
    "mixed lengths": ("1 + ad + ad a", "a ad - ad + 1"),
}
SCALARS = [(1, 1), (Fraction(1, 2), 1), (1, Fraction(5, 3)), (Fraction(1, 2), Fraction(5, 3)),
           (Fraction(3), Fraction(2)), (1, Fraction(-4)), (0, 1)]


@pytest.mark.parametrize("texts", list(WORD_PAIRS.values()), ids=list(WORD_PAIRS))
@pytest.mark.parametrize("cx, cy", SCALARS)
def test_word_products_match_the_oracle(texts, cx, cy):
    x, y = (BosonExpression.parse(t) for t in texts)
    x, y = x * cx, y * cy
    for u, v in ((x, y), (y, x), (x, BosonExpression()), (BosonExpression(), y)):
        assert_same((u * v).terms, product_oracle(u, v))
    if texts == WORD_PAIRS["mixed lengths"] and cx:
        assert word_key((AD,)) not in (x * y).terms and word_key((AD, A, AD)) not in (x * y).terms


def test_word_products_make_whole_fractions_ints():
    # whole Fractions are read as ints, and whole products of proper
    # Fractions come out as ints, on either path of the word product
    x = BosonExpression({word_key((AD,)): Fraction(3), word_key((A,)): Fraction(2)})
    assert set(map(type, x.terms.values())) == {int}
    for y in (x, x + BosonExpression.one() * 5, BosonExpression({word_key(()): Fraction(4), word_key((A, A)): 1})):
        product = x * y
        assert set(map(type, product.terms.values())) == {int}
        assert_same(product.terms, product_oracle(x, y))
    assert (x * x).terms[word_key((AD, A))] == 6
    # 3/2 ad times 2/3 a^2 is whole: the loop (mixed lengths on both sides)
    # and the comprehension (one length on the right) make it an int
    x = BosonExpression({word_key((AD,)): Fraction(3, 2), word_key((A, A)): Fraction(2, 3), 1: Fraction(1, 2)})
    for y in (x, BosonExpression({word_key((A, A)): Fraction(2, 3), word_key((AD, A)): Fraction(4, 3)})):
        product = x * y
        assert set(map(type, product.terms.values())) == {int, Fraction}
        assert_same(product.terms, product_oracle(x, y))
        assert type(product.terms[word_key((AD, A, A))]) is int


def lcm_of_denominators(x) -> int:
    return math.lcm(*(c.denominator for c in x.terms.values()))


@pytest.mark.parametrize("mixed", [(False, False), (False, True), (True, True)], ids=["one-one", "one-mixed", "mixed-mixed"])
def test_word_products_with_prime_denominators(mixed):
    # 32 distinct primes per operand: each scale is their product
    def operand(mixed_lengths, shift):
        words = KEYS[BosonExpression] if mixed_lengths else list(map(word_key, itertools.product((A, AD), repeat=5)))
        return BosonExpression({w: Fraction(i + 1, PRIMES[i + shift]) for i, w in enumerate(words[:32])})

    x, y = operand(mixed[0], 0), operand(mixed[1], 8)
    assert _over_common_scale(x.terms)[1] == lcm_of_denominators(x)
    assert _over_common_scale(y.terms)[1] == lcm_of_denominators(y)
    assert_same((x * y).terms, product_oracle(x, y))


def test_the_common_scale_is_the_lcm_of_the_denominators():
    primes = BosonExpression({k: Fraction(1, p) for k, p in zip(KEYS[BosonExpression], PRIMES)})
    for x in (primes, BosonExpression.parse("(11/6 ad - 7/4 a)^4")):
        scaled, scale = _over_common_scale(x.terms)
        assert scale == lcm_of_denominators(x)
        assert all(type(n) is int and Fraction(n, scale) == x.terms[k] for k, n in scaled.items())


def test_wick_products_with_prime_denominators_run_on_integers(monkeypatch):
    scales = []
    original = bellhop.lincomb._unscaled

    def unscaled(numerators, scale):
        scales.append(scale)
        return original(numerators, scale)

    monkeypatch.setattr(bellhop.lincomb, "_unscaled", unscaled)
    x = NormalOrderedForm({k: Fraction(i + 1, p) for i, (k, p) in enumerate(zip(KEYS[NormalOrderedForm], PRIMES))})
    y = NormalOrderedForm({k: Fraction(1, p) for k, p in zip(KEYS[NormalOrderedForm][:8], PRIMES[::-1])})
    assert_same((x * y).terms, product_oracle(x, y))
    assert scales == [lcm_of_denominators(x) * lcm_of_denominators(y)]


def test_negating_a_power_keeps_its_shared_coefficients():
    text = "(1/2 ad + 1/3 a)^12"
    power, negated = parse_expression(text), parse_expression(f"-{text}")
    assert len({id(c) for c in negated.terms.values()}) == 13
    assert negated == power * -1
    form, wick = normal_order(negated), NormalOrderedForm.parse(f"-{text}")
    assert_same(form.terms, wick.terms)


@pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
def test_a_power_starts_from_its_first_factor(cls, monkeypatch):
    # x^8 is three squarings; a product with the unit would make a fourth
    x = cls({k: c for k, c in zip(KEYS[cls], (1, Fraction(-2, 3)))})
    powers = [cls.one(), x]
    for _ in range(7):
        powers.append(powers[-1] * x)
    calls = []
    mul = cls.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    assert x ** 8 == powers[8] and len(calls) == 3
    assert x ** 1 is x and x ** 0 == powers[0] and len(calls) == 3
    assert all(x ** n == powers[n] for n in range(8))


def test_powers_of_sums_share_their_fractions():
    power = BosonExpression.parse("(11/6 ad - 7/4 a)^12")
    assert len(power.terms) == 4096
    assert len({id(c) for c in power.terms.values()}) == 13
    assert power.terms[word_key((AD,) * 12)] == Fraction(11, 6) ** 12


@pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
def test_float_scalars_follow_the_constructor_rule(cls):
    x = cls({k: c for k, c in zip(KEYS[cls], (1, Fraction(2, 3), 3))})
    assert_same((x * 0.5).terms, (x * Fraction(1, 2)).terms)
    assert_same((0.1 * x).terms, (x * Fraction(0.1)).terms)  # the float's binary value
    assert (x * 0.0).terms == {}
    for bad in (float("nan"), float("inf"), 1j, "2", None):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x


TEXT_SYMBOLS = {BosonExpression: ("a", "ad"), NormalOrderedForm: ("a", "ad"), HopfElement: ("y1", "y2", "y3")}


@st.composite
def texts(draw, cls):
    """A power of a sum of numbers n/d times symbols: n/d is whole exactly when d divides n."""
    terms = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 4), st.sampled_from(TEXT_SYMBOLS[cls])),
                          min_size=1, max_size=4))
    text = " + ".join(f"({n}/{d}) {name}" for n, d, name in terms)
    return f"({text})^{draw(st.integers(0, 3))}"


def typed(x) -> dict:
    return {k: (type(c), c) for k, c in x.terms.items()}


@pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_route_keeps_the_coefficient_rule(cls, data):
    # int, whole-Fraction, proper-Fraction, mixed and prime-denominator data
    x, y = data.draw(operands(cls)), data.draw(operands(cls))
    scalar = data.draw(st.one_of(*COEFFICIENTS.values()))
    results = [x, y, x + y, x - y, x * scalar, scalar * x, x * y, y * x, x ** 2]
    if len(x.terms) <= 5:
        results.append(x ** 3)
    if cls in TEXT_SYMBOLS:
        results += [cls.parse(data.draw(texts(cls))), cls.parse(str(x * y))]
    if cls is BosonExpression:
        results += [normal_order(x * y), forgetful_normal_order(x * y), normal_order(x ** 2)]
    if cls is HopfElement:
        results += [coproduct(x), coproduct(x * y), antipode(x)]
    for result in results:
        assert_canonical(result.terms.values())
    # printed text, and BELL's JSON, give back each coefficient, type and all
    scaled = x * scalar
    if cls in TEXT_SYMBOLS:
        assert typed(cls.parse(str(scaled))) == typed(scaled)
    if cls is HopfElement:
        assert typed(element_from_json(element_to_json(scaled))) == typed(scaled)
