"""Boson algebra: rewriting engine vs independent reduction strategies and
a truncated number-basis oracle, all in exact arithmetic."""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellhop.boson import (
    A,
    AD,
    MOMENT_LIMIT,
    BosonExpression,
    CoherentParam,
    NormalOrderedForm,
    coherent_expectation,
    forgetful_normal_order,
    format_expression,
    format_normal_form,
    normal_order,
    number_word,
    parse_expression,
    stirling_via_ordering,
    word_key,
    word_letters,
    word_moments,
    _normal_order_word,
)
from bellhop.combinatorics import bell, bell_polynomial, stirling2
from bellhop.errors import ExpressionParseError, ResourceLimitError, int_digits_limit
from bellhop.hopf import HopfElement, Monomial, coproduct, parse_element


# ---------------------------------------------------------------------------
# Oracle 1: rewrite-rule reduction applied at randomly chosen positions.


def random_strategy_normal_order(expr: BosonExpression, rng: random.Random) -> NormalOrderedForm:
    """Repeatedly pick any a*ad pair and apply a ad = ad a + 1, on letter tuples."""
    work = {word_letters(w): c for w, c in expr.terms.items()}
    done: dict[tuple[int, int], Fraction] = {}
    while work:
        word, coeff = work.popitem()
        spots = [i for i in range(len(word) - 1) if word[i] == A and word[i + 1] == AD]
        if not spots:
            rs = (sum(1 for x in word if x == AD), sum(1 for x in word if x == A))
            done[rs] = done.get(rs, Fraction(0)) + coeff
            continue
        i = rng.choice(spots)
        swapped = word[:i] + (AD, A) + word[i + 2:]
        contracted = word[:i] + word[i + 2:]
        work[swapped] = work.get(swapped, Fraction(0)) + coeff
        work[contracted] = work.get(contracted, Fraction(0)) + coeff
    return NormalOrderedForm(done)


def random_word(rng: random.Random, max_len: int = 10) -> tuple[int, ...]:
    return tuple(rng.choice((A, AD)) for _ in range(rng.randint(0, max_len)))


def test_normal_order_single_commutator():
    form = normal_order(BosonExpression.from_word((A, AD)))
    assert form.terms == {(1, 1): 1, (0, 0): 1}


def test_normal_order_number_word_powers():
    assert normal_order(number_word(2)).terms == {(2, 2): 1, (1, 1): 1}
    assert normal_order(number_word(3)).terms == {(3, 3): 1, (2, 2): 3, (1, 1): 1}


def test_normal_order_drops_cancelled_terms():
    # ad a cancels within one coefficient denominator; the constants 1 and
    # -3!/6 cancel across two
    assert normal_order(parse_expression("a ad - ad a")).terms == {(0, 0): 1}
    expr = parse_expression("a ad - 1/6 a^3 ad^3")
    form = normal_order(expr)
    assert (0, 0) not in form.terms
    assert form == random_strategy_normal_order(expr, random.Random(0))


def test_confluence_random_strategies():
    rng = random.Random(99)
    for _ in range(60):
        word = random_word(rng)
        expr = BosonExpression.from_word(word)
        fast = normal_order(expr)
        for seed in range(3):
            assert random_strategy_normal_order(expr, random.Random(seed)) == fast


def test_linearity():
    rng = random.Random(7)
    for _ in range(30):
        a = BosonExpression({word_key(random_word(rng, 6)): Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                             for _ in range(3)})
        b = BosonExpression({word_key(random_word(rng, 6)): Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                             for _ in range(3)})
        alpha, beta = Fraction(3, 2), Fraction(-2, 7)
        lhs = normal_order(a * alpha + b * beta)
        rhs_terms = {}
        for rs, c in normal_order(a).terms.items():
            rhs_terms[rs] = rhs_terms.get(rs, Fraction(0)) + alpha * c
        for rs, c in normal_order(b).terms.items():
            rhs_terms[rs] = rhs_terms.get(rs, Fraction(0)) + beta * c
        assert lhs == NormalOrderedForm(rhs_terms)


# ---------------------------------------------------------------------------
# The shared linear-combination core


def random_expression(rng: random.Random) -> BosonExpression:
    return BosonExpression(
        {word_key(random_word(rng, 6)): Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)}
    )


def test_combination_arithmetic():
    rng = random.Random(11)
    for _ in range(20):
        x, y, z = (random_expression(rng) for _ in range(3))
        for u, v in ((x, y), (normal_order(x), normal_order(y))):
            assert (u - u).terms == {}
            assert (u * 0).terms == {}
            assert (u + v) - v == u
        assert (x + y) * z == x * z + y * z


def test_combination_equality_is_type_strict():
    # ad^2 as a word and as a normal form; then equal keys in two algebras
    ad_ad = BosonExpression({word_key((AD, AD)): 1})
    assert ad_ad == BosonExpression.ad() ** 2 and normal_order(ad_ad) == NormalOrderedForm({(2, 0): 1})
    assert ad_ad != NormalOrderedForm({(2, 0): 1}) and NormalOrderedForm({(2, 0): 1}) != ad_ad
    assert NormalOrderedForm({(1, 1): 1}) != HopfElement({Monomial((1, 1)): 1})
    assert HopfElement({Monomial((1, 1)): 1}) != NormalOrderedForm({(1, 1): 1})


@pytest.mark.parametrize("n", range(10))
def test_power_is_left_fold_product(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        x = BosonExpression(
            {word_key(random_word(rng, 3)): Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)}
        )
        for u in (x, normal_order(x)):
            assert u ** n == reduce(lambda acc, _: acc * u, range(n), type(u).one())
    assert x ** 0 == BosonExpression.one()
    assert normal_order(x) ** 0 == NormalOrderedForm.one()
    with pytest.raises(ValueError):
        x ** -1


# ---------------------------------------------------------------------------
# The Wick product of normal forms against the word fold


def test_wick_rule_on_single_terms():
    for r, s, p, q in itertools.product(range(5), repeat=4):
        wick = NormalOrderedForm({(r, s): 1}) * NormalOrderedForm({(p, q): 1})
        joined = BosonExpression.from_word((AD,) * r + (A,) * s + (AD,) * p + (A,) * q)
        assert wick == normal_order(joined), (r, s, p, q)


def test_wick_product_of_forms_matches_ordering_the_product():
    rng = random.Random(31)
    for _ in range(60):
        x, y = random_expression(rng), random_expression(rng)
        fx, fy = normal_order(x), normal_order(y)
        assert fx * fy == normal_order(x * y)
        assert normal_order(fx.to_expression()) == fx
        assert (fx * fy) * fx == fx * (fy * fx)


def test_word_cache_is_bounded():
    normal_order(parse_expression("(a + ad)^15"))  # 2^15 distinct words
    info = _normal_order_word.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# normal_order adds the packed forms of a class's words: against the Wick
# route and a per-word Fraction loop, neither of which folds words


def wick_form(word: int) -> NormalOrderedForm:
    """A word's normal form by the Wick product of its letters' forms."""
    return NormalOrderedForm.parse(BosonExpression.key_text(word) or "1")


def per_word_reference(expr: BosonExpression) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for word, coeff in expr.terms.items():
        for rs, c in wick_form(word).terms.items():
            out[rs] = out.get(rs, Fraction(0)) + Fraction(coeff) * c
    return {rs: c for rs, c in out.items() if c}


def unpacked(word: int) -> dict[tuple[int, int], int]:
    """_normal_order_word's packed form read with the documented slot width
    bits(P) + bits(N): P the partial matchings of the word's a's with its
    ad's, N the number of words with its letters."""
    (n_ad, n_a), packed = _normal_order_word(word)
    letters = word_letters(word)
    assert (n_ad, n_a) == (letters.count(AD), letters.count(A))
    matchings = sum(math.perm(n_a, k) * math.comb(n_ad, k) for k in range(min(n_ad, n_a) + 1))
    width = matchings.bit_length() + math.comb(n_ad + n_a, n_a).bit_length()
    slots = min(n_ad, n_a) + 1
    assert packed >> (slots * width) == 0
    out = {(n_ad - k, n_a - k): packed >> (k * width) & ((1 << width) - 1) for k in range(slots)}
    return {rs: c for rs, c in out.items() if c}


def test_packed_sum_of_a_whole_class():
    # all C(16, 8) = 12,870 words with eight of each letter, coefficient 1:
    # every slot holds the largest sum of distinct words its class can reach.
    # (ad + a)^16 = sum 16!/(r! s! k! 2^k) ad^r a^s, r + s + 2k = 16, and its
    # words with r = s are exactly this class
    words = [tuple(AD if i in ads else A for i in range(16))
             for ads in itertools.combinations(range(16), 8)]
    assert len(words) == math.comb(16, 8)
    form = normal_order(BosonExpression(dict.fromkeys(map(word_key, words), 1)))
    want = {(8 - k, 8 - k): math.factorial(16) // (math.factorial(8 - k) ** 2 * math.factorial(k) * 2**k)
            for k in range(9)}
    assert form.terms == want
    assert coefficient_types(form) == {int}
    wick = NormalOrderedForm.parse("(ad + a)^16")
    assert {rs: c for rs, c in wick.terms.items() if rs[0] == rs[1]} == want


@pytest.mark.parametrize("text", ["a^24 ad^24", "ad^24 a^24", "(a ad)^24", "(a^3 ad^2 a ad^4 a^2)^4"])
def test_packed_word_of_48_letters(text):
    (word,) = parse_expression(text).terms
    assert len(word_letters(word)) == 2 * MOMENT_LIMIT
    assert unpacked(word) == wick_form(word).terms
    expr = BosonExpression.from_word(word_letters(word), Fraction(-7, 3))
    assert normal_order(expr) == wick_form(word) * Fraction(-7, 3)


def test_packed_layout_is_the_documented_one():
    # every class from the empty word up to 8 + 8 letters, and random longer words
    rng = random.Random(18)
    words = [tuple(rng.choice((A, AD)) for _ in range(n)) for n in range(17) for _ in range(12)]
    words += [(A,) * n_a + (AD,) * n_ad for n_a in range(9) for n_ad in range(9)]
    words += [random_word(rng, 40) for _ in range(30)]
    for word in words:
        assert unpacked(word_key(word)) == wick_form(word_key(word)).terms, word


def test_distinct_coefficients_match_per_word_loop():
    # one group per word: every word its own numerator and denominator
    rng = random.Random(1818)
    for _ in range(20):
        expr = BosonExpression({word_key(random_word(rng, 14)): Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                                for _ in range(rng.randint(1, 60))})
        assert normal_order(expr).terms == per_word_reference(expr)


def test_equal_values_in_distinct_objects_merge():
    # normal_order groups words by coefficient object; equal values held by
    # distinct objects meet in one (denominator, numerator, class) sum
    half, other_half = Fraction(1, 2), Fraction(1, 2)
    expr = BosonExpression._exact({word_key(w): c for w, c in [
        ((A, AD), half), ((AD, A), other_half), ((A, AD, A, AD), half),
        ((A, A, AD), 2), ((AD, A, A), Fraction(2)), ((A, AD, A), 2)]})
    assert half is not other_half
    form = normal_order(expr)
    wick = reduce(NormalOrderedForm.__add__, (wick_form(w) * c for w, c in expr.terms.items()))
    assert form.terms == per_word_reference(expr)
    assert {rs: (type(c), c) for rs, c in form.terms.items()} == {
        rs: (type(c), c) for rs, c in wick.terms.items()}
    assert type(form.terms[1, 2]) is Fraction and type(form.terms[0, 1]) is int


def random_text(rng: random.Random) -> str:
    """A product of powers of sums plus a term, with int and Fraction coefficients."""

    def term() -> str:
        coeff = rng.choice(["3", "2", "3/1", "4/2", "1/2", "5/6", "7/4"])
        return f"{rng.choice('+-')} {coeff} {rng.choice(['ad', 'a', 'ad a', 'a ad', 'a^2', 'ad^2 a', '1'])}"

    factors = [f"({' '.join(term() for _ in range(rng.randint(1, 3)))})^{rng.randint(1, 4)}"
               for _ in range(rng.randint(1, 2))]
    return " ".join(factors) + " " + term()


def test_normal_order_matches_wick_route_on_random_texts():
    rng = random.Random(180)
    for _ in range(100):
        text = random_text(rng)
        expr = parse_expression(text)
        form, wick = normal_order(expr), NormalOrderedForm.parse(text)
        assert {rs: (type(c), c) for rs, c in form.terms.items()} == {
            rs: (type(c), c) for rs, c in wick.terms.items()}, text
        assert form.terms == per_word_reference(expr), text


def test_mixed_coefficients_keep_their_types():
    # an int coefficient contributes ints; Fraction(3) contributes Fractions,
    # though its denominator is 1
    expr = BosonExpression({word_key(w): c for w, c in [
        ((AD, A), 2), ((A, AD), Fraction(3)), ((A, A), Fraction(1, 2)), ((AD, AD), 5),
        ((A, A, AD), 4), ((AD, A, A), Fraction(-4, 2))]})
    form = normal_order(expr)
    assert {rs: (type(c), c) for rs, c in form.terms.items()} == {
        (1, 1): (Fraction, Fraction(5)),   # 2 + 3
        (0, 0): (Fraction, Fraction(3)),
        (0, 2): (Fraction, Fraction(1, 2)),
        (2, 0): (int, 5),
        (1, 2): (Fraction, Fraction(2)),   # 4 - 4/2
        (0, 1): (int, 8),                  # a^2 ad = ad a^2 + 2 a
    }


@pytest.mark.parametrize(
    "text,ok",
    [
        ("ad^2400", True),       # top degrees (2400, 0): 2,401 keys
        ("ad^2401", False),
        ("a^48 ad^48", True),    # 49 * 49 = 2,401 keys
        ("a^48 ad^49", False),   # 50 * 49
        ("(ad a)^40", True),
        ("(a + ad)^49", False),  # (a + ad)^17 (a + ad)^32: 50 * 50
        ("a^10000000", False),
        ("2^99999999", False),   # one key, coefficients past printing
        ("1^99999999", True),
    ],
)
def test_product_bound(text, ok):
    if ok:
        NormalOrderedForm.parse(text)
    else:
        with pytest.raises(ResourceLimitError):
            NormalOrderedForm.parse(text)


@pytest.mark.parametrize("parse", [parse_expression, parse_element], ids=["word", "bell"])
def test_scalar_power_bound_in_every_algebra(parse):
    # the digits bound lives in LinearCombination.__pow__, so words and BELL
    # elements refuse 2^99999999 before squaring, as normal-ordered forms do
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        parse("2^99999999")
    assert time.perf_counter() - start < 1.0
    assert str(parse("(1/2)^3")) == "1/8"


# ---------------------------------------------------------------------------
# Oracle 2: matrix action on the polynomial number basis e_m, where
# ad e_m = e_{m+1} and a e_m = m e_{m-1}; all coefficients stay rational.


def apply_word_number_basis(word, m: int, dim: int = 40) -> dict[int, Fraction]:
    vec = {m: Fraction(1)}
    for letter in reversed(word):  # operators act right to left
        new: dict[int, Fraction] = {}
        for level, c in vec.items():
            if letter == AD:
                if level + 1 < dim:
                    new[level + 1] = new.get(level + 1, Fraction(0)) + c
            else:
                if level > 0:
                    new[level - 1] = new.get(level - 1, Fraction(0)) + c * level
        vec = new
    return {k: v for k, v in vec.items() if v}


def nof_number_basis_element(form: NormalOrderedForm, m: int, mprime: int) -> Fraction:
    """Coefficient of e_m in form(e_{m'}) via falling factorials."""
    out = Fraction(0)
    for (r, s), c in form.terms.items():
        if mprime - s + r != m or mprime < s:
            continue
        ff = 1
        for i in range(s):
            ff *= mprime - i
        out += c * ff
    return out


def test_number_basis_oracle_random_words():
    rng = random.Random(4242)
    for _ in range(50):
        word = random_word(rng, 6)
        form = normal_order(BosonExpression.from_word(word))
        for mprime in range(0, 11, 3):
            direct = apply_word_number_basis(word, mprime)
            for m in range(0, 11):
                assert direct.get(m, Fraction(0)) == nof_number_basis_element(form, m, mprime)


# ---------------------------------------------------------------------------
# Stirling extraction, forgetful ordering, expectations


@pytest.mark.parametrize("text", ["a^10000000", "(a + ad)^18"])
def test_word_expansion_is_refused_before_it_is_built(text):
    # a 10^7-letter word, and 262,144 words of 18 letters (each +1 in the
    # exponent doubles that)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        parse_expression(text)
    assert time.perf_counter() - start < 1.0


def test_word_limits_admit_what_normal_order_admits():
    assert parse_expression("a^48").max_word_length() == 48 == 2 * MOMENT_LIMIT
    with pytest.raises(ResourceLimitError, match="ordering limit 48"):
        parse_expression("a^24 ad^25")
    assert len(parse_expression("(a + ad)^16").terms) == 2**16  # 256 x 256 pairs
    with pytest.raises(ResourceLimitError, match="pairs"):
        parse_expression("(a + ad)^17")


def test_a_word_past_the_limit_is_refused_on_every_call():
    # built by from_word, so no product refuses it first; lru_cache keeps no
    # exception, so the second call refuses it again
    expr = BosonExpression.from_word((A, AD) * 24 + (A,))
    assert expr.max_word_length() == 2 * MOMENT_LIMIT + 1
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="word of length 49 exceeds the ordering limit 48"):
            normal_order(expr)
    assert BosonExpression().max_word_length() == 0 == BosonExpression.one().max_word_length()


# ---------------------------------------------------------------------------
# The word encoding: 1 << L | letter bits, first letter highest


LETTER_TUPLES = st.lists(st.sampled_from([A, AD]), max_size=30).map(tuple)


@settings(max_examples=200)
@given(LETTER_TUPLES, LETTER_TUPLES)
def test_word_encoding(t1, t2):
    k1, k2 = word_key(t1), word_key(t2)
    assert word_letters(k1) == t1 and word_letters(k2) == t2
    assert (k1 < k2) == ((len(t1), t1) < (len(t2), t2)) and (k1 == k2) == (t1 == t2)
    assert sorted([k1, k2]) == [word_key(t) for t in sorted([t1, t2], key=lambda t: (len(t), t))]
    length2 = len(t2)
    assert k1 << length2 | (k2 ^ 1 << length2) == word_key(t1 + t2)
    if len(t1) + len(t2) <= 2 * MOMENT_LIMIT:  # a longer product is refused before it is built
        assert (BosonExpression({k1: 1}) * BosonExpression({k2: 1})).terms == {word_key(t1 + t2): 1}


def test_word_encoding_edges():
    assert word_key(()) == 1 == BosonExpression.unit_key and word_letters(1) == ()
    assert BosonExpression.a().terms == {word_key((A,)): 1} and BosonExpression.ad().terms == {word_key((AD,)): 1}
    assert BosonExpression.key_text(word_key((AD, AD, A, AD))) == "ad^2 a ad"
    for bad in ((2,), (A, -1), ("a",)):
        with pytest.raises(ValueError):
            word_key(bad)


@pytest.mark.parametrize("key", [(0, 1), (), 0, -3, True, 2.0, "1"])
def test_a_key_that_is_not_a_word_int_is_refused(key):
    # an old letter-tuple key, or any key but a word's int, fails when the
    # expression is built, not in a later product, normal_order or str
    with pytest.raises(TypeError, match="int of word_key"):
        BosonExpression({key: 1})
    with pytest.raises(TypeError):
        BosonExpression({word_key((AD, A)): 1, key: 2})


def test_stirling_via_ordering():
    assert stirling_via_ordering(1) == (1,)
    assert stirling_via_ordering(3) == (1, 3, 1)
    assert stirling_via_ordering(5) == (1, 15, 25, 10, 1)
    for n in range(1, 13):
        assert stirling_via_ordering(n) == tuple(stirling2(n, k) for k in range(1, n + 1))


def test_stirling_via_ordering_limit():
    # the 2n-letter word (ad a)^n meets normal_order's word-length limit
    assert stirling_via_ordering(24) == tuple(stirling2(24, k) for k in range(1, 25))
    with pytest.raises(ResourceLimitError, match="ordering limit 48"):
        stirling_via_ordering(25)


def test_forgetful():
    assert forgetful_normal_order(BosonExpression.from_word((A, AD))).terms == {(1, 1): 1}
    for n in range(1, 6):
        assert forgetful_normal_order(number_word(n)).terms == {(n, n): 1}
    expr = (BosonExpression.a() + BosonExpression.ad()) ** 2
    assert forgetful_normal_order(expr).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_forgetful_agrees_on_already_ordered_words():
    rng = random.Random(11)
    for _ in range(30):
        r, s = rng.randint(0, 5), rng.randint(0, 5)
        expr = BosonExpression.from_word((AD,) * r + (A,) * s, Fraction(rng.randint(1, 9)))
        assert forgetful_normal_order(expr) == normal_order(expr)


def test_coherent_expectation_bell():
    for n in range(1, 9):
        val = coherent_expectation(normal_order(number_word(n)), 1)
        assert val == bell(n)


def test_coherent_expectation_bell_polynomial():
    for n in range(1, 7):
        for msq in (Fraction(1, 2), Fraction(2), Fraction(7, 3)):
            z = CoherentParam.from_mod_sq(msq)
            assert coherent_expectation(normal_order(number_word(n)), z) == bell_polynomial(n, msq)


def test_coherent_expectation_empty_word():
    form = normal_order(BosonExpression.one())
    assert coherent_expectation(form, 2 + 3j) == 1
    assert coherent_expectation(form, Fraction(5, 7)) == 1


def test_coherent_expectation_complex_z():
    # <z| ad a |z> = |z|^2
    z = 1 + 2j
    val = coherent_expectation(normal_order(number_word(1)), z)
    assert abs(val - 5) < 1e-12


@pytest.mark.parametrize("text", ["(ad + 1/3 a)^9", "(a ad + 1/2 a - 1/7 ad)^5"])
def test_coherent_moments_do_not_depend_on_term_order(text):
    form = normal_order(parse_expression(text))
    flipped = NormalOrderedForm(dict(reversed(list(form.terms.items()))))
    assert flipped == form and list(flipped.terms) != list(form.terms)
    z = CoherentParam.from_mod_sq(Fraction(9, 4))
    got = coherent_expectation(form, z)
    assert coherent_expectation(flipped, z) == got
    # |z|^2 = 9/4 is z = 3/2: the exact value
    assert math.isclose(got, coherent_expectation(form, Fraction(3, 2)), rel_tol=1e-15)


@pytest.mark.parametrize("z", [0.7 + 0.45j, 0.7, -1.3j])
def test_floating_expectations_do_not_depend_on_term_order(z):
    rng = random.Random(14)
    for _ in range(200):
        keys = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(8)]
        form = NormalOrderedForm({k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in keys})
        flipped = NormalOrderedForm(dict(reversed(list(form.terms.items()))))
        got = coherent_expectation(form, z)
        assert type(got) is type(z)  # a real float z stays real
        assert coherent_expectation(flipped, z) == got


def coefficient_types(element) -> set:
    return {type(c) for c in element.terms.values()}


@pytest.mark.parametrize("c, kind", [(3, int), (Fraction(3), Fraction), (Fraction(1, 3), Fraction)])
def test_coefficients_are_ints_exactly_where_the_data_are(c, kind):
    word = ((BosonExpression.ad() + BosonExpression.a()) * c) ** 4
    by_wick = ((NormalOrderedForm.symbol("ad") + NormalOrderedForm.symbol("a")) * c) ** 4
    bell_element = ((HopfElement.generator(1) + HopfElement.generator(2)) * c) ** 3
    for element in (word, by_wick, normal_order(word), bell_element, coproduct(bell_element)):
        assert coefficient_types(element) == {kind}, element
    assert normal_order(word) == by_wick
    # the constructor's rule, as in EGFSeries
    keys = [word_key(w) for w in ((A,), (AD,), (A, AD))]
    assert coefficient_types(BosonExpression(dict(zip(keys, (2, Fraction(2), 0.5))))) == {int, Fraction}
    assert BosonExpression({keys[0]: 0.5}).terms == {keys[0]: Fraction(1, 2)}


def test_parsed_coefficients_are_ints_exactly_where_the_text_has_ints():
    assert coefficient_types(parse_expression("(2 ad + 3 a)^4 - 5")) == {int}
    assert coefficient_types(NormalOrderedForm.parse("(2 ad + 3 a)^4 - 5")) == {int}
    assert coefficient_types(parse_element("(2 y1 + 3 y2)^4 - 5")) == {int}
    assert coefficient_types(NormalOrderedForm.parse("(4/2 ad + 3/1 a)^4")) == {Fraction}
    mixed = NormalOrderedForm.parse("1/2 a + 2 ad")
    assert mixed.terms == {(0, 1): Fraction(1, 2), (1, 0): 2}
    assert type(mixed.coefficient(1, 0)) is int and type(mixed.coefficient(0, 1)) is Fraction
    # an int-valued exponent written as a fraction still parses
    assert parse_expression("a^4/2") == parse_expression("a^2")


def test_word_moments_bell():
    w = number_word(1)
    moments = word_moments(w, 8, 1)
    assert moments == [bell(n) for n in range(9)]


def test_word_moments_vacuum():
    w = BosonExpression.a() + BosonExpression.ad()
    moments = word_moments(w, 4, 0)
    # <0|(a+ad)^n|0> = 0, 1, 0, 3 for n = 1..4 (double factorials)
    assert moments == [1, 0, 1, 0, 3]


def test_word_moments_limit():
    with pytest.raises(ResourceLimitError):
        word_moments(number_word(1), 30, 1)


def test_word_moments_long_word():
    # 2 x 30 letters: within the term bound, whatever the word's length
    z = Fraction(3, 4)
    assert word_moments(parse_expression("ad^30"), 2, z) == [1, z**30, z**60]


def test_word_moments_term_bound():
    # (ad a)^24 orders to top degrees (24, 24); its cube passes the term bound
    with pytest.raises(ResourceLimitError, match="terms"):
        word_moments(number_word(24), 3, 1)


def word_moments_by_expansion(w: BosonExpression, nmax: int, z) -> list:
    """Reference: expand w^n into words and order each power afresh."""
    moments: list = [Fraction(1)]
    power = BosonExpression.one()
    for _ in range(nmax):
        power = power * w
        moments.append(coherent_expectation(normal_order(power), z))
    return moments


def assert_moments_agree(got: list, want: list, w: BosonExpression, z) -> None:
    # Exact moments agree exactly. Floating-point ones are sums of up to a
    # few hundred doubles taken in another order: within 1e-12 of the sum
    # of the terms' magnitudes (n * 2^-53 ~ 1e-14 for n terms, with margin).
    param = z if isinstance(z, CoherentParam) else CoherentParam(z=z)
    for n, (g, v) in enumerate(zip(got, want, strict=True)):
        if isinstance(g, Fraction) and isinstance(v, Fraction):
            assert g == v, (str(w), n)
            continue
        form = normal_order(w ** n)
        scale = sum(abs(c) * abs(complex(param.powers(r, s))) for (r, s), c in form.terms.items())
        assert abs(complex(g) - complex(v)) <= 1e-12 * scale, (str(w), n)


@pytest.mark.parametrize("text", ["ad a", "ad + a", "ad^2 a", "a ad + 1/2 a^2"])
@pytest.mark.parametrize(
    "z",
    [Fraction(3, 4), CoherentParam.from_mod_sq(Fraction(9, 4)), CoherentParam.from_mod_sq(2), 0.6 - 0.8j],
    ids=["fraction", "mod_sq_9/4", "mod_sq_2", "complex"],
)
def test_word_moments_match_word_expansion(text, z):
    w = parse_expression(text)
    nmax = min(MOMENT_LIMIT, 2 * MOMENT_LIMIT // w.max_word_length())
    if len(w.terms) > 1:
        nmax = min(nmax, 12)  # 2^n words per power for the reference
    assert_moments_agree(word_moments(w, nmax, z), word_moments_by_expansion(w, nmax, z), w, z)


def test_quadrature_moments_to_the_limit():
    # <z|(a + ad)^n|z> for real z is the n-th moment of a normal law with
    # mean 2z and variance 1: sum_k C(n, 2k) (2k-1)!! (2z)^(n-2k)
    z = Fraction(5, 4)
    want = [
        sum(math.comb(n, 2 * k) * math.prod(range(1, 2 * k, 2)) * (2 * z) ** (n - 2 * k)
            for k in range(n // 2 + 1))
        for n in range(MOMENT_LIMIT + 1)
    ]
    assert word_moments(parse_expression("ad + a"), MOMENT_LIMIT, z) == want


# ---------------------------------------------------------------------------
# Text syntax


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a ad", "ad a + 1"),
        ("(ad a)^2", "ad^2 a^2 + ad a"),
        ("(ad a)^3", "ad^3 a^3 + 3 ad^2 a^2 + ad a"),
    ],
)
def test_normal_order_printing(text, expected):
    assert format_normal_form(normal_order(parse_expression(text))) == expected


def test_parse_examples():
    assert parse_expression("ad + a") == BosonExpression.ad() + BosonExpression.a()
    assert parse_expression("2 ad a") == number_word(1) * 2
    assert parse_expression("1/2 * a^2") == BosonExpression.from_word((A, A), Fraction(1, 2))
    assert parse_expression("-a + 3") == (
        BosonExpression.a() * -1 + BosonExpression.one() * 3
    )


def test_parse_errors_carry_position():
    with pytest.raises(ExpressionParseError):
        parse_expression("")
    with pytest.raises(ExpressionParseError) as exc:
        parse_expression("a )")
    assert exc.value.position == 2
    with pytest.raises(ExpressionParseError):
        parse_expression("ad ^ 1/2")
    with pytest.raises(ExpressionParseError):
        parse_expression("b")


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([A, AD]), max_size=5),
            st.fractions(max_denominator=9).filter(bool),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_parse_print_roundtrip(raw):
    terms = {}
    for word, coeff in raw:
        key = word_key(word)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    expr = BosonExpression(terms)
    assert parse_expression(format_expression(expr)) == expr


def test_parse_error_positions():
    for text, pos in [("", 0), ("a +", 3), ("3/", 2), ("3/0", 2), ("2 ^ a", 4),
                      ("a2", 0), ("y1", 0), ("a ? ad", 2), ("(a", 2)]:
        with pytest.raises(ExpressionParseError) as exc:
            parse_expression(text)
        assert exc.value.position == pos, text


@pytest.mark.skipif(int_digits_limit() == 0, reason="this Python reads integers of any length")
@pytest.mark.parametrize("parse, symbol", [(parse_expression, "ad"), (NormalOrderedForm.parse, "ad"),
                                           (parse_element, "y1")], ids=["word", "form", "bell"])
def test_number_past_the_int_digits_limit_is_a_parse_error(parse, symbol):
    digits = "1" * (int_digits_limit() + 1)
    cases = [(f"{digits} {symbol}", 0), (f"{symbol}^{digits}", len(symbol) + 1),
             (f"1/{digits} {symbol}", 0), (f"{symbol} + {digits}/3", len(symbol) + 3)]
    for text, pos in cases:
        with pytest.raises(ExpressionParseError, match=f"{len(digits)} digits") as exc:
            parse(text)
        assert exc.value.position == pos
    assert parse(f"{digits[1:]} {symbol}") == parse(symbol) * int(digits[1:])


def test_parse_nesting_is_a_parse_error():
    parse_expression("(" * 100 + "a" + ")" * 100)
    with pytest.raises(ExpressionParseError) as exc:
        NormalOrderedForm.parse("(" * 5000 + "a" + ")" * 5000)
    assert 0 < exc.value.position < 5000


def test_normal_form_key_text_is_the_word_text():
    for r in range(2 * MOMENT_LIMIT + 1):
        for s in range(2 * MOMENT_LIMIT + 1):
            assert NormalOrderedForm.key_text((r, s)) == BosonExpression.key_text(word_key((AD,) * r + (A,) * s))


@settings(max_examples=60)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.fractions(max_denominator=9).filter(bool),
        min_size=1,
        max_size=5,
    )
)
def test_normal_form_parse_print_roundtrip(terms):
    form = NormalOrderedForm(terms)
    assert NormalOrderedForm.parse(format_normal_form(form)) == form

