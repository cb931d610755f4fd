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
    _CLASS_BASE,
    _CLASS_BITS,
    _WORDS,
    _core_coeffs,
    _normal_order_word,
    _word_class,
)
from bellhop.combinatorics import bell, bell_polynomial, stirling2
from bellhop.errors import ExpressionParseError, ResourceLimitError, int_digits_limit
from bellhop.hopf import HopfElement, Monomial, coproduct, parse_element
from coefficient_rule import assert_canonical


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
    normal_order(parse_expression("(a + ad)^15"))  # 2^15 distinct words, 2^14 - 1 cores of 15 letters
    assert len(_WORDS) <= 2**14
    for cache in (_core_coeffs, _word_class):
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
    # every class of a word up to 2 MOMENT_LIMIT letters has its own entry
    assert _word_class.cache_info().maxsize >= (2 * MOMENT_LIMIT + 1) ** 2
    # a refused word of 49 letters stores nothing, called alone or through normal_order
    _WORDS.clear()
    long_word = word_key((AD, A) * 24 + (A,))
    with pytest.raises(ResourceLimitError):
        _normal_order_word(long_word)
    with pytest.raises(ResourceLimitError):
        normal_order(BosonExpression({long_word: 1}))
    assert not _WORDS


@pytest.mark.parametrize("text", ["(a + ad)^15", "(1/2 ad + 1/3 a ad^2 - 7/5 a^3)^9"])
def test_word_cache_clears_mid_call(text):
    # 2^15 and 3^9 = 19,683 distinct words: from an empty cache, the word
    # after the first 2^14 clears it, so the first call ends holding only
    # the words past the bound, and the second starts from those words and
    # clears them again; both calls give the Wick route's terms and types
    expr = parse_expression(text)
    want = {rs: (type(c), c) for rs, c in NormalOrderedForm.parse(text).terms.items()}
    _WORDS.clear()
    form = normal_order(expr)
    assert len(_WORDS) == len(expr.terms) - 2**14
    assert {rs: (type(c), c) for rs, c in form.terms.items()} == want
    form = normal_order(expr)
    assert len(_WORDS) <= 2**14
    assert {rs: (type(c), c) for rs, c in form.terms.items()} == want


# ---------------------------------------------------------------------------
# normal_order adds the packed forms of a class's words: against the Wick
# route and a per-word Fraction loop, neither of which folds words


def wick_form(word: int) -> NormalOrderedForm:
    """A word's normal form by the Wick product of its letters' forms."""
    return NormalOrderedForm.parse(BosonExpression.key_text(word) or "1")


def wick_route(expr: BosonExpression) -> NormalOrderedForm:
    """sum c_w F_w over the words w, F_w each word's form by the Wick route."""
    return reduce(NormalOrderedForm.__add__, (wick_form(w) * c for w, c in expr.terms.items()), NormalOrderedForm())


def per_word_reference(expr: BosonExpression) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for word, coeff in expr.terms.items():
        for rs, c in wick_form(word).terms.items():
            out[rs] = out.get(rs, Fraction(0)) + Fraction(coeff) * c
    return {rs: c for rs, c in out.items() if c}


def unpacked(word: int) -> dict[tuple[int, int], int]:
    """_normal_order_word's packed form read with the documented slot width
    bits(P) + bits(N): P the partial matchings of the word's a's with its
    ad's, N the number of words with its letters.  The entry's low
    _CLASS_BITS bits are the class key, which decodes, as normal_order reads
    it, to the word's letter counts and that width; the rest is the packed
    form.  The entry is the one stored in _WORDS."""
    entry = _normal_order_word(word)
    assert _WORDS[word] == entry
    key, packed = entry & (1 << _CLASS_BITS) - 1, entry >> _CLASS_BITS
    letters = word_letters(word)
    n_ad, n_a = letters.count(AD), letters.count(A)
    matchings = sum(math.perm(n_a, k) * math.comb(n_ad, k) for k in range(min(n_ad, n_a) + 1))
    width = matchings.bit_length() + math.comb(n_ad + n_a, n_a).bit_length()
    assert _word_class(*divmod(key, _CLASS_BASE)) == (key, (n_ad, n_a), width)
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
    # from cleared caches: the word's core is rebuilt along its whole prefix chain
    (word,) = parse_expression(text).terms
    assert len(word_letters(word)) == 2 * MOMENT_LIMIT
    _WORDS.clear()
    _core_coeffs.cache_clear()
    assert unpacked(word) == wick_form(word).terms
    expr = BosonExpression.from_word(word_letters(word), Fraction(-7, 3))
    assert normal_order(expr) == wick_form(word) * Fraction(-7, 3)


def test_every_word_to_12_letters_through_the_core_route():
    # all 8,190 words of 1-12 letters, in shuffled order from cleared caches,
    # so a word's core and the prefix cores below it are met in any order;
    # then again with the core cache cleared before each word, so every
    # word rebuilds its core's whole prefix chain
    words = [1 << n | bits for n in range(1, 13) for bits in range(2**n)]
    assert len(words) == 8190
    random.Random(1212).shuffle(words)
    _WORDS.clear()
    _core_coeffs.cache_clear()
    for word in words:
        assert unpacked(word) == wick_form(word).terms, word_letters(word)
    _WORDS.clear()
    for word in words:
        _core_coeffs.cache_clear()
        assert unpacked(word) == wick_form(word).terms, word_letters(word)


def test_words_around_one_core_share_its_slots():
    # ad^p (a^2 ad a ad^3) a^q: one core, whose slots each word reads in its
    # own class, with no miss of the core cache after the first
    core = word_key((A, A, AD, A, AD, AD, AD))
    _WORDS.clear()
    _core_coeffs.cache_clear()
    slots = _core_coeffs(core)
    misses = _core_coeffs.cache_info().misses
    for p, q in itertools.product(range(5), repeat=2):
        word = word_key((AD,) * p + word_letters(core) + (A,) * q)
        want = {(4 + p - k, 3 + q - k): c for k, c in enumerate(slots) if c}
        assert unpacked(word) == wick_form(word).terms == want
    assert _core_coeffs.cache_info().misses == misses


def test_packed_layout_is_the_documented_one():
    # every class from the empty word up to 8 + 8 letters, and random longer words
    rng = random.Random(18)
    words = [tuple(rng.choice((A, AD)) for _ in range(n)) for n in range(17) for _ in range(12)]
    words += [(A,) * n_a + (AD,) * n_ad for n_a in range(9) for n_ad in range(9)]
    words += [random_word(rng, 40) for _ in range(30)]
    # the classes of 41-48 ad's, whose keys n_ad 49 + n_a pass 2^11
    words += [(A,) * n_a + (AD,) * n_ad for n_ad in range(41, 49) for n_a in range(49 - n_ad)]
    words += [rng.sample((AD,) * 44 + (A,) * 4, 48) for _ in range(4)]
    for word in words:
        assert unpacked(word_key(word)) == wick_form(word_key(word)).terms, word


def test_distinct_coefficients_match_per_word_loop():
    # one group per word: every word its own numerator and denominator
    rng = random.Random(1818)
    for _ in range(20):
        expr = BosonExpression({word_key(random_word(rng, 14)): Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                                for _ in range(rng.randint(1, 60))})
        assert normal_order(expr).terms == per_word_reference(expr)
    # one scale over many denominators: the first 200 words over 1/p for the
    # first 200 primes, the square of the first 16 of them, and a power
    # whose denominators 1, 4 and 6 meet on shared keys
    primes = [n for n in range(2, 1224) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert len(primes) == 200
    words = BosonExpression({w: Fraction(1, p) for w, p in zip(range(2, 202), primes)})
    sixteen = BosonExpression({w: Fraction(1, p) for w, p in zip(range(2, 18), primes)})
    cubic = "(-5/4 - 13/6 ad a^2 - 13/3 ad)^10"
    for expr, wick in [(words, wick_route(words)), (sixteen * sixteen, wick_route(sixteen) ** 2),
                       (parse_expression(cubic), NormalOrderedForm.parse(cubic))]:
        form = normal_order(expr)
        assert form.terms == per_word_reference(expr)
        assert {rs: (type(c), c) for rs, c in form.terms.items()} == {
            rs: (type(c), c) for rs, c in wick.terms.items()}


def test_equal_values_in_distinct_objects_merge():
    # normal_order groups words once, by coefficient object and class; equal
    # values held by distinct objects meet in one integer sum over the
    # common scale, so the terms and their types are the Wick route's
    half, other_half = Fraction(1, 2), Fraction(1, 2)
    big, other_big = 3**50, int(str(3**50))
    expr = BosonExpression._exact({word_key(w): c for w, c in [
        ((A, AD), half), ((AD, A), other_half), ((A, AD, A, AD), half),
        ((A, A, AD), big), ((AD, A, A), other_big), ((A, AD, A), 2)]})
    assert half is not other_half and big is not other_big
    form = normal_order(expr)
    wick = wick_route(expr)
    assert form.terms == per_word_reference(expr)
    assert {rs: (type(c), c) for rs, c in form.terms.items()} == {
        rs: (type(c), c) for rs, c in wick.terms.items()}
    assert_canonical(form.terms.values())
    # a ad and a ad a ad give 1/2 + 1/2 at ad^0 a^0, from two objects: a whole int
    assert type(form.terms[0, 0]) is int and form.terms[0, 0] == 1
    assert type(form.terms[1, 1]) is Fraction and type(form.terms[1, 2]) is int


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
        # every Fraction a fresh object: no group holds more than one word's coefficient
        unshared = BosonExpression._exact({k: c if type(c) is int else Fraction(c.numerator, c.denominator)
                                           for k, c in expr.terms.items()})
        assert all(unshared.terms[k] is not c for k, c in expr.terms.items() if type(c) is Fraction)
        assert {rs: (type(c), c) for rs, c in normal_order(unshared).terms.items()} == {
            rs: (type(c), c) for rs, c in form.terms.items()}, text


def _prime_square() -> str:
    """The square of the 30 words of lengths 1-4 over 1/p for the first 30
    primes: their common scale is the product of those primes."""
    primes = [n for n in range(2, 114) if all(n % d for d in range(2, n))]
    words = [" ".join(w) for n in range(1, 5) for w in itertools.product(("a", "ad"), repeat=n)]
    assert len(primes) == len(words) == 30
    return "(" + " + ".join(f"1/{p} {w}" for p, w in zip(primes, words)) + ")^2"


# texts whose word route must print the Wick route's text, each with what it
# exercises; "(-5/4 - 13/6 ad a^2 - 13/3 ad)^10", whose denominators 1, 4 and
# 6 meet on shared keys, is compared in test_distinct_coefficients_match_per_word_loop
WORD_ROUTE_TEXTS = {
    "one-length": "(3/2 ad - 5/4 a)^6",
    "mixed-lengths": "(ad a + a)^3 (ad + 1)^2",
    "own-coefficients": "2 ad a + 3/2 a ad + 5 a^2 ad + 7/3 ad a^2 - 4/5 a ad a",
    "ints-with-fractions": "(2 ad + 1/2 a)^3 (3 a - 1/3 ad)^2",
    "power-12": "(ad + 1/2 a)^12",
    "whole-fractions": "(4/2 ad + 3/1 a)^4",  # read as ints
    "negated-power": "-(1/2 ad + 1/3 a)^12",  # its scalar product keeps shared coefficients
    "30-primes-square": _prime_square(),
}


@pytest.mark.parametrize("text", WORD_ROUTE_TEXTS.values(), ids=WORD_ROUTE_TEXTS)
def test_word_route_prints_the_wick_route_text(text):
    # words as ints, folded one by one, against the Wick product of forms
    # that `bellhop normal-order` prints
    expr = parse_expression(text)
    form, wick = normal_order(expr), NormalOrderedForm.parse(text)
    assert {rs: (type(c), c) for rs, c in form.terms.items()} == {
        rs: (type(c), c) for rs, c in wick.terms.items()}
    assert form.terms == per_word_reference(expr)
    assert str(form) == str(wick)


def test_mixed_coefficients_keep_their_types():
    # the constructor reads Fraction(3) and -4/2 as the ints 3 and -2, so
    # only the 1/2 of a^2 stays a Fraction
    expr = BosonExpression({word_key(w): c for w, c in [
        ((AD, A), 2), ((A, AD), Fraction(3)), ((A, A), Fraction(1, 2)), ((AD, AD), 5),
        ((A, A, AD), 4), ((AD, A, A), Fraction(-4, 2))]})
    assert {type(c) for c in expr.terms.values()} == {int, Fraction}
    form = normal_order(expr)
    assert {rs: (type(c), c) for rs, c in form.terms.items()} == {
        (1, 1): (int, 5),                  # 2 + 3
        (0, 0): (int, 3),
        (0, 2): (Fraction, Fraction(1, 2)),
        (2, 0): (int, 5),
        (1, 2): (int, 2),                  # 4 - 4/2
        (0, 1): (int, 8),                  # a^2 ad = ad a^2 + 2 a
    }


def test_mixed_products_share_one_object_per_value():
    # operands that both mix ints with Fractions run on integers over their
    # common scales, and write one coefficient object per value: an int
    # where the value is whole, a Fraction elsewhere
    x, y = parse_expression("2 ad + 3/2 a"), parse_expression("3 ad + 2/3 a")
    assert {k: (type(c), c) for k, c in (x * y).terms.items()} == {
        word_key((AD, AD)): (int, 6), word_key((AD, A)): (Fraction, Fraction(4, 3)),
        word_key((A, AD)): (Fraction, Fraction(9, 2)), word_key((A, A)): (int, 1)}
    power = x**6  # 2^k (3/2)^(6-k): whole for k >= 3
    objects: dict = {}
    for c in power.terms.values():
        objects.setdefault((type(c), c), set()).add(id(c))
    assert len(power.terms) == 64 and len(objects) == 7
    assert all(len(ids) == 1 for ids in objects.values())
    assert set(objects) == {(int if k >= 3 else Fraction, Fraction(2**k * 3**(6 - k), 2**(6 - k)))
                            for k in range(7)}
    assert type(power.terms[word_key((AD,) * 6)]) is int
    assert normal_order(power) == NormalOrderedForm.parse("(2 ad + 3/2 a)^6")


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
    # an exponent past the float range: the bound reads inf digits, not an OverflowError
    with pytest.raises(ResourceLimitError, match="~inf digits"):
        parse("2") ** 10**400
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
    # a coefficient 1 has no digits to bound: the first squaring past 48 letters refuses
    with pytest.raises(ResourceLimitError, match="ordering limit 48"):
        parse_expression("a") ** 10**400
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


def _generalized_stirling(r, s, n, k):
    # S_{r,s}(n, k) = ((-1)^k / k!) sum_p (-1)^p C(k, p) prod_{j=1}^{n} (p + (j-1)(r-s))^(falling s)
    # (Blasiak, Penson and Solomon, Ann. Combin. 7 (2003) 127)
    total = sum((-1) ** p * math.comb(k, p) * math.prod(math.perm(p + (j - 1) * (r - s), s) for j in range(1, n + 1))
                for p in range(k + 1))
    assert total % math.factorial(k) == 0
    return (-1) ** k * total // math.factorial(k)


@pytest.mark.parametrize("r, s", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (1, 0), (3, 3)])
def test_powers_of_one_word_match_the_generalized_stirling_numbers(r, s):
    # (ad^r a^s)^n = ad^(n(r-s)) sum_k S_{r,s}(n, k) ad^k a^k, on both the
    # Wick route (the parser) and the word route (normal_order)
    for n in range(6):
        text = f"(ad^{r} a^{s})^{n}"
        expected = {(n * (r - s) + k, k): c for k in range(n * s + 1)
                    if (c := _generalized_stirling(r, s, n, k))}
        for form in (NormalOrderedForm.parse(text), normal_order(parse_expression(text))):
            assert form.terms == expected, (text, form)
            assert_canonical(form.terms.values())


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
    # the empty form has no term to take the arithmetic from: it is z's zero
    empty = coherent_expectation(NormalOrderedForm(), z)
    assert type(empty) is type(z) and empty == 0
    assert type(coherent_expectation(NormalOrderedForm(), Fraction(z.real))) is Fraction


def expectation_by_terms(form: NormalOrderedForm, z):
    """Reference for exact z and exact |z|^2: one Fraction per term, c z^(r+s)
    for a real z; with |z|^2 exact, each parity of r + s summed apart and
    the odd sum times sqrt(|z|^2)."""
    if isinstance(z, CoherentParam):
        sums = {}
        for (r, s), c in form.terms.items():
            sums[(r + s) % 2] = sums.get((r + s) % 2, 0) + c * z.mod_sq ** ((r + s) // 2)
        even = sums.get(0, Fraction(0))
        return even + sums[1] * math.sqrt(z.mod_sq) if 1 in sums else even
    return sum((c * Fraction(z) ** (r + s) for (r, s), c in form.terms.items()), Fraction(0))


def random_form(rng: random.Random, coefficients: str, even_only: bool = False) -> NormalOrderedForm:
    terms = {}
    for _ in range(rng.randint(1, 12)):
        r, s = rng.randint(0, 9), rng.randint(0, 9)
        if even_only and (r + s) % 2:
            s += 1
        kind = coefficients if coefficients != "mixed" else rng.choice(("int", "fraction"))
        num = rng.randint(-10**6, 10**6)
        terms[r, s] = num if kind == "int" else Fraction(num, rng.randint(1, 10**4))
    return NormalOrderedForm(terms)


EXACT_POINTS = [0, -3, Fraction(-5, 3), Fraction(7, 4), CoherentParam.from_mod_sq(Fraction(9, 4)),
                CoherentParam.from_mod_sq(Fraction(2, 7)), CoherentParam.from_mod_sq(3),
                CoherentParam.from_mod_sq(0)]


@pytest.mark.parametrize("z", EXACT_POINTS, ids=str)
def test_exact_expectations_match_the_per_term_sum_in_value_and_type(z):
    rng = random.Random(26)
    forms = [NormalOrderedForm(), NormalOrderedForm({(0, 0): Fraction(-3, 8)}), NormalOrderedForm.one()]
    forms += [random_form(rng, kind, even_only) for kind in ("int", "fraction", "mixed")
              for even_only in (False, True) for _ in range(40)]
    # an odd sum that cancels to 0 still makes the value a float at |z|^2
    forms.append(NormalOrderedForm({(1, 0): 1, (0, 1): -1, (1, 1): Fraction(1, 3)}))
    for form in forms:
        got, want = coherent_expectation(form, z), expectation_by_terms(form, z)
        assert type(got) is type(want) and got == want, (str(form), z)
    if isinstance(z, CoherentParam):
        assert type(coherent_expectation(forms[-1], z)) is float


def test_an_odd_sum_past_the_float_range_overflows_as_the_per_term_sum_does():
    form = NormalOrderedForm({(1, 0): 10**400, (1, 1): 1})
    z = CoherentParam.from_mod_sq(Fraction(1, 3))
    for route in (coherent_expectation, expectation_by_terms):
        with pytest.raises(OverflowError):
            route(form, z)
    # the exact routes carry such a value
    assert coherent_expectation(form, Fraction(1, 3)) == expectation_by_terms(form, Fraction(1, 3))


def coefficient_types(element) -> set:
    return {type(c) for c in element.terms.values()}


@pytest.mark.parametrize("c, kind", [(3, int), (Fraction(3), Fraction), (Fraction(1, 3), Fraction)])
def test_coefficients_are_ints_exactly_where_the_data_are(c, kind):
    # kind is the type the scalar c is given as; the coefficients follow its
    # value alone, ints for whole data of either type
    assert type(c) is kind
    want = {int} if c.denominator == 1 else {Fraction}
    word = ((BosonExpression.ad() + BosonExpression.a()) * c) ** 4
    by_wick = ((NormalOrderedForm.symbol("ad") + NormalOrderedForm.symbol("a")) * c) ** 4
    bell_element = ((HopfElement.generator(1) + HopfElement.generator(2)) * c) ** 3
    for element in (word, by_wick, normal_order(word), bell_element, coproduct(bell_element)):
        assert coefficient_types(element) == want, element
        assert_canonical(element.terms.values())
    assert normal_order(word) == by_wick
    # the constructor's rule, as in EGFSeries
    keys = [word_key(w) for w in ((A,), (AD,), (A, AD))]
    assert {k: (type(c), c) for k, c in BosonExpression(dict(zip(keys, (2, Fraction(2), 0.5)))).terms.items()} == {
        keys[0]: (int, 2), keys[1]: (int, 2), keys[2]: (Fraction, Fraction(1, 2))}
    assert BosonExpression({keys[0]: 0.5}).terms == {keys[0]: Fraction(1, 2)}


def test_parsed_coefficients_are_ints_exactly_where_they_are_whole():
    assert coefficient_types(parse_expression("(2 ad + 3 a)^4 - 5")) == {int}
    assert coefficient_types(NormalOrderedForm.parse("(2 ad + 3 a)^4 - 5")) == {int}
    assert coefficient_types(parse_element("(2 y1 + 3 y2)^4 - 5")) == {int}
    whole = NormalOrderedForm.parse("(4/2 ad + 3/1 a)^4")
    assert coefficient_types(whole) == {int} and whole == NormalOrderedForm.parse("(2 ad + 3 a)^4")
    assert coefficient_types(parse_expression("(3/2 ad + 2/3 a)^2")) == {int, Fraction}
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


def test_exact_moments_are_their_closed_forms():
    # summed as one integer polynomial, to order 24: the Bell polynomials at
    # |z|^2 = 2/3, and the moments of ad + a at z = 5/4, those of a normal
    # law of mean 2z and variance 1, sum_k C(n, 2k) (2k - 1)!! (2z)^(n - 2k)
    y, z = Fraction(2, 3), Fraction(5, 4)
    got = word_moments(parse_expression("ad a"), 24, CoherentParam.from_mod_sq(y))
    assert got == [bell_polynomial(n, y) for n in range(25)]
    got = word_moments(parse_expression("ad + a"), 24, z)
    assert got == [sum(math.comb(n, 2 * k) * math.prod(range(1, 2 * k, 2)) * (2 * z) ** (n - 2 * k)
                       for k in range(n // 2 + 1)) for n in range(25)]


def test_word_moments_limit():
    with pytest.raises(ResourceLimitError):
        word_moments(number_word(1), 30, 1)


def test_word_moments_long_word():
    # 2 x 30 letters: within the term bound, whatever the word's length
    z = Fraction(3, 4)
    assert word_moments(parse_expression("ad^30"), 2, z) == [1, z**30, z**60]


@pytest.mark.parametrize("text", ["ad a", "ad + a"])
@pytest.mark.parametrize("z", [0.75, 1.25, 0.75 + 0j, 1.25 + 0j], ids=["3/4", "5/4", "3/4+0j", "5/4+0j"])
def test_floating_moments_match_the_exact_moments_rounded(text, z):
    # the oracle sums exactly at Fraction(z) and rounds once: no float
    # power or grouping of the floating route enters it
    w = parse_expression(text)
    got = word_moments(w, 24, z)
    want = word_moments(w, 24, Fraction(z.real))
    assert all(type(g) is type(z) for g in got[1:])
    for n, (g, exact) in enumerate(zip(got, want)):
        assert abs(g - float(exact)) <= 1e-12 * float(exact), (text, z, n)


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
    # |conj(z)^r z^s| = |z|^(r+s), and from_mod_sq sets z = sqrt(|z|^2)
    size = abs(complex(z.z if isinstance(z, CoherentParam) else z))
    for n, (g, v) in enumerate(zip(got, want, strict=True)):
        if isinstance(g, Fraction) and isinstance(v, Fraction):
            assert g == v, (str(w), n)
            continue
        form = normal_order(w ** n)
        scale = sum(abs(c) * size ** (r + s) for (r, s), c in form.terms.items())
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


def test_expression_nesting_is_a_parse_error():
    with pytest.raises(ExpressionParseError, match="parentheses nested too deeply"):
        parse_expression("(" * 5000 + "a" + ")" * 5000)


def test_a_negative_mod_sq_is_refused():
    with pytest.raises(ValueError):
        CoherentParam.from_mod_sq(-1)


def test_word_moments_at_order_zero_order_no_word():
    # W_0 = 1 needs no ordering; W_1 orders the word, past the ordering limit
    long_word = BosonExpression({word_key([AD] * 49): 1})
    assert word_moments(long_word, 0, 1) == [1]
    with pytest.raises(ResourceLimitError, match="^word of length 49 exceeds the ordering limit 48$"):
        word_moments(long_word, 1, 1)


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
    # printed text gives back each coefficient, type and all: a whole value
    # is an int on both sides, e.g. the 4 of (4/2 ad)^2
    for form in (NormalOrderedForm(terms), NormalOrderedForm.parse("(4/2 ad)^2")):
        back = NormalOrderedForm.parse(format_normal_form(form))
        assert {rs: (type(c), c) for rs, c in back.terms.items()} == {rs: (type(c), c) for rs, c in form.terms.items()}

