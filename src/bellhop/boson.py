"""Symbolic boson operator algebra: words in a / a-dagger, exact rational
expressions, normal ordering under [a, ad] = 1, forgetful ordering, and
coherent-state expectation values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import ResourceLimitError
from .lincomb import LinearCombination, _scaled, _unscaled

# word letters
A = 0   # annihilation operator a
AD = 1  # creation operator a-dagger

MOMENT_LIMIT = 24
WORD_PAIR_LIMIT = 2**16  # term pairs per product of expressions: (a + ad)^16 runs

# A word of L letters b_1..b_L is the int 1 << L | bits, b_1 the highest
# letter bit: its length is bit_length() - 1 and its count of ad letters
# bit_count() - 1.  The empty word is 1.  Int order is (length, letters)
# order, and w1 w2 is w1 << L2 | (w2 ^ 1 << L2).
Word = int


def word_key(letters: Iterable[int]) -> Word:
    """The int of the word with these letters (A or AD, left to right)."""
    key = 1
    for letter in letters:
        if letter not in (A, AD):
            raise ValueError(f"a word letter is A = {A} or AD = {AD}, not {letter!r}")
        key = key << 1 | letter
    return key


def word_letters(word: Word) -> tuple[int, ...]:
    """The letters of a word's int, left to right: word_key's inverse."""
    return tuple(map(int, bin(word)[3:]))


def _power_text(name: str, n: int) -> str:
    return name if n == 1 else f"{name}^{n}"


class BosonExpression(LinearCombination):
    """Finite rational linear combination of boson words."""

    __slots__ = ()
    unit_key = 1
    sort_key = staticmethod(lambda word: word)  # int order is (length, letters) order

    def __init__(self, terms: dict | None = None):
        # products and normal_order build through _exact and skip this check
        for k in terms or ():
            if type(k) is not int or k < 1:
                raise TypeError(f"a boson word key is the int of word_key, not {k!r}")
        super().__init__(terms)

    @staticmethod
    def key_text(word: Word) -> str:
        return " ".join(_power_text("ad" if bit == "1" else "a", len(list(run)))
                        for bit, run in groupby(bin(word)[3:]))

    # one-letter words: the sentinel bit, then the letter
    @classmethod
    def a(cls) -> "BosonExpression":
        return cls({0b10: 1})

    @classmethod
    def ad(cls) -> "BosonExpression":
        return cls({0b11: 1})

    @classmethod
    def symbol(cls, name: str):
        if name in ("a", "ad"):
            return cls.ad() if name == "ad" else cls.a()

    @classmethod
    def from_word(cls, letters: Iterable[int], coeff=1) -> "BosonExpression":
        return cls({word_key(letters): coeff})

    def __mul__(self, other):
        """Refuse, before building it, a product past 2 MOMENT_LIMIT letters or
        WORD_PAIR_LIMIT pairs; else concatenate the words of each pair.

        With one word length on a side, distinct pairs concatenate to
        distinct words (words form a free monoid) and nonzero products
        stay nonzero, so the product is one comprehension.  On integer
        data, ints or numerators over a common scale, it writes one shared
        coefficient per distinct product, which normal_order groups by.
        With mixed lengths on both sides, pairs can meet on one word and
        cancel.
        """
        if type(other) is not BosonExpression:
            return LinearCombination.__mul__(self, other)
        lengths_a = {k.bit_length() for k in self.terms}
        lengths_b = {k.bit_length() for k in other.terms}
        length, limit = max(lengths_a, default=1) + max(lengths_b, default=1) - 2, 2 * MOMENT_LIMIT
        if length > limit:
            raise ResourceLimitError(f"word of length {length} exceeds the ordering limit {limit}")
        pairs = len(self.terms) * len(other.terms)
        if pairs > WORD_PAIR_LIMIT:
            raise ResourceLimitError(f"product of {pairs} term pairs exceeds the limit {WORD_PAIR_LIMIT}")
        a, b, scale = _scaled(self.terms, other.terms)
        integers = scale is not None or Fraction not in {*map(type, a.values()), *map(type, b.values())}
        # k1 k2 is k1 << shift | tail: each word of b's length and its letter bits
        tails = [(k2.bit_length() - 1, k2 ^ 1 << k2.bit_length() - 1, c2) for k2, c2 in b.items()]
        if len(lengths_a) > 1 and len(lengths_b) > 1:
            out: dict[Word, int | Fraction] = {}
            for k1, c1 in a.items():
                for shift, tail, c2 in tails:
                    k, c = k1 << shift | tail, c1 * c2
                    if k in out:
                        c += out[k]
                        if not c:
                            del out[k]
                            continue
                    out[k] = c
            if integers:
                shared = _unscaled(out.values(), scale)
                out = {k: shared[n] for k, n in out.items()}
            return self._exact(out)
        if not integers:
            return self._exact({k1 << shift | tail: c1 * c2
                                for k1, c1 in a.items() for shift, tail, c2 in tails})
        # each distinct integer of a gets its row of b's words and coefficients
        numerators_a, numerators_b = set(a.values()), set(b.values())
        shared = _unscaled([n1 * n2 for n1 in numerators_a for n2 in numerators_b], scale)
        rows = {n1: [(shift, tail, shared[n1 * n2]) for shift, tail, n2 in tails] for n1 in numerators_a}
        return self._exact({k1 << shift | tail: c for k1, n1 in a.items() for shift, tail, c in rows[n1]})

    def max_word_length(self) -> int:
        # int order puts a longest word last
        return max(self.terms, default=1).bit_length() - 1


class NormalOrderedForm(LinearCombination):
    """sum c_{rs} (ad)^r a^s with exact rational coefficients, keyed by (r, s)."""

    __slots__ = ()
    unit_key = (0, 0)
    sort_key = staticmethod(lambda rs: (-rs[0], -rs[1]))  # descending (r, s)

    @staticmethod
    def key_text(rs: tuple[int, int]) -> str:
        return " ".join([_power_text(name, n) for name, n in zip(("ad", "a"), rs) if n])

    @staticmethod
    @lru_cache(maxsize=2**14)
    def key_product(rs: tuple[int, int], pq: tuple[int, int]) -> tuple[tuple[tuple[int, int], int], ...]:
        # Wick: ad^r a^s ad^p a^q = sum_k k! C(s,k) C(p,k) ad^(r+p-k) a^(s+q-k),
        # k the number of contractions of an a with an ad
        (r, s), (p, q) = rs, pq
        return tuple(
            ((r + p - k, s + q - k), math.perm(s, k) * math.comb(p, k))
            for k in range(min(s, p) + 1)
        )

    @classmethod
    def symbol(cls, name: str):
        if name in ("a", "ad"):
            return cls({(1, 0) if name == "ad" else (0, 1): 1})

    def __mul__(self, other):
        """Refuse a product of forms with top degrees (R, S) and (P, Q)
        before it is built when its term bound (R+P+1)(S+Q+1) exceeds
        (2 MOMENT_LIMIT + 1)^2."""
        if type(other) is NormalOrderedForm:
            (r, s), (p, q) = self._top_degrees(), other._top_degrees()
            keys, limit = (r + p + 1) * (s + q + 1), (2 * MOMENT_LIMIT + 1) ** 2
            if keys > limit:
                raise ResourceLimitError(
                    f"product of forms of top degrees ({r}, {s}) and ({p}, {q}) "
                    f"may have {keys} terms, over the limit {limit}"
                )
        return LinearCombination.__mul__(self, other)

    def _top_degrees(self) -> tuple[int, int]:
        if not self.terms:
            return 0, 0
        # map and max: this runs before every product
        return max(self.terms)[0], max(map(itemgetter(1), self.terms))

    def coefficient(self, r: int, s: int) -> int | Fraction:
        return self.terms.get((r, s), 0)

    def to_expression(self) -> BosonExpression:
        # ad^r a^s: the sentinel and r one bits, then s zero bits
        return BosonExpression({((2 << r) - 1) << s: c for (r, s), c in self.terms.items()})


def _slot_width(n_ad: int, n_a: int) -> int:
    """Bits per slot of the packed normal form of a word of class (n_ad, n_a).

    Wick's theorem makes slot k of a word's form the number of ways to
    contract k disjoint (a, ad) pairs, each a left of its ad.  That is at
    most the number of k-matchings of the a's with the ad's,
    k! C(n_a, k) C(n_ad, k), so every slot is at most the partial matchings
    P = sum_k k! C(n_a, k) C(n_ad, k).  The class holds N = C(n_ad + n_a, n_a)
    distinct words, so any sum of distinct words' forms has slots of at most
    P N < 2^(bits(P) + bits(N)): such sums add without a carry between slots.
    """
    matchings = sum(math.perm(n_a, k) * math.comb(n_ad, k) for k in range(min(n_ad, n_a) + 1))
    return matchings.bit_length() + math.comb(n_ad + n_a, n_a).bit_length()


@lru_cache(maxsize=2**14)
def _normal_order_word(word: Word) -> tuple[tuple[int, int], int]:
    """The word's class (n_ad, n_a) and its normal form packed in one int.

    With w = _slot_width(n_ad, n_a), bits k w to (k + 1) w - 1 (slot k) hold
    the coefficient of ad^(n_ad-k) a^(n_a-k), k = 0..min(n_ad, n_a).  A word
    longer than 2 MOMENT_LIMIT letters is refused: the intermediate term
    count grows quadratically with word length.  lru_cache keeps no
    exception, so every call refuses it again.
    """
    length, limit = word.bit_length() - 1, 2 * MOMENT_LIMIT
    if length > limit:
        raise ResourceLimitError(f"word of length {length} exceeds the ordering limit {limit}")
    # Left-to-right fold over the contraction count k.  After i letters ad
    # and j letters a, term k is ad^(i-k) a^(j-k).  Appending a keeps every k; appending ad
    # uses a^s ad = ad a^s + s a^(s-1), so term k - 1 feeds term k with
    # weight s = j - k + 1.  Updating from the top reads each old k - 1.
    coeffs, n_a = [1], 0
    for bit in bin(word)[3:]:
        if bit == "0":
            n_a += 1
            continue
        if n_a >= len(coeffs):
            coeffs.append(0)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] += coeffs[k - 1] * (n_a - k + 1)
    n_ad = length - n_a
    width, packed = _slot_width(n_ad, n_a), 0
    for c in reversed(coeffs):
        packed = packed << width | c
    return (n_ad, n_a), packed


def normal_order(expr: BosonExpression) -> NormalOrderedForm:
    """Rewrite an expression under [a, ad] = 1 with all annihilators right.

    Words longer than 2 MOMENT_LIMIT letters are refused (_normal_order_word).
    """
    # Words with one coefficient object and one class form a group, whose
    # packed forms add in one sum() (see _slot_width for why no slot
    # carries).  Products share their coefficient objects (a power of a sum
    # holds n + 1 for its 2^n words), and expr holds every object while
    # this runs, so an id names one.  Each object's numerator and
    # denominator are read once, and groups of equal value merge.  Each
    # merged sum is unpacked once and times its numerator joins the integer
    # numerators of its denominator, int coefficients under None; one
    # Fraction per (denominator, key) at the end.  One group per
    # denominator needs no guard, where a product's common scale (an lcm)
    # falls back to Fractions past SCALE_RATIO times the mean bits of the
    # denominators; an expression built by products has few denominators.
    by_object: dict[tuple[int, tuple[int, int]], list[int]] = {}
    objects: dict[int, int | Fraction] = {}  # id -> object, recorded as its first group opens
    for word, coeff in expr.terms.items():
        rs, packed = _normal_order_word(word)
        key = (id(coeff), rs)
        group = by_object.get(key)
        if group is None:
            by_object[key] = [packed]
            objects[key[0]] = coeff
        else:
            group.append(packed)
    values = {i: (None if type(c) is int else c.denominator, c.numerator) for i, c in objects.items()}
    sums: dict[tuple[int | None, int, tuple[int, int]], int] = {}
    for (i, rs), group in by_object.items():
        key = (*values[i], rs)
        sums[key] = sums.get(key, 0) + sum(group)
    numerators: dict[int | None, dict[tuple[int, int], int]] = {}
    widths: dict[tuple[int, int], int] = {}  # per class: distinct coefficients make one sum per word
    for (den, num, rs), packed in sums.items():
        acc = numerators.setdefault(den, {})
        width = widths.get(rs)
        if width is None:
            width = widths[rs] = _slot_width(*rs)
        mask, (r, s) = (1 << width) - 1, rs
        while packed:  # slot k = 0, 1, ...: the coefficient of ad^r a^s
            c = packed & mask
            if c:
                acc[r, s] = acc.get((r, s), 0) + num * c
            packed >>= width
            r, s = r - 1, s - 1
    out = NormalOrderedForm()
    for den, acc in numerators.items():
        out += NormalOrderedForm._exact(
            {rs: num if den is None else Fraction(num, den) for rs, num in acc.items() if num})
    return out


def forgetful_normal_order(expr: BosonExpression) -> NormalOrderedForm:
    """Move creators left of annihilators, discarding commutator terms."""
    out: dict[tuple[int, int], int | Fraction] = {}
    for word, coeff in expr.terms.items():
        n_ad = word.bit_count() - 1
        rs = (n_ad, word.bit_length() - 1 - n_ad)
        out[rs] = out.get(rs, 0) + coeff
    return NormalOrderedForm(out)


def number_word(n: int = 1) -> BosonExpression:
    """(ad a)^n as an expression."""
    return BosonExpression.from_word((AD, A)) ** n


def stirling_via_ordering(n: int) -> tuple[int, ...]:
    """Diagonal coefficients S(n, 1..n) read off normal_order((ad a)^n)."""
    if n < 1:
        raise ValueError("n must be positive")
    form = normal_order(number_word(n))  # integer data: int coefficients
    return tuple(form.coefficient(k, k) for k in range(1, n + 1))


# --------------------------------------------------------------------------
# Coherent states
# --------------------------------------------------------------------------


class CoherentParam(NamedTuple):
    """Coherent-state label z.

    mod_sq, when set, carries |z|^2 exactly for a real nonnegative z; matrix
    elements with r+s even then evaluate in exact rational arithmetic even
    when z itself is irrational.
    """

    z: complex = 1
    mod_sq: Fraction | None = None

    @classmethod
    def from_mod_sq(cls, mod_sq) -> "CoherentParam":
        mod_sq = Fraction(mod_sq)
        if mod_sq < 0:
            raise ValueError("|z|^2 must be nonnegative")
        return cls(z=math.sqrt(mod_sq), mod_sq=mod_sq)

    def powers(self, r: int, s: int):
        """conj(z)^r * z^s, exact when possible."""
        if self.mod_sq is not None:
            if (r + s) % 2 == 0:
                return self.mod_sq ** ((r + s) // 2)
            return float(self.mod_sq) ** ((r + s - 1) // 2) * math.sqrt(self.mod_sq)
        z = self.z
        if isinstance(z, (int, Fraction)):
            return Fraction(z) ** (r + s)
        if isinstance(z, float):  # real: conj(z) = z
            return z ** (r + s)
        z = complex(z)
        return z.conjugate() ** r * z**s


def coherent_expectation(form: NormalOrderedForm, z) -> Fraction | float | complex:
    """<z| form |z> by the eigenvalue property: (r,s) term -> conj(z)^r z^s.

    With |z|^2 exact, each parity of r + s is summed exactly and the odd sum
    is multiplied by sqrt(|z|^2) once; a float z sums its float terms by
    fsum, and a complex z its real and imaginary parts.  The value does not
    depend on the term order.
    """
    param = z if isinstance(z, CoherentParam) else CoherentParam(z=z)
    if param.mod_sq is not None:
        sums: dict[int, Fraction] = {}
        for (r, s), c in form.terms.items():
            sums[(r + s) % 2] = sums.get((r + s) % 2, 0) + c * param.mod_sq ** ((r + s) // 2)
        even = sums.get(0, Fraction(0))
        return even + sums[1] * math.sqrt(param.mod_sq) if 1 in sums else even
    terms = [c * param.powers(r, s) for (r, s), c in form.terms.items()]
    if not terms or isinstance(terms[0], Fraction):  # an exact z
        return sum(terms, Fraction(0))
    if isinstance(terms[0], float):
        return math.fsum(terms)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def word_moments(w: BosonExpression, nmax: int, z) -> list:
    """Moments W_n = <z| w^n |z> for n = 0..nmax; W_0 = 1.

    Beyond nmax <= MOMENT_LIMIT, the term bound of each product of
    normal-ordered forms bounds the work.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if nmax > MOMENT_LIMIT:
        raise ResourceLimitError(f"moment order {nmax} exceeds the limit {MOMENT_LIMIT}")
    moments: list = [Fraction(1)]
    if nmax == 0:  # w is never ordered, so its length is unchecked
        return moments
    step = normal_order(w)
    power = NormalOrderedForm.one()
    for _ in range(nmax):
        power = power * step
        moments.append(coherent_expectation(power, z))
    return moments


# --------------------------------------------------------------------------
# Text syntax: the grammar of bellhop.lincomb with the symbols `a` and `ad`
# --------------------------------------------------------------------------


def format_expression(expr: BosonExpression) -> str:
    """Canonical text form, e.g. '2 ad a + 1/2 a^2'; parseable back."""
    return str(expr)


def format_normal_form(form: NormalOrderedForm) -> str:
    """Print 'ad^r a^s' terms in descending (r, s), e.g. 'ad^2 a^2 + ad a'."""
    return str(form)


def parse_expression(text: str) -> BosonExpression:
    """Parse the boson-word text syntax, e.g. '(ad a)^3' or 'ad + a'."""
    return BosonExpression.parse(text)
