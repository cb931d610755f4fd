"""Symbolic boson operator algebra: words in a / a-dagger, exact rational
expressions, normal ordering under [a, ad] = 1, forgetful ordering, and
coherent-state expectation values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import add, itemgetter, mul
from typing import Iterable, NamedTuple

from .errors import ResourceLimitError, _polynomial_at, size
from .lincomb import LinearCombination, _over_common_scale, _scaled, _unscaled

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

        Both operands run as integer numerators over their common scales
        (``_scaled``), and either path writes one coefficient object per
        distinct value, as normal_order groups words by object.  With one
        word length on a side, distinct pairs concatenate to distinct words
        (words form a free monoid) and nonzero products stay nonzero, so
        the product is one comprehension.  Mixed lengths on both sides,
        where pairs can meet on one word and cancel, take the loop.
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
        # k1 k2 is k1 << shift | tail: each word of b's length and its letter bits
        tails = [(k2.bit_length() - 1, k2 ^ 1 << k2.bit_length() - 1, c2) for k2, c2 in b.items()]
        if len(lengths_a) > 1 and len(lengths_b) > 1:
            out: dict[Word, int] = {}
            for k1, c1 in a.items():
                for shift, tail, c2 in tails:
                    k, c = k1 << shift | tail, c1 * c2
                    if k in out:
                        c += out[k]
                        if not c:
                            del out[k]
                            continue
                    out[k] = c
            shared = _unscaled(out.values(), scale)
            return self._exact({k: shared[n] for k, n in out.items()})
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
        r, s = rs
        ad = ("ad" if r == 1 else f"ad^{r}") if r else ""
        a = ("a" if s == 1 else f"a^{s}") if s else ""
        return f"{ad} {a}" if r and s else ad or a

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


_CLASS_BASE = 2 * MOMENT_LIMIT + 1  # n_a < _CLASS_BASE, so n_ad _CLASS_BASE + n_a names a class


@lru_cache(maxsize=_CLASS_BASE**2)
def _word_class(n_ad: int, n_a: int) -> tuple[int, tuple[int, int], int]:
    """The class key n_ad _CLASS_BASE + n_a of the words with n_ad letters ad
    and n_a letters a, their class (n_ad, n_a), and the bits per slot of
    their packed normal forms.

    Wick's theorem makes slot k of a word's form the number of ways to
    contract k disjoint (a, ad) pairs, each a left of its ad.  That is at
    most the number of k-matchings of the a's with the ad's,
    k! C(n_a, k) C(n_ad, k), so every slot is at most the partial matchings
    P = sum_k k! C(n_a, k) C(n_ad, k).  The class holds N = C(n_ad + n_a, n_a)
    distinct words, so any sum of distinct words' forms has slots of at most
    P N < 2^(bits(P) + bits(N)): such sums add without a carry between slots.
    """
    matchings = sum(math.perm(n_a, k) * math.comb(n_ad, k) for k in range(min(n_ad, n_a) + 1))
    width = matchings.bit_length() + math.comb(n_ad + n_a, n_a).bit_length()
    return n_ad * _CLASS_BASE + n_a, (n_ad, n_a), width


@lru_cache(maxsize=2**14)
def _core_coeffs(core: Word) -> tuple[int, ...]:
    """The slots of a core's normal form: slot k the coefficient of
    ad^(n_ad-k) a^(n_a-k), n_ad and n_a the core's letter counts.

    A core is the empty word or a word from a to ad.  Leading ad's and
    trailing a's contract with nothing, so N(ad^p w a^q) = ad^p N(w) a^q and
    a word's slots are its core's.  A core P a^m ad is one step from its
    prefix core P: P a^m keeps P's slots, and appending ad uses
    a^s ad = ad a^s + s a^(s-1), so slot k - 1 feeds slot k with weight
    s = n_a - k + 1.  A miss recurses once per ad of the core, at most
    2 MOMENT_LIMIT deep, and rebuilds an evicted prefix on the way.
    """
    if core == 1:
        return (1,)
    prefix = core >> 1  # drop the last letter, an ad, then the a's before it
    prefix >>= (prefix & -prefix).bit_length() - 1
    slots = _core_coeffs(prefix)
    n_a = core.bit_length() - core.bit_count()  # every a of the core is left of its last ad
    if n_a >= len(slots):
        slots += (0,)
    return (slots[0], *map(add, slots[1:], map(mul, slots, range(n_a, n_a - len(slots), -1))))


_CLASS_BITS = 12  # every class key is below _CLASS_BASE^2 = 2401 < 2^12
_CLASS_MASK = (1 << _CLASS_BITS) - 1
_WORDS_LIMIT = 2**14
# word -> packed << _CLASS_BITS | class key, for at most _WORDS_LIMIT words
_WORDS: dict[Word, int] = {}


def _normal_order_word(word: Word) -> int:
    """The word's packed normal form shifted left by _CLASS_BITS, or'd with
    its class key (_word_class), stored in _WORDS for normal_order to read.

    With w the class's width, bits k w to (k + 1) w - 1 (slot k) of the
    packed form hold the coefficient of ad^(n_ad-k) a^(n_a-k),
    k = 0..min(n_ad, n_a): the slots of the word's core (_core_coeffs).  A
    word longer than 2 MOMENT_LIMIT letters is refused before anything is
    stored: the intermediate term count grows quadratically with word
    length.  A full _WORDS is cleared before the word is stored.
    """
    length, limit = word.bit_length() - 1, 2 * MOMENT_LIMIT
    if length > limit:
        raise ResourceLimitError(f"word of length {length} exceeds the ordering limit {limit}")
    n_ad = word.bit_count() - 1
    key, _, width = _word_class(n_ad, length - n_ad)
    # the core: drop the trailing a's (low zero bits), then the leading ad's
    # (the one bits below the sentinel, which are zero bits of the flipped word)
    core = word >> (word & -word).bit_length() - 1
    rest = (core ^ (2 << core.bit_length() - 1) - 1).bit_length()
    packed = 0
    for c in reversed(_core_coeffs(core & (1 << rest) - 1 | 1 << rest)):
        packed = packed << width | c
    entry = packed << _CLASS_BITS | key
    # No lock: a dict's get, len, clear and item assignment are each
    # atomic, so threads racing here can only clear twice or pass the
    # bound by one entry each
    if len(_WORDS) >= _WORDS_LIMIT:
        _WORDS.clear()
    _WORDS[word] = entry
    return entry


def normal_order(expr: BosonExpression) -> NormalOrderedForm:
    """Rewrite an expression under [a, ad] = 1 with all annihilators right.

    Words longer than 2 MOMENT_LIMIT letters are refused (_normal_order_word).
    """
    # Words with one coefficient object and one class form a group, whose
    # packed forms add in one sum() (see _word_class for why no slot
    # carries).  Products share their coefficient objects (a power of a sum
    # holds n + 1 for its 2^n words), and expr holds every object while
    # this runs, so an id names one.  Each group's sum is unpacked once,
    # times its numerator over L = the lcm of the group denominators, into
    # one integer sum per key, where equal values held by distinct objects
    # meet; each sum maps back to its coefficient once (_unscaled).
    groups: dict[tuple[int, int], tuple[int | Fraction, list[int]]] = {}
    words = _WORDS.get  # _WORDS is cleared, never rebound
    for word, coeff in expr.terms.items():
        entry = words(word)
        if entry is None:
            entry = _normal_order_word(word)
        group_key = (id(coeff), entry & _CLASS_MASK)
        group = groups.get(group_key)
        if group is None:
            groups[group_key] = (coeff, [entry])
        else:
            group[1].append(entry)
    scale = math.lcm(*{coeff.denominator for coeff, _ in groups.values()})
    acc: dict[tuple[int, int], int] = {}
    for (_, key), (coeff, group) in groups.items():
        _, (r, s), width = _word_class(*divmod(key, _CLASS_BASE))
        # each entry is packed << _CLASS_BITS | key: drop the keys, then the shift
        packed = (sum(group) - len(group) * key) >> _CLASS_BITS
        num, mask = coeff.numerator * (scale // coeff.denominator), (1 << width) - 1
        while packed:  # slot k = 0, 1, ...: the coefficient of ad^r a^s
            c = packed & mask
            if c:
                acc[r, s] = acc.get((r, s), 0) + num * c
            packed >>= width
            r, s = r - 1, s - 1
    values = _unscaled(acc.values(), scale)
    return NormalOrderedForm._exact({rs: values[n] for rs, n in acc.items() if n})


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
    """Diagonal coefficients S(n, 1..n) read off normal_order((ad a)^n): ()
    at n = 0, whose form is 1."""
    n = size(n)
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


def coherent_expectation(form: NormalOrderedForm, z) -> Fraction | float | complex:
    """<z| form |z> by the eigenvalue property: (r,s) term -> conj(z)^r z^s.

    An exact z and an exact |z|^2 are summed as one integer polynomial over
    a common denominator: the coefficients over the lcm of their
    denominators, in z for an exact z, or in |z|^2 for each parity of
    r + s.  The odd parity's sum is multiplied by sqrt(|z|^2) once, and
    makes the value a float whenever some key has odd r + s.  A float z
    sums its float terms by fsum, and a complex z its real and imaginary
    parts.  The value does not depend on the term order.
    """
    param = z if isinstance(z, CoherentParam) else CoherentParam(z=z)
    if param.mod_sq is not None:
        terms, scale = _over_common_scale(form.terms)
        y = Fraction(param.mod_sq)
        even = _polynomial_at((((r + s) // 2, n) for (r, s), n in terms.items() if not (r + s) % 2), scale, y)
        odd = [((r + s) // 2, n) for (r, s), n in terms.items() if (r + s) % 2]
        return even + _polynomial_at(odd, scale, y) * math.sqrt(param.mod_sq) if odd else even
    if isinstance(param.z, (int, Fraction)):  # an exact z, also for a form with no terms
        terms, scale = _over_common_scale(form.terms)
        return _polynomial_at(((r + s, n) for (r, s), n in terms.items()), scale, Fraction(param.z))
    if isinstance(param.z, float):  # real: conj(z) = z
        return math.fsum(c * param.z ** (r + s) for (r, s), c in form.terms.items())
    z = complex(param.z)
    # conj(z)^r z^s is formed before c multiplies it: another grouping rounds differently
    terms = [c * (z.conjugate() ** r * z**s) for (r, s), c in form.terms.items()]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def word_moments(w: BosonExpression | NormalOrderedForm, nmax: int, z) -> list:
    """Moments W_n = <z| w^n |z> for n = 0..nmax; W_0 = 1.

    An expression w is normal-ordered once; a form is the step as it is.
    Beyond nmax <= MOMENT_LIMIT, the term bound of each product of
    normal-ordered forms bounds the work.
    """
    nmax = size(nmax, "nmax", MOMENT_LIMIT, "moment order ")
    moments: list = [Fraction(1)]
    if nmax == 0:  # w is never ordered, so its length is unchecked
        return moments
    step = w if type(w) is NormalOrderedForm else normal_order(w)
    param = z if isinstance(z, CoherentParam) else CoherentParam(z=z)
    power = NormalOrderedForm.one()
    for _ in range(nmax):
        power = power * step
        moments.append(coherent_expectation(power, param))
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
