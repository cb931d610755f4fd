"""Finite linear combinations with exact rational coefficients over a key
set: boson words, normal-ordered pairs (r, s), BELL monomials and monomial
pairs.  A subclass supplies only its hooks: the key product, the unit key,
the sort key, the text of a key, the coefficient separator and the element
a symbol name stands for in text.  One parser reads the text of every
subclass, and ``str`` prints text it reads back.

A coefficient is an int exactly when it is whole, and a Fraction
otherwise (``errors.rational``): the constructor, ``+``, scalar ``*``,
products and the parser all keep that rule, so one value has one
coefficient.  A product runs on integers (``_scaled``): each operand is
scaled once by the lcm D of its denominators, an int's being 1, the pair
loop multiplies integer numerators, and each result n maps back as
n / (D1 D2), one object per distinct n (``_unscaled``; powers of sums
repeat their coefficients).  Words multiply by concatenation in
``BosonExpression.__mul__``, which shares these two steps; the loop here
multiplies normal forms (Wick), BELL monomials and tensors.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Callable, Iterable

from .errors import (
    ExpressionParseError, ResourceLimitError, float_times, int_digits_limit, int_text, rational, size,
)


class LinearCombination:
    """sum c_k k; ``terms`` maps each key k to its nonzero c_k: an int when
    it is whole, else a Fraction.

    A product multiplies integer numerators over one scale per operand
    (see the module docstring).
    """

    __slots__ = ("terms",)

    unit_key: Any
    sort_key: Callable[[Any], Any]
    key_text: Callable[[Any], str]
    separator = " "
    # k1 * k2 as (key, integer weight) pairs: one pair (k1 k2, 1) for
    # monomials and tensors, a weighted sum for the Wick product of normal
    # forms.  None: scalars only, unless the subclass multiplies its keys
    # itself, as BosonExpression concatenates words.
    key_product: Callable[[Any, Any], Iterable[tuple[Any, int]]] | None = None

    def __init__(self, terms: dict | None = None):
        self.terms: dict[Any, int | Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = rational(c)
                if c:
                    self.terms[k] = c

    @classmethod
    def _exact(cls, terms: dict[Any, int | Fraction]):
        """Wrap a dict of nonzero coefficients, each already by the rule, as it is."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def one(cls):
        return cls({cls.unit_key: 1})

    @classmethod
    def symbol(cls, name: str):
        """The element that ``name`` stands for in text, or None."""
        return None

    @classmethod
    def parse(cls, text: str):
        """Read text in the grammar of ``_Parser``, e.g. '2 ad a + 1/2 a^2'."""
        return _Parser(cls, text).parse()

    def sorted_terms(self) -> list[tuple[Any, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda kc: self.sort_key(kc[0]))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                c += out[k]
                if not c:  # a sum is the only way to reach zero
                    del out[k]
                    continue
                c = rational(c)  # two Fractions can sum to a whole value
            out[k] = c
        return self._exact(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            if isinstance(other, float):  # the constructor's rule: a float is its Fraction
                if not math.isfinite(other):
                    return NotImplemented
                other = Fraction(other)
            if not other:
                return type(self)()
            # one product per coefficient object: terms that share an object
            # (a power of a sum shares n + 1 among 2^n words) share its product
            products = {id(c): c for c in self.terms.values()}
            products = {i: rational(c * other) for i, c in products.items()}
            return self._exact({k: products[id(c)] for k, c in self.terms.items()})
        product = self.key_product
        if type(other) is not type(self) or product is None:
            return NotImplemented
        a, b, scale = _scaled(self.terms, other.terms)
        out: dict[Any, int | Fraction] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                c12 = c1 * c2
                for k, w in product(k1, k2):
                    c = c12 if w == 1 else c12 * w
                    if k in out:
                        c += out[k]
                        if not c:
                            del out[k]
                            continue
                    out[k] = c
        if scale != 1:
            values = _unscaled(out.values(), scale)
            out = {k: values[n] for k, n in out.items()}
        return self._exact(out)

    # only scalars reach __rmul__, so a noncommutative key product is safe
    __rmul__ = __mul__

    def __pow__(self, n: int):
        # binary squaring: powers of one element commute in any associative
        # algebra, so x^(a+b) = x^a x^b whatever the grouping.  A power whose
        # coefficients pass the digits Python prints an int with (2^99999999)
        # is refused before any squaring.
        n = size(n, "exponent")
        if self.terms:
            largest = max(max(abs(c.numerator), c.denominator) for c in self.terms.values())
            digits = float_times(n, math.log10(largest))
            limit = int_digits_limit()
            if 0 < limit < digits:
                raise ResourceLimitError(
                    f"power {int_text(n)} has coefficients of ~{digits:.0f} digits, over the "
                    f"{limit} digits an integer prints with"
                )
        if not n:
            return self.one()
        out, square = None, self
        while True:
            if n & 1:
                # square is the higher power: a product builds its rows over
                # the right operand, so the smaller one goes there
                out = square if out is None else square * out
            n >>= 1
            if not n:
                return out
            square = square * square

    def __eq__(self, other) -> bool:
        # type-strict: equal keys of two algebras, e.g. the word (1, 1) and
        # the pair (1, 1), are different elements
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        parts = []
        for key, c in self.sorted_terms():
            # sign and magnitude from the numerator and denominator: an int's
            # denominator is 1, so printing takes no Fraction arithmetic
            n, d = c.numerator, c.denominator
            negative, n = n < 0, abs(n)
            mag = str(n) if d == 1 else f"{n}/{d}"
            if key == self.unit_key:
                body = mag
            elif n == d == 1:
                body = self.key_text(key)
            else:
                body = f"{mag}{self.separator}{self.key_text(key)}"
            if parts:
                body = f" {'-' if negative else '+'} {body}"
            elif negative:
                body = f"-{body}"
            parts.append(body)
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


def _scaled(a: dict[Any, int | Fraction], b: dict[Any, int | Fraction]) -> tuple[dict, dict, int]:
    """(A, B, D1 D2) for a product of the terms a and b: their integer
    numerators over scales D1 and D2, and the scale of their products.
    Terms of ints alone are their own numerators, over 1."""
    scale_a = scale_b = 1
    # the maps stop at an operand's first Fraction
    if Fraction in map(type, a.values()):
        a, scale_a = _over_common_scale(a)
    if Fraction in map(type, b.values()):
        b, scale_b = _over_common_scale(b)
    return a, b, scale_a * scale_b


def _unscaled(numerators: Iterable[int], scale: int) -> dict[int, int | Fraction]:
    """{n: n / scale} by the coefficient rule, one object per distinct
    numerator n.  The rule is applied in place, as n // scale where scale
    divides n and Fraction(n, scale) otherwise: one C-level % per value,
    not a call of ``rational``."""
    return {n: n // scale if not n % scale else Fraction(n, scale) for n in set(numerators)}


def _over_common_scale(terms: dict[Any, int | Fraction]) -> tuple[dict[Any, int], int]:
    """({k: c_k D}, D) for the lcm D of the denominators of the c_k."""
    scale = math.lcm(*{c.denominator for c in terms.values()})
    return {k: c.numerator * (scale // c.denominator) for k, c in terms.items()}, scale


def _tokens(text: str) -> list[tuple[str, Any, int]]:
    """(kind, value, position) triples, closed by ('end', None, len(text))."""
    out: list[tuple[str, Any, int]] = []
    limit = int_digits_limit()
    # an int or int/int Fraction, a symbol name, or one other character
    for m in re.finditer(r"(\d+)(?:/(\d*))?|([A-Za-z]\w*)|(\S)", text):
        num, den, name, char = m.groups()
        if num is not None:
            if den == "":
                raise ExpressionParseError("expected denominator", m.end())
            digits = max(len(num), len(den or ""))
            if 0 < limit < digits:
                raise ExpressionParseError(
                    f"number of {digits} digits exceeds the {limit} digits an integer is read with",
                    m.start())
            if den is not None and not int(den):
                raise ExpressionParseError("zero denominator", m.start(2))
            out.append(("num", int(num) if den is None else Fraction(int(num), int(den)), m.start()))
        elif name is not None:
            out.append(("name", name, m.start()))
        elif char in "+-*^()":
            out.append((char, char, m.start()))
        else:
            raise ExpressionParseError(f"unexpected character {char!r}", m.start())
    out.append(("end", None, len(text)))
    return out


class _Parser:
    """Recursive descent, building elements of ``cls`` as it reads:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (['*'] factor)*
    factor := atom ['^' integer]
    atom   := symbol | rational | '(' expr ')'
    """

    def __init__(self, cls, text: str):
        self.cls = cls
        self.tokens = _tokens(text)[::-1]  # the next token last

    def peek(self) -> str:
        return self.tokens[-1][0]

    def next(self) -> tuple[str, Any, int]:
        return self.tokens.pop()

    def expect(self, kind: str, message: str) -> None:
        got, _, pos = self.next()
        if got != kind:
            raise ExpressionParseError(message, pos)

    def parse(self):
        try:
            out = self.expr()
        except RecursionError:  # one level per open '(': the stack is the bound
            raise ExpressionParseError("parentheses nested too deeply", self.tokens[-1][2]) from None
        self.expect("end", "unexpected trailing input")
        return out

    def expr(self):
        negate = self.peek() in "+-" and self.next()[0] == "-"
        acc = self.term()
        if negate:
            acc = acc * -1
        while self.peek() in "+-":
            if self.next()[0] == "-":
                acc = acc - self.term()
            else:
                acc = acc + self.term()
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() in ("*", "name", "num", "("):
            if self.peek() == "*":
                self.next()
            acc = acc * self.factor()
        return acc

    def factor(self):
        atom = self.atom()
        if self.peek() != "^":
            return atom
        self.next()
        kind, value, pos = self.next()
        if kind != "num" or value.denominator != 1:
            raise ExpressionParseError("exponent must be a nonnegative integer", pos)
        return atom ** value.numerator

    def atom(self):
        kind, value, pos = self.next()
        if kind == "name":
            element = self.cls.symbol(value)
            if element is None:
                raise ExpressionParseError(f"unknown symbol {value!r}", pos)
            return element
        if kind == "num":
            return self.cls.one() * value
        if kind == "(":
            inner = self.expr()
            self.expect(")", "expected ')'")
            return inner
        raise ExpressionParseError("expected a symbol, a number or '('", pos)
