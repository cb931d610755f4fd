"""The BELL Hopf algebra: the free commutative algebra on generators
y_1, y_2, ... with every generator primitive, together with machine
checks of the Hopf axioms, the single-variable specialization, and the
coding of set-partition diagrams by monomials.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import ResourceLimitError
from .lincomb import LinearCombination

Rational = Fraction | int

WEIGHT_LIMIT = 12  # p(0) + ... + p(12) = 272 basis monomials
SAMPLES = 100  # random pairs per pair check


class Monomial(tuple):
    """A commutative word in the alphabet {y_1, y_2, ...}: the sorted tuple
    of its letter indices, so hash, equality and order are the tuple's.

    The empty tuple is the algebra unit.  The constructor is the one place
    letters are checked; a product of two monomials merges them without
    checking again.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "Monomial":
        letters = sorted(map(operator.index, letters))  # a float or str letter raises TypeError
        if letters and letters[0] < 1:
            raise ValueError("letter indices must be positive")
        return tuple.__new__(cls, letters)

    letters = property(tuple)  # the plain tuple
    weight = property(sum)  # sum of the indices
    degree = property(len)  # number of letters

    def __mul__(self, other: "Monomial") -> "Monomial":
        return tuple.__new__(Monomial, sorted(self + other))

    def multiplicities(self) -> dict[int, int]:
        return {k: len(list(run)) for k, run in itertools.groupby(self)}

    def __str__(self) -> str:
        parts = (f"y{k}" if m == 1 else f"y{k}^{m}" for k, m in self.multiplicities().items())
        return "*".join(parts) or "1"


UNIT = Monomial()


class HopfElement(LinearCombination):
    """Finite rational linear combination of monomials."""

    __slots__ = ()
    unit_key = UNIT
    separator = "*"
    key_product = staticmethod(lambda m, n: ((m * n, 1),))  # monomials merge
    sort_key = staticmethod(lambda m: (m.weight, m.degree, m))
    key_text = staticmethod(str)

    @classmethod
    def unit(cls, c: Rational = 1) -> "HopfElement":
        return cls({UNIT: c})

    @classmethod
    def symbol(cls, name: str):
        # y<k>; a k the Monomial constructor rejects reads as an unknown symbol
        if name[0] == "y" and name[1:].isdecimal():
            try:
                return cls.generator(int(name[1:]))
            except ValueError:
                return None

    @classmethod
    def generator(cls, k: int) -> "HopfElement":
        return cls({Monomial((k,)): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, c: Rational = 1) -> "HopfElement":
        return cls({m: c})

    def is_zero(self) -> bool:
        return not self.terms


class TensorElement(LinearCombination):
    """Element of BELL (x) BELL: rational combination of monomial pairs."""

    __slots__ = ()
    unit_key = (UNIT, UNIT)
    separator = "*"
    key_product = staticmethod(lambda p, q: (((p[0] * q[0], p[1] * q[1]), 1),))  # pairs merge per side
    sort_key = staticmethod(lambda p: p)  # by left, then right letters
    key_text = staticmethod(lambda p: f"{p[0]} (x) {p[1]}")

    @classmethod
    def pure(cls, left: Monomial, right: Monomial, c: Rational = 1) -> "TensorElement":
        return cls({(left, right): c})

    def swap(self) -> "TensorElement":
        return TensorElement({(r, l): c for (l, r), c in self.terms.items()})


def product(a: HopfElement, b: HopfElement) -> HopfElement:
    return a * b


def _coproduct_monomial(m: Monomial) -> TensorElement:
    # Primitive generators, Delta(y_k) = y_k (x) 1 + 1 (x) y_k, extended as an
    # algebra map: Delta(y^a) = sum_{b <= a} prod_k C(a_k, b_k) y^b (x) y^(a-b),
    # a_k the multiplicity of y_k.  The letters come out sorted, and distinct
    # b give distinct pairs.
    mult = m.multiplicities()
    ks, alpha = list(mult), list(mult.values())
    return TensorElement._exact({
        (
            tuple.__new__(Monomial, [k for k, b in zip(ks, beta) for _ in range(b)]),
            tuple.__new__(Monomial, [k for k, a, b in zip(ks, alpha, beta) for _ in range(a - b)]),
        ): math.prod(map(math.comb, alpha, beta))
        for beta in itertools.product(*(range(a + 1) for a in alpha))
    })


def coproduct(a: HopfElement) -> TensorElement:
    # sum_m c_m Delta(m): each pair (l, r) of Delta(m) has l r = m, so no two m share one
    return TensorElement._exact({
        pair: c * d for m, c in a.terms.items() for pair, d in _coproduct_monomial(m).terms.items()
    })


def counit(a: HopfElement) -> Rational:
    return a.terms.get(UNIT, 0)


def antipode(a: HopfElement) -> HopfElement:
    # Sign by degree: the anti-homomorphic extension of y_k -> -y_k
    # coincides with the homomorphic one since the algebra is commutative.
    return HopfElement({m: c * (-1) ** m.degree for m, c in a.terms.items()})


def poly_specialize(a: HopfElement) -> HopfElement:
    """Collapse every generator onto the single generator y_1.

    The image lives in the one-variable subalgebra (the single-generator
    polynomial Hopf algebra); degree is preserved, weight is forgotten.
    """
    out: dict[Monomial, Rational] = {}
    for m, c in a.terms.items():
        key = Monomial((1,) * m.degree)
        out[key] = out.get(key, 0) + c
    return HopfElement(out)


def code_diagram(sp) -> Monomial:
    """Code a set partition by its block-size multiset: a block of size k
    contributes one letter y_k."""
    return Monomial(tuple(len(block) for block in sp.blocks))


# --------------------------------------------------------------------------
# Axiom checks
# --------------------------------------------------------------------------


class CheckReport(NamedTuple):
    name: str
    ok: bool
    checked: int
    counterexample: str | None = None

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = "" if self.ok else f" counterexample: {self.counterexample}"
        return f"{self.name}: {status} ({self.checked} cases){extra}"


def _integer_partitions(n: int) -> Iterator[tuple[int, ...]]:
    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(n, n)


def basis_monomials(max_weight: int) -> list[Monomial]:
    """All monomials of weight <= max_weight (one per integer partition)."""
    if max_weight > WEIGHT_LIMIT:
        raise ResourceLimitError(f"basis of weight {max_weight} exceeds the limit {WEIGHT_LIMIT}")
    return [Monomial(parts) for w in range(max_weight + 1) for parts in _integer_partitions(w)]


def random_element(rng: random.Random, max_weight: int, nterms: int = 4) -> HopfElement:
    return _random_element(rng, basis_monomials(max_weight), nterms)


def _random_element(rng: random.Random, basis: list[Monomial], nterms: int = 4) -> HopfElement:
    # ints: the sampled identities are bilinear, so a counterexample scales to an integer one
    terms: dict[Monomial, int] = {}
    for _ in range(nterms):
        m = rng.choice(basis)
        terms[m] = terms.get(m, 0) + rng.randint(-9, 9)
    return HopfElement(terms)


class _Pair(NamedTuple):
    """A random pair of elements, printed as a counterexample."""

    a: HopfElement
    b: HopfElement

    def __str__(self) -> str:
        return f"A={self.a}, B={self.b}"


def _random_pairs(max_weight: int, seed: int) -> Iterator[_Pair]:
    rng, basis = random.Random(seed), basis_monomials(max_weight)
    return (_Pair(_random_element(rng, basis), _random_element(rng, basis)) for _ in range(SAMPLES))


def _first_failure(name: str, cases: Iterable[Any], holds: Callable[[Any], bool]) -> CheckReport:
    """Check holds(case) in order; report the first case that fails, if any."""
    checked = 0
    for case in cases:
        checked += 1
        if not holds(case):
            return CheckReport(name, False, checked, str(case))
    return CheckReport(name, True, checked)


def _triple_coproduct(t: TensorElement, left_first: bool) -> dict[tuple[Monomial, Monomial, Monomial], Rational]:
    out: dict[tuple[Monomial, Monomial, Monomial], Rational] = {}
    for (l, r), c in t.terms.items():
        inner = _coproduct_monomial(l if left_first else r)
        for (p, q), d in inner.terms.items():
            key = (p, q, r) if left_first else (l, p, q)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def check_coassociativity(max_weight: int) -> CheckReport:
    def holds(m: Monomial) -> bool:
        delta = _coproduct_monomial(m)
        return _triple_coproduct(delta, left_first=True) == _triple_coproduct(delta, left_first=False)

    return _first_failure("coassociativity", basis_monomials(max_weight), holds)


def check_counit(max_weight: int) -> CheckReport:
    """(epsilon (x) id)Delta = id = (id (x) epsilon)Delta, with
    epsilon(y^b) = [b = 1]: each side keeps the terms whose other factor is 1."""

    def holds(m: Monomial) -> bool:
        delta = _coproduct_monomial(m).terms
        left = {r: c for (l, r), c in delta.items() if l == UNIT}
        right = {l: c for (l, r), c in delta.items() if r == UNIT}
        return left == right == {m: 1}

    return _first_failure("counit", basis_monomials(max_weight), holds)


def check_antipode(
    max_weight: int,
    antipode_fn: Callable[[HopfElement], HopfElement] = antipode,
) -> CheckReport:
    """Convolution identity m(S (x) id)Delta = unit . counit = m(id (x) S)Delta.

    antipode_fn is injectable so a deliberately corrupted antipode can be
    shown to fail.
    """

    def holds(m: Monomial) -> bool:
        left = right = HopfElement()
        for (l, r), c in _coproduct_monomial(m).terms.items():
            left = left + antipode_fn(HopfElement.from_monomial(l, c)) * HopfElement.from_monomial(r)
            right = right + HopfElement.from_monomial(l, c) * antipode_fn(HopfElement.from_monomial(r))
        return left == right == HopfElement.unit(counit(HopfElement.from_monomial(m)))

    return _first_failure("antipode", basis_monomials(max_weight), holds)


def _on_basis_pairs(
    identity: Callable[[HopfElement, HopfElement], bool],
    verdict: Callable[[Monomial, Monomial], bool],
) -> Callable[[_Pair], bool]:
    """holds(p) for an identity bilinear in (A, B), decided from the monomial
    pairs of supp(A) x supp(B).

    verdict(m, n) decides the identity on one monomial pair, once per pair
    and returned predicate.  If the identity holds on every such pair, it
    holds on (A, B) by bilinearity.  If one pair fails, the terms of A and B
    can still cancel, so the identity is then evaluated on (A, B) itself.
    """
    verdicts: dict[tuple[Monomial, Monomial], bool] = {}

    def holds(p: _Pair) -> bool:
        for m in p.a.terms:
            for n in p.b.terms:
                ok = verdicts.get((m, n))
                if ok is None:
                    ok = verdicts[m, n] = verdict(m, n)
                if not ok:
                    return identity(p.a, p.b)
        return True

    return holds


def _pair_check(
    name: str,
    max_weight: int,
    seed: int,
    identity: Callable[[HopfElement, HopfElement], bool],
    verdict: Callable[[Monomial, Monomial], bool],
) -> CheckReport:
    """The report for an identity bilinear in (A, B) that verdict decides on
    one monomial pair: on basis x basis while that is no larger than what
    the samples can reach, else on SAMPLES random pairs drawn with seed.

    Every sampled pair's monomial pairs lie in basis x basis, SAMPLES times
    4 x 4 of them at most (the 4 terms of _random_element).  Up to weight 6
    basis x basis is no larger, so it is decided whole.  When the identity
    holds on all of it, every sample passes by bilinearity, and the report
    is the samples' pass without drawing them; that is a proof for all
    elements of weight <= max_weight.  A basis pair that fails is itself a
    counterexample of weight <= max_weight and is reported as one, with
    the basis pairs checked up to it.  Above weight 6 the samples are
    drawn and decided as _on_basis_pairs does.
    """
    basis = basis_monomials(max_weight)
    if len(basis) ** 2 > SAMPLES * 4 * 4:
        return _first_failure(name, _random_pairs(max_weight, seed), _on_basis_pairs(identity, verdict))
    for checked, (m, n) in enumerate(itertools.product(basis, repeat=2), 1):
        if not verdict(m, n):
            pair = _Pair(HopfElement.from_monomial(m), HopfElement.from_monomial(n))
            return CheckReport(name, False, checked, str(pair))
    return CheckReport(name, True, SAMPLES)


def _multiplicative(a: HopfElement, b: HopfElement) -> bool:
    ab = a * b
    return coproduct(ab) == coproduct(a) * coproduct(b) and counit(ab) == counit(a) * counit(b)


def check_bialgebra(max_weight: int) -> CheckReport:
    """Delta(AB) = Delta(A)Delta(B) and epsilon(AB) = epsilon(A)epsilon(B)
    for all A, B of weight <= max_weight: proved on basis x basis up to
    weight 6, above it checked on SAMPLES random element pairs."""
    deltas: dict[Monomial, TensorElement] = {}  # Delta(m), once per monomial and call

    def delta(m: Monomial) -> TensorElement:
        d = deltas.get(m)
        if d is None:
            d = deltas[m] = _coproduct_monomial(m)
        return d

    def verdict(m: Monomial, n: Monomial) -> bool:
        mn = m * n
        return delta(mn) == delta(m) * delta(n) and (mn == UNIT) == (m == n == UNIT)  # epsilon(m) = [m = 1]

    return _pair_check("bialgebra", max_weight, 2024, _multiplicative, verdict)


def check_cocommutativity(max_weight: int) -> CheckReport:
    def holds(m: Monomial) -> bool:
        delta = _coproduct_monomial(m)
        return delta.swap() == delta

    return _first_failure("cocommutativity", basis_monomials(max_weight), holds)


def check_commutativity(max_weight: int) -> CheckReport:
    return _pair_check("commutativity", max_weight, 2025, lambda a, b: a * b == b * a, lambda m, n: m * n == n * m)


def run_all_checks(
    max_weight: int,
    antipode_fn: Callable[[HopfElement], HopfElement] = antipode,
) -> list[CheckReport]:
    return [
        check_coassociativity(max_weight),
        check_counit(max_weight),
        check_antipode(max_weight, antipode_fn),
        check_bialgebra(max_weight),
        check_commutativity(max_weight),
        check_cocommutativity(max_weight),
    ]


# --------------------------------------------------------------------------
# Text form and JSON
# --------------------------------------------------------------------------


def format_element(a: HopfElement) -> str:
    """Canonical text form, e.g. '3/2*y1^2*y3 + y2'."""
    return str(a)


def parse_element(text: str) -> HopfElement:
    """Parse BELL text, e.g. the canonical form format_element prints."""
    return HopfElement.parse(text)


def element_to_json(a: HopfElement) -> str:
    return json.dumps(
        {"terms": [{"monomial": list(m.letters), "coeff": str(c)} for m, c in a.sorted_terms()]}
    )


def element_from_json(text: str) -> HopfElement:
    data = json.loads(text)
    return HopfElement(
        {Monomial(tuple(t["monomial"])): _json_coefficient(t["coeff"]) for t in data["terms"]}
    )


def _json_coefficient(value) -> Rational:
    """An integer string as an int, as the parser reads "3"; any other string
    as its Fraction; a JSON number by the constructor's rule."""
    if not isinstance(value, str):
        return value
    try:
        return int(value)
    except ValueError:
        return Fraction(value)


def tensor_to_json(t: TensorElement) -> str:
    return json.dumps(
        {
            "terms": [
                {"left": list(l.letters), "right": list(r.letters), "coeff": str(c)}
                for (l, r), c in t.sorted_terms()
            ]
        }
    )
