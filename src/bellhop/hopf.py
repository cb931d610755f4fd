"""The BELL Hopf algebra: the free commutative algebra on generators
y_1, y_2, ... with every generator primitive, together with machine
checks of the Hopf axioms, the single-variable specialization, and the
coding of set-partition diagrams by monomials.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .lincomb import LinearCombination

Rational = Fraction | int


@dataclass(frozen=True, order=True)
class Monomial:
    """A commutative word in the alphabet {y_1, y_2, ...}.

    Letters are stored as a sorted tuple of positive indices; the empty
    tuple is the algebra unit.  weight = sum of indices, degree = number
    of letters.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if any(k < 1 for k in self.letters):
            raise ValueError("letter indices must be positive")
        object.__setattr__(self, "letters", tuple(sorted(self.letters)))

    @property
    def weight(self) -> int:
        return sum(self.letters)

    @property
    def degree(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.letters + other.letters)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for k in self.letters:
            out[k] = out.get(k, 0) + 1
        return out

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for k, m in sorted(self.multiplicities().items()):
            parts.append(f"y{k}" if m == 1 else f"y{k}^{m}")
        return "*".join(parts)


UNIT = Monomial()


class HopfElement(LinearCombination):
    """Finite rational linear combination of monomials."""

    __slots__ = ()
    unit_key = UNIT
    separator = "*"
    key_product = staticmethod(lambda m, n: ((m * n, 1),))  # monomials merge
    sort_key = staticmethod(lambda m: (m.weight, m.degree, m.letters))
    key_text = staticmethod(str)

    @classmethod
    def unit(cls, c: Rational = 1) -> "HopfElement":
        return cls({UNIT: c})

    @classmethod
    def symbol(cls, name: str):
        # y<k>, k >= 1
        index = name[1:]
        if name[0] == "y" and index.isdecimal() and int(index) >= 1:
            return cls.generator(int(index))

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
    sort_key = staticmethod(lambda p: (p[0].letters, p[1].letters))
    key_text = staticmethod(lambda p: f"{p[0]} (x) {p[1]}")

    @classmethod
    def pure(cls, left: Monomial, right: Monomial, c: Rational = 1) -> "TensorElement":
        return cls({(left, right): c})

    def swap(self) -> "TensorElement":
        return TensorElement({(r, l): c for (l, r), c in self.terms.items()})


def product(a: HopfElement, b: HopfElement) -> HopfElement:
    return a * b


def _coproduct_monomial(m: Monomial) -> TensorElement:
    # Primitive generators: Delta(y_k) = y_k (x) 1 + 1 (x) y_k, extended as
    # an algebra homomorphism.  For y_k^mult this is a binomial expansion.
    out = TensorElement.pure(UNIT, UNIT)
    for k, mult in m.multiplicities().items():
        factor = TensorElement(
            {
                (Monomial((k,) * j), Monomial((k,) * (mult - j))): math.comb(mult, j)
                for j in range(mult + 1)
            }
        )
        out = out * factor
    return out


def coproduct(a: HopfElement) -> TensorElement:
    out = TensorElement()
    for m, c in a.terms.items():
        out = out + _coproduct_monomial(m) * c
    return out


def counit(a: HopfElement) -> Fraction:
    return a.terms.get(UNIT, Fraction(0))


def antipode(a: HopfElement) -> HopfElement:
    # Sign by degree: the anti-homomorphic extension of y_k -> -y_k
    # coincides with the homomorphic one since the algebra is commutative.
    return HopfElement({m: c * (-1) ** m.degree for m, c in a.terms.items()})


def poly_specialize(a: HopfElement) -> HopfElement:
    """Collapse every generator onto the single generator y_1.

    The image lives in the one-variable subalgebra (the single-generator
    polynomial Hopf algebra); degree is preserved, weight is forgotten.
    """
    out: dict[Monomial, Fraction] = {}
    for m, c in a.terms.items():
        key = Monomial((1,) * m.degree)
        out[key] = out.get(key, Fraction(0)) + c
    return HopfElement(out)


def code_diagram(sp) -> Monomial:
    """Code a set partition by its block-size multiset: a block of size k
    contributes one letter y_k."""
    return Monomial(tuple(len(block) for block in sp.blocks))


# --------------------------------------------------------------------------
# Axiom checks
# --------------------------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    ok: bool
    checked: int
    counterexample: str | None = None

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = "" if self.ok else f" counterexample: {self.counterexample}"
        return f"{self.name}: {status} ({self.checked} cases){extra}"


def _integer_partitions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return

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
    out = []
    for w in range(max_weight + 1):
        for parts in _integer_partitions(w):
            out.append(Monomial(parts))
    return out


def random_element(rng: random.Random, max_weight: int, nterms: int = 4) -> HopfElement:
    basis = basis_monomials(max_weight)
    terms: dict[Monomial, Fraction] = {}
    for _ in range(nterms):
        m = rng.choice(basis)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[m] = terms.get(m, Fraction(0)) + c
    return HopfElement(terms)


def _triple_coproduct(t: TensorElement, left_first: bool) -> dict[tuple[Monomial, Monomial, Monomial], Fraction]:
    out: dict[tuple[Monomial, Monomial, Monomial], Fraction] = {}
    for (l, r), c in t.terms.items():
        inner = _coproduct_monomial(l if left_first else r)
        for (p, q), d in inner.terms.items():
            key = (p, q, r) if left_first else (l, p, q)
            out[key] = out.get(key, Fraction(0)) + c * d
    return {key: c for key, c in out.items() if c}


def check_coassociativity(max_weight: int) -> CheckReport:
    checked = 0
    for m in basis_monomials(max_weight):
        delta = _coproduct_monomial(m)
        lhs = _triple_coproduct(delta, left_first=True)
        rhs = _triple_coproduct(delta, left_first=False)
        checked += 1
        if lhs != rhs:
            return CheckReport("coassociativity", False, checked, str(m))
    return CheckReport("coassociativity", True, checked)


def check_counit(max_weight: int) -> CheckReport:
    checked = 0
    for m in basis_monomials(max_weight):
        delta = _coproduct_monomial(m)
        left = HopfElement()
        right = HopfElement()
        for (l, r), c in delta.terms.items():
            left = left + HopfElement.from_monomial(r, c * counit(HopfElement.from_monomial(l)))
            right = right + HopfElement.from_monomial(l, c * counit(HopfElement.from_monomial(r)))
        checked += 1
        if left != HopfElement.from_monomial(m) or right != HopfElement.from_monomial(m):
            return CheckReport("counit", False, checked, str(m))
    return CheckReport("counit", True, checked)


def check_antipode(
    max_weight: int,
    antipode_fn: Callable[[HopfElement], HopfElement] = antipode,
) -> CheckReport:
    """Convolution identity m(S (x) id)Delta = unit . counit = m(id (x) S)Delta.

    antipode_fn is injectable so a deliberately corrupted antipode can be
    shown to fail.
    """
    checked = 0
    for m in basis_monomials(max_weight):
        delta = _coproduct_monomial(m)
        left = HopfElement()
        right = HopfElement()
        for (l, r), c in delta.terms.items():
            left = left + antipode_fn(HopfElement.from_monomial(l, c)) * HopfElement.from_monomial(r)
            right = right + HopfElement.from_monomial(l, c) * antipode_fn(HopfElement.from_monomial(r))
        expected = HopfElement.unit(counit(HopfElement.from_monomial(m)))
        checked += 1
        if left != expected or right != expected:
            return CheckReport("antipode", False, checked, str(m))
    return CheckReport("antipode", True, checked)


def check_bialgebra(max_weight: int, samples: int = 100, seed: int = 2024) -> CheckReport:
    """Delta(AB) = Delta(A)Delta(B) and epsilon(AB) = epsilon(A)epsilon(B)
    on random element pairs."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        a = random_element(rng, max_weight)
        b = random_element(rng, max_weight)
        checked += 1
        if coproduct(a * b) != coproduct(a) * coproduct(b):
            return CheckReport("bialgebra", False, checked, f"A={a}, B={b}")
        if counit(a * b) != counit(a) * counit(b):
            return CheckReport("bialgebra", False, checked, f"A={a}, B={b}")
    return CheckReport("bialgebra", True, checked)


def check_cocommutativity(max_weight: int) -> CheckReport:
    checked = 0
    for m in basis_monomials(max_weight):
        delta = _coproduct_monomial(m)
        checked += 1
        if delta.swap() != delta:
            return CheckReport("cocommutativity", False, checked, str(m))
    return CheckReport("cocommutativity", True, checked)


def check_commutativity(max_weight: int, samples: int = 100, seed: int = 2025) -> CheckReport:
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        a = random_element(rng, max_weight)
        b = random_element(rng, max_weight)
        checked += 1
        if a * b != b * a:
            return CheckReport("commutativity", False, checked, f"A={a}, B={b}")
    return CheckReport("commutativity", True, checked)


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
        {Monomial(tuple(t["monomial"])): Fraction(t["coeff"]) for t in data["terms"]}
    )


def tensor_to_json(t: TensorElement) -> str:
    return json.dumps(
        {
            "terms": [
                {"left": list(l.letters), "right": list(r.letters), "coeff": str(c)}
                for (l, r), c in t.sorted_terms()
            ]
        }
    )
