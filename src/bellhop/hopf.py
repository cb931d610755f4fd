"""The BELL Hopf algebra: the free commutative algebra on generators
y_1, y_2, ... with every generator primitive, together with machine
checks of the Hopf axioms, the single-variable specialization, and the
coding of set-partition diagrams by monomials.  Its basis monomials,
`Monomial`, live in `bellhop.combinatorics`, whose census they key.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Iterable, NamedTuple

from .combinatorics import Monomial, diagram_census
from .errors import size
from .lincomb import LinearCombination

Rational = Fraction | int

# p(0) + ... + p(12) = 272 basis monomials, 272 * 273 / 2 = 37,128 unordered
# basis pairs per pair check
WEIGHT_LIMIT = 12
# the cases a passing pair check reports, whatever it proved; the benchmark pins it
PAIR_CHECK_CASES = 100

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


# Delta(m) kept for every m of weight <= WEIGHT_LIMIT, at most the 272
# basis monomials (~0.7 MiB): the axiom checks, the pair check's packed
# table and coproduct() read each one from here, built once per process.
# A heavier m (a product in the pair check, or a term of a heavy element)
# is built per call, so the table stays bounded.  No reader mutates what it
# gets: coproduct() and swap() build new elements.  Two threads that miss
# together both build Delta(m) and store equal values, so no lock is needed
_COPRODUCTS: dict[Monomial, TensorElement] = {}


def _coproduct_monomial(m: Monomial) -> TensorElement:
    # Primitive generators, Delta(y_k) = y_k (x) 1 + 1 (x) y_k, extended as an
    # algebra map: Delta(y^a) = sum_{b <= a} prod_k C(a_k, b_k) y^b (x) y^(a-b),
    # a_k the multiplicity of y_k.  The letters come out sorted, and distinct
    # b give distinct pairs.
    delta = _COPRODUCTS.get(m)
    if delta is not None:
        return delta
    mult = m.multiplicities()
    ks, alpha = list(mult), list(mult.values())
    delta = TensorElement._exact({
        (
            tuple.__new__(Monomial, [k for k, b in zip(ks, beta) for _ in range(b)]),
            tuple.__new__(Monomial, [k for k, a, b in zip(ks, alpha, beta) for _ in range(a - b)]),
        ): math.prod(map(math.comb, alpha, beta))
        for beta in itertools.product(*(range(a + 1) for a in alpha))
    })
    if m.weight <= WEIGHT_LIMIT:
        _COPRODUCTS[m] = delta
    return delta


def coproduct(a: HopfElement) -> TensorElement:
    # sum_m c_m Delta(m): each pair (l, r) of Delta(m) has l r = m, so no two
    # m share one; the constructor makes a whole c_m d, from a Fraction c_m, an int
    return TensorElement({
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


@cache
def _basis_of_weight(w: int) -> tuple[Monomial, ...]:
    # the census's keys, one per integer partition of w, largest part first
    # in reverse lexicographic order; kept for the w <= WEIGHT_LIMIT asked for
    return tuple(sorted(diagram_census(w).counts, key=lambda m: m[::-1], reverse=True))


def basis_monomials(max_weight: int) -> tuple[Monomial, ...]:
    """All monomials of weight <= max_weight (one per integer partition), by weight."""
    max_weight = size(max_weight, "max_weight", WEIGHT_LIMIT, "basis of weight ")
    return tuple(m for w in range(max_weight + 1) for m in _basis_of_weight(w))


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


def _pair_check(name: str, basis: tuple[Monomial, ...], verdict: Callable[[int, int], bool]) -> CheckReport:
    """The report for an identity bilinear and symmetric in (A, B) that
    verdict(i, j) decides on the basis pair (basis[i], basis[j]).

    By bilinearity, the identity holds on basis x basis iff it holds for
    all elements the basis spans, so a pass is a proof.  By
    symmetry, row i decides only the columns j >= i: a pair with j < i
    was decided as its mirror in row j, so the first failure found is the
    first of the ordered scan, reported as A=m, B=n with its ordered
    index i |basis| + j + 1 as the cases checked.
    """
    count = len(basis)
    for i in range(count):
        for j in range(i, count):
            if not verdict(i, j):
                return CheckReport(name, False, i * count + j + 1, f"A={basis[i]}, B={basis[j]}")
    return CheckReport(name, True, PAIR_CHECK_CASES)


def check_bialgebra(max_weight: int) -> CheckReport:
    """Delta(AB) = Delta(A)Delta(B) and epsilon(AB) = epsilon(A)epsilon(B)
    for all A, B of weight <= max_weight, proved on basis x basis.

    Inside the check a monomial is one int with a slot per letter
    k = 1..2 max_weight holding its multiplicity, and a tensor key (l, r)
    is l in the low half, r in the high half.  Delta is graded, so a key
    of Delta(mn) has weight <= 2 max_weight: each of its letters has a
    slot and each multiplicity fits in (2 max_weight).bit_length() bits,
    as does the sum of two from Delta(m) and Delta(n).  A product of
    monomials or keys is then one int add, with no carry between slots.
    Each Delta(x) is packed once per x and call; _coproduct_monomial keeps
    Delta(x) across calls for x of weight <= WEIGHT_LIMIT.
    """
    basis = basis_monomials(max_weight)
    width, slots = (2 * max_weight).bit_length(), 2 * max_weight
    ones = [0] + [1 << k * width for k in range(slots)]  # ones[k]: one y_k
    half = slots * width

    def pack(m: Monomial) -> int:
        return sum(map(ones.__getitem__, m))

    def packed_delta(x: Monomial) -> dict[int, Rational]:
        return {pack(l) + (pack(r) << half): c for (l, r), c in _coproduct_monomial(x).terms.items()}

    keys = list(map(pack, basis))
    deltas = {key: packed_delta(m) for m, key in zip(basis, keys)}  # packed Delta(x) by packed x
    factors = [deltas[key].items() for key in keys]

    def verdict(i: int, j: int) -> bool:
        out: dict[int, Rational] = {}
        get = out.get
        for k1, c1 in factors[i]:
            for k2, c2 in factors[j]:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        key = keys[i] + keys[j]
        d = deltas.get(key)
        if d is None:
            d = deltas[key] = packed_delta(basis[i] * basis[j])
        # a term of Delta(m)Delta(n) that cancels is a 0 in out; epsilon(m) = [m = 1]
        return (out == d or {k: c for k, c in out.items() if c} == d) and (key == 0) == (keys[i] == keys[j] == 0)

    return _pair_check("bialgebra", basis, verdict)


def check_cocommutativity(max_weight: int) -> CheckReport:
    def holds(m: Monomial) -> bool:
        delta = _coproduct_monomial(m)
        return delta.swap() == delta

    return _first_failure("cocommutativity", basis_monomials(max_weight), holds)


def check_commutativity(max_weight: int) -> CheckReport:
    """AB = BA for all A, B of weight <= max_weight, proved on basis x basis."""
    basis = basis_monomials(max_weight)
    return _pair_check("commutativity", basis, lambda i, j: basis[i] * basis[j] == basis[j] * basis[i])


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
    import json  # only the JSON forms pay for it

    return json.dumps(
        {"terms": [{"monomial": list(m.letters), "coeff": str(c)} for m, c in a.sorted_terms()]}
    )


def element_from_json(text: str) -> HopfElement:
    import json

    data = json.loads(text)
    # the constructor reads each coefficient, text or number, by the coefficient rule
    return HopfElement({Monomial(tuple(t["monomial"])): t["coeff"] for t in data["terms"]})


def tensor_to_json(t: TensorElement) -> str:
    import json

    return json.dumps(
        {
            "terms": [
                {"left": list(l.letters), "right": list(r.letters), "coeff": str(c)}
                for (l, r), c in t.sorted_terms()
            ]
        }
    )
