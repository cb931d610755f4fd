"""Seeded input generation shared by the workloads."""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import A, AD


def rational(rng: random.Random) -> Fraction:
    """A coefficient +-p/q with p in {5, 7, 11, 13} and q in {2, 3, 4, 6}:
    always in lowest terms and of one size, so that the seed changes values
    but not the cost of exact arithmetic on them."""
    return Fraction(rng.choice((1, -1)) * rng.choice((5, 7, 11, 13)), rng.choice((2, 3, 4, 6)))


def eighths(rng: random.Random, whole: int) -> Fraction:
    """A rational in (whole, whole + 1) with denominator 8."""
    return Fraction(8 * whole + rng.choice((1, 3, 5, 7)), 8)


def interleave(queues: list[list]) -> list:
    """One item from each queue in turn, so that no stretch of a round is
    all large or all small operations."""
    out = []
    while any(queues):
        for queue in queues:
            if queue:
                out.append(queue.pop(0))
    return out


def word_text(word: tuple[int, ...]) -> str:
    """A word in the bellhop text syntax: (AD, AD, A) -> 'ad^2 a'."""
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        name = "ad" if word[i] == AD else "a"
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return " ".join(parts)


def sum_text(terms: list[tuple[Fraction, tuple[int, ...]]]) -> str:
    """sum_i c_i w_i as text, e.g. '3/2 ad - 2/5 a + 1'."""
    out = []
    for i, (c, word) in enumerate(terms):
        mag = abs(c)
        body = word_text(word) if word else str(mag)
        if word and mag != 1:
            body = f"{mag} {body}"
        if i == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" {'-' if c < 0 else '+'} {body}")
    return "".join(out)


def power_text(terms, n: int) -> str:
    return f"({sum_text(terms)})^{n}"


def linear(c1: Fraction, c2: Fraction):
    """c1 ad + c2 a"""
    return [(c1, (AD,)), (c2, (A,))]


def cubic(c0: Fraction, c1: Fraction, c2: Fraction):
    """c0 + c1 ad a^2 + c2 ad"""
    return [(c0, ()), (c1, (AD, A, A)), (c2, (AD,))]


NUMBER = (AD, A)  # ad a
RAISING = (AD, AD, A)  # ad^2 a
