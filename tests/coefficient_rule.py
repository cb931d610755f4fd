"""The rule every exact coefficient in bellhop keeps: an int exactly when
its value is whole, and a Fraction otherwise."""

from fractions import Fraction


def follows_the_rule(c) -> bool:
    return type(c) in (int, Fraction) and (type(c) is int) == (c.denominator == 1)


def assert_canonical(values) -> None:
    """Every value is an int exactly when its denominator is 1."""
    values = list(values)
    assert all(map(follows_the_rule, values)), [(type(c), c) for c in values if not follows_the_rule(c)]
