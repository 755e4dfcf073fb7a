"""Prime-field arithmetic checked against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphenergy.finitefield import FIELD_MODULUS_CAP, PRIMES, is_prime, primes_between
from test_api import NON_NUMBER_ROWS, check_refusal


def trial_division(u: int) -> bool:
    if u < 2:
        return False
    f = 2
    while f * f <= u:
        if u % f == 0:
            return False
        f += 1
    return True


def numpy_trial_division(u: int) -> bool:
    """trial_division with numpy: u's remainders by every integer from 2 to
    isqrt(u) at once, fast enough for the whole domain."""
    return u >= 2 and bool((u % np.arange(2, math.isqrt(u) + 1)).all())


# ---------------------------------------------------------------------------
# is_prime


def test_is_prime_small_values_match_trial_division():
    for u in range(3000):
        assert is_prime(u) == trial_division(u), u


def test_prime_table_holds_every_prime_up_to_the_root_of_the_domain():
    assert math.isqrt(FIELD_MODULUS_CAP - 1) == 46340
    assert PRIMES.tolist() == [u for u in range(46341) if trial_division(u)]


def test_is_prime_accepts_every_table_prime_and_rejects_its_square():
    # p * p < 2**31 for every table prime: each square needs the whole
    # table up to p, the largest divisor trial division reaches for it.
    assert int(PRIMES[-1]) ** 2 < FIELD_MODULUS_CAP
    for p in PRIMES.tolist():
        assert is_prime(p), p
        assert not is_prime(p * p), p


def test_is_prime_examples():
    assert is_prime(13)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number 3 * 11 * 17


@pytest.mark.parametrize(
    "value, expected",
    [
        (1000000007, True),
        (46327 * 46337, False),  # two primes near sqrt(2**31)
        (2**31 - 1, True),  # M31, the largest input in the domain
    ],
)
def test_is_prime_large_values(value, expected):
    assert is_prime(value) == expected


def test_is_prime_agrees_with_trial_division_at_the_top_of_its_domain():
    for u in range(FIELD_MODULUS_CAP - 300, FIELD_MODULUS_CAP):
        assert is_prime(u) == numpy_trial_division(u), u


def test_is_prime_agrees_with_trial_division_at_its_stage_boundaries():
    # Below 2**10 a member test, from 2**10 a gcd with the primes below
    # 2**10, from 2**20 also a numpy remainder by the primes above them.
    # 1021 is the largest prime below 2**10, 1031 and 1033 the two smallest
    # above it; 2**20 = 1048576 falls between 1021**2 and 1021 * 1031.
    products = [1019 * 1021, 1021 * 1021, 1021 * 1031, 1031 * 1031, 1031 * 1033]
    for u in [*range(2**10 - 64, 2**10 + 65), *range(2**20 - 2000, 2**20 + 2001), *products]:
        assert is_prime(u) == trial_division(u), u


def test_is_prime_agrees_with_a_sieve_below_two_million():
    limit = 2 * 10**6
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for f in range(2, int(limit**0.5) + 1):
        if sieve[f]:
            sieve[f * f :: f] = False
    assert [u for u in range(limit) if is_prime(u)] == np.flatnonzero(sieve).tolist()


def strong_probable_prime(u: int, base: int) -> bool:
    d, s = u - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, u)
    if x in (1, u - 1):
        return True
    for _ in range(s - 1):
        x = x * x % u
        if x == u - 1:
            return True
    return False


# 25326001 is a strong pseudoprime to bases 2, 3 and 5
@pytest.mark.parametrize("value", [2047, 3277, 4033, 4681, 8321, 25326001])
def test_is_prime_rejects_strong_pseudoprimes_to_base_2(value):
    assert strong_probable_prime(value, 2)
    assert not is_prime(value)


def test_is_prime_reads_its_input_through_the_integer_rule():
    assert is_prime(7.0) and is_prime(np.float64(13.0)) and is_prime(np.int64(13))
    assert not is_prime(9.0)


@pytest.mark.parametrize("call, exc, message", NON_NUMBER_ROWS)
def test_the_integer_rule_refuses_a_non_number_with_a_value_error(call, exc, message):
    check_refusal(call, exc, message)


@given(st.integers(min_value=0, max_value=FIELD_MODULUS_CAP - 1))
def test_is_prime_agrees_with_trial_division(u):
    assert is_prime(u) == numpy_trial_division(u)


# ---------------------------------------------------------------------------
# the window sieve


def primes_by_trial_division(lo: int, hi: int) -> list[int]:
    return [u for u in range(lo, hi + 1) if trial_division(u)]


def test_primes_between_from_two():
    for hi in (2, 3, 4, 5, 24, 25, 26, 1000):
        assert primes_between(2, hi, PRIMES).tolist() == primes_by_trial_division(2, hi), hi


def test_primes_between_on_a_single_integer():
    for u in (2, 3, 4, 97, 91, 121, 46337, 46327 * 46337, FIELD_MODULUS_CAP - 1):
        assert primes_between(u, u, PRIMES).tolist() == ([u] if trial_division(u) else []), u


def test_primes_between_keeps_the_base_primes_inside_its_window():
    # A base prime p in the window is cleared from p * p on, never at p.
    for lo, hi in [(2, 400), (3, 400), (7, 49), (11, 130), (200, 1000), (46300, 46400)]:
        assert primes_between(lo, hi, PRIMES).tolist() == primes_by_trial_division(lo, hi), (lo, hi)


def test_primes_between_with_every_integer_as_base():
    # Composite base entries only clear numbers a smaller prime cleared.
    for lo, hi in [(2, 5000), (4000, 9000), (10**6, 10**6 + 2000), (2**31 - 2000, 2**31 - 1)]:
        base = np.arange(2, math.isqrt(hi) + 1)
        assert primes_between(lo, hi, base).tolist() == primes_by_trial_division(lo, hi), (lo, hi)


# ---------------------------------------------------------------------------
# quadratic residues


def test_euler_criterion_agrees_with_squaring_for_all_p_below_200():
    # Euler's criterion is the oracle for Paley adjacency in test_graphcore;
    # here it is checked against squaring every nonzero residue.
    for p in (q for q in range(3, 200) if is_prime(q)):
        squares = {x * x % p for x in range(1, p)}
        euler = {d for d in range(1, p) if pow(d, (p - 1) // 2, p) == 1}
        assert euler == squares, p
        assert len(squares) == (p - 1) // 2, p
