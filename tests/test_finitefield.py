"""Prime-field arithmetic checked against brute-force oracles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphenergy.finitefield import (
    FIELD_MODULUS_CAP,
    check_prime_modulus,
    is_prime,
    residue_set,
)


def trial_division(u: int) -> bool:
    if u < 2:
        return False
    f = 2
    while f * f <= u:
        if u % f == 0:
            return False
        f += 1
    return True


def odd_primes_below(limit: int) -> list[int]:
    return [p for p in range(3, limit) if trial_division(p)]


def brute_force_squares(p: int) -> set[int]:
    return {x * x % p for x in range(1, p)}


# ---------------------------------------------------------------------------
# is_prime


def test_is_prime_small_values_match_trial_division():
    for u in range(3000):
        assert is_prime(u) == trial_division(u), u


def test_is_prime_examples():
    assert is_prime(13)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number 3 * 11 * 17


@pytest.mark.parametrize(
    "value, expected",
    [
        (2305843009213693951, True),  # 2**61 - 1
        (9223372036854775783, True),  # largest prime below 2**63
        (9223372036854775807, False),  # 2**63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657
        (3825123056546413051, False),  # strong pseudoprime to bases 2..23
        (1000000007, True),
        (1000000007 * 1000000009, False),
    ],
)
def test_is_prime_large_values(value, expected):
    assert is_prime(value) == expected


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(2**63)


@given(st.integers(min_value=0, max_value=200_000))
def test_is_prime_agrees_with_trial_division(u):
    assert is_prime(u) == trial_division(u)


# ---------------------------------------------------------------------------
# prime-modulus check


def test_prime_modulus_accepts_primes():
    assert check_prime_modulus(2) == 2
    assert check_prime_modulus(13) == 13
    assert check_prime_modulus(2**31 - 1) == 2**31 - 1


def test_prime_modulus_rejections():
    with pytest.raises(ValueError, match="modulus must be prime"):
        check_prime_modulus(12)
    with pytest.raises(ValueError, match="prime"):
        check_prime_modulus(1)
    with pytest.raises(ValueError, match="prime"):
        check_prime_modulus(-7)
    # The range is checked before primality: composite, prime, and prime
    # beyond what Miller-Rabin accepts are all reported as too large.
    for value in (FIELD_MODULUS_CAP, FIELD_MODULUS_CAP + 11, 2**61 - 1, 2**89 - 1):
        with pytest.raises(ValueError, match="below 2\\*\\*31"):
            check_prime_modulus(value)


# ---------------------------------------------------------------------------
# quadratic residues


def test_residue_set_examples():
    assert residue_set(13) == frozenset({1, 3, 4, 9, 10, 12})
    assert residue_set(5) == frozenset({1, 4})
    assert residue_set(3) == frozenset({1})


def test_euler_criterion_agrees_with_squaring_for_all_p_below_200():
    for p in odd_primes_below(200):
        assert residue_set(p) == frozenset(brute_force_squares(p))


def test_residue_set_cardinality():
    for p in odd_primes_below(200):
        assert len(residue_set(p)) == (p - 1) // 2


def test_negation_symmetry_for_p_congruent_1_mod_4():
    for p in (q for q in odd_primes_below(200) if q % 4 == 1):
        rs = residue_set(p)
        assert all((p - a) in rs for a in rs)

