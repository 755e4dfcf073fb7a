"""Prime-field arithmetic behind the Paley construction.

Every Paley parameter lies in [0, FIELD_MODULUS_CAP) = [0, 2**31). A
composite there has a prime factor <= isqrt(2**31 - 1) = 46340, so PRIMES,
the 4,791 primes up to 46340, sieved once at import, decides primality
exactly on that whole domain by trial division. The same table supplies
the base primes of graphcore.paley_primes' segmented sieve.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["is_prime"]

# Upper bound (exclusive) on every Paley parameter, on is_prime's exact
# domain and on paley_primes' window; Paley experiments stay far below it.
FIELD_MODULUS_CAP = 2**31


def _primes_upto(n: int) -> np.ndarray:
    """The primes <= n, ascending, by a plain sieve of Eratosthenes."""
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for f in range(2, math.isqrt(n) + 1):
        if is_p[f]:
            is_p[f * f :: f] = False
    return np.flatnonzero(is_p)


PRIMES = _primes_upto(math.isqrt(FIELD_MODULUS_CAP - 1))


def is_prime(u: int) -> bool:
    """Exact primality test for integers in [0, 2**31): trial division by
    the primes of PRIMES up to isqrt(u)."""
    if u < 0 or u >= FIELD_MODULUS_CAP:
        raise ValueError(f"primality input must be in [0, 2**31), got {u}")
    divisors = PRIMES[: PRIMES.searchsorted(math.isqrt(u), side="right")]
    return u >= 2 and np.count_nonzero(u % divisors) == divisors.size


def check_integer(x, what: str) -> int:
    """x as an int, if it is integral; otherwise (inf and NaN included) a
    ValueError naming `what`, never a truncated value."""
    try:
        value = int(x)
        if value == x:
            return value
    except (OverflowError, ValueError):
        pass
    raise ValueError(f"{what} must be an integer, got {x}")
