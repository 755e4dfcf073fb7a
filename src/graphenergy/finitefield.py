"""Primes and the integer rule behind the Paley construction.

Every Paley parameter lies in [0, FIELD_MODULUS_CAP) = [0, 2**31).
primes_between is the package's one sieve of Eratosthenes: it sieves just
the window it is given. It builds PRIMES, the 4,792 primes up to
isqrt(2**31 - 1) = 46340, once at import. A composite below 2**31 has a
prime factor in PRIMES, so is_prime decides primality exactly by trial
division by PRIMES up to isqrt(u): the 172 primes below 2**10 in one integer
gcd with their product, the rest, which only u >= 2**20 needs, by a numpy
remainder. Every segment of graphcore.paley_primes is sieved with PRIMES as
its base. check_integer is the integer rule every public function reads
its integer arguments through.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["is_prime"]

# Upper bound (exclusive) on every Paley parameter, on is_prime's exact
# domain and on paley_primes' window; Paley experiments stay far below it.
FIELD_MODULUS_CAP = 2**31


def primes_between(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The primes in [lo, hi], lo >= 2, ascending, by a sieve of Eratosthenes
    over the window alone: one flag per integer, cleared at the multiples of
    each base entry up to isqrt(hi). base is ascending and holds every prime
    up to isqrt(hi); a composite entry only clears numbers already cleared."""
    flags = np.ones(hi - lo + 1, dtype=bool)  # flag i stands for lo + i
    for p in base[: base.searchsorted(math.isqrt(hi), side="right")].tolist():
        flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return lo + np.flatnonzero(flags)


_ROOT = math.isqrt(FIELD_MODULUS_CAP - 1)  # 46340
PRIMES = primes_between(2, _ROOT, np.arange(2, math.isqrt(_ROOT) + 1))


# The 172 primes below 2**10 and their product, a constant of about 1,420
# bits: one gcd with it divides u by every one of them. A composite below
# 2**20 has a prime factor below 2**10, so there the gcd alone decides.
_SMALL_PRIMES = frozenset(PRIMES[: PRIMES.searchsorted(2**10)].tolist())
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


def is_prime(u: int) -> bool:
    """Exact primality test for integers in [0, 2**31), by trial division by
    the primes of PRIMES up to isqrt(u): below 2**10 a member test against
    the primes below 2**10; from 2**10 one gcd with their product; from 2**20
    also a numpy remainder by the primes from 2**10 up to isqrt(u)."""
    u = check_integer(u, "primality input")
    if u < 0 or u >= FIELD_MODULUS_CAP:
        raise ValueError(f"primality input must be in [0, 2**31), got {u}")
    if u < 2**10:
        return u in _SMALL_PRIMES
    if math.gcd(u, _SMALL_PRIMORIAL) != 1:
        return False
    if u < 2**20:
        return True
    divisors = PRIMES[len(_SMALL_PRIMES) : PRIMES.searchsorted(math.isqrt(u), side="right")]
    return np.count_nonzero(u % divisors) == divisors.size


def check_integer(x, what: str) -> int:
    """x as an int, if it is integral; otherwise (inf and NaN included) a
    ValueError naming `what`, never a truncated value. A NumPy complex is
    refused before int() drops its imaginary part, as a Python complex is
    by int() itself."""
    if type(x) is int:
        return x
    if not isinstance(x, np.complexfloating):
        try:
            value = int(x)
            if value == x:
                return value
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be an integer, got {x}")
