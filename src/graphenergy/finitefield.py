"""Prime-field arithmetic behind the Paley construction.

Primality is decided by a deterministic Miller-Rabin test on
[0, FIELD_MODULUS_CAP) = [0, 2**31) with the witnesses {2, 7, 61}, which
are exact below 4,759,123,141 = 48781 * 97561, the smallest strong
pseudoprime to all three (Jaeschke, Math. Comp. 61 (1993) 915-926). So
there are no probabilistic false positives anywhere in the domain, which
holds every Paley parameter.
"""

from __future__ import annotations

__all__ = ["is_prime"]

# Exact below 4,759,123,141 (Jaeschke 1993), so on all of is_prime's domain.
_MR_WITNESSES = (2, 7, 61)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Upper bound (exclusive) on every Paley parameter, on is_prime's exact
# domain and on paley_primes' window; Paley experiments stay far below it.
FIELD_MODULUS_CAP = 2**31


def is_prime(u: int) -> bool:
    """Exact primality test for integers in [0, 2**31)."""
    if u < 0 or u >= FIELD_MODULUS_CAP:
        raise ValueError(f"primality input must be in [0, 2**31), got {u}")
    if u < 2:
        return False
    for small in _SMALL_PRIMES:
        if u % small == 0:
            return u == small
    # u - 1 = d * 2**s with d odd
    d = u - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for witness in _MR_WITNESSES:
        a = witness % u
        if a == 0:
            continue
        x = pow(a, d, u)
        if x == 1 or x == u - 1:
            continue
        for _ in range(s - 1):
            x = x * x % u
            if x == u - 1:
                break
        else:
            return False
    return True


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

