"""Prime-field arithmetic behind the Paley construction.

Primality is decided by a deterministic Miller-Rabin test using the
seven-witness set {2, 325, 9375, 28178, 450775, 9780504, 1795265022},
which gives exact answers for every input below 2**64 (no probabilistic
false positives anywhere in the supported range).
"""

from __future__ import annotations

__all__ = [
    "FIELD_MODULUS_CAP",
    "check_integer",
    "is_prime",
]

# Witnesses proven sufficient for all n < 2**64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_TESTABLE = 2**63 - 1

# Below this bound the square of a residue is below 2**62, so paley() can
# square residues exactly in int64; Paley experiments stay far below it.
FIELD_MODULUS_CAP = 2**31


def is_prime(u: int) -> bool:
    """Exact primality test for integers in [0, 2**63 - 1]."""
    if u < 0 or u > _MAX_TESTABLE:
        raise ValueError(f"primality input must be in [0, 2**63 - 1], got {u}")
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

