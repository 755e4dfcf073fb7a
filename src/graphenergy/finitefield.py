"""Prime-field arithmetic behind the Paley construction.

Primality is decided by a deterministic Miller-Rabin test with one of two
witness sets, each exact on its range (no probabilistic false positives
anywhere in the supported range):

- below 4,759,123,141 the bases {2, 7, 61} suffice (Jaeschke, Math. Comp.
  61 (1993) 915-926); 4,759,123,141 = 48781 * 97561 is the smallest strong
  pseudoprime to all three. This covers every Paley parameter, which stays
  below FIELD_MODULUS_CAP = 2**31;
- from there up to 2**63 - 1 the seven-witness set {2, 325, 9375, 28178,
  450775, 9780504, 1795265022} is used, which is exact below 2**64.
"""

from __future__ import annotations

__all__ = [
    "FIELD_MODULUS_CAP",
    "check_integer",
    "is_prime",
]

# (2, 7, 61) is exact below the limit (Jaeschke 1993); the seven witnesses
# are exact below 2**64.
_MR_WITNESSES_32 = (2, 7, 61)
_MR_WITNESSES_32_LIMIT = 4_759_123_141
_MR_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
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
    witnesses = _MR_WITNESSES_32 if u < _MR_WITNESSES_32_LIMIT else _MR_WITNESSES_64
    for witness in witnesses:
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

