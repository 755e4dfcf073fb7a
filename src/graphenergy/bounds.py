"""Energy bounds and ratio machinery.

The regular-graph Koolen-Moulton bound e0, the edge-deletion inequality
check, closed-form family energies with their proof-chain inequalities,
ratio sweep tables, and the randomized/corpus verification suites.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

import numpy as np

from . import spectral
from . import tolerances as tol
from .finitefield import check_integer
from .graphcore import (
    FAMILIES,
    Graph,
    check_dense_size,
    check_paley_parameter,
    check_ring_parameter,
    delete_edge,
    family_corpus,
    splitmix64,
)

__all__ = [
    "EdgeDeletionCheck",
    "EnergyReport",
    "RatioRow",
    "bounds_suite",
    "e0",
    "edge_deletion_check",
    "energy_report",
    "lemma_suite",
    "paley_energy_closed",
    "paley_ratio_closed",
    "paley_ratio_lower",
    "ratio_table",
    "ring_clique_energy_closed",
    "ring_clique_energy_upper",
    "ring_clique_ratio_upper",
]


def e0(n: int, k: int) -> float:
    """Koolen-Moulton bound k + sqrt(k(n-1)(n-k)) for k-regular graphs; n, k integers."""
    n, k = check_integer(n, "vertex count"), check_integer(k, "regular degree")
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if k < 0 or k > n - 1:
        raise ValueError(f"regular degree must be in 0..{n - 1} for n={n}, got {k}")
    return _e0(n, k)


def _e0(n: int, k: int) -> float:
    # Python ints: the product is exact, and rounded once by the sqrt
    return k + math.sqrt(k * (n - 1) * (n - k))


class EnergyReport(NamedTuple):
    """Energy summary for one graph; e0 and ratio are set for regular k >= 1."""

    energy: float
    spectral_radius: float
    k: int | None = None
    e0: float | None = None
    ratio: float | None = None


def energy_report(g: Graph) -> EnergyReport:
    """Energy and spectral radius of g from one eigensolve, with k, e0 and
    the ratio where they are defined: k is None for a non-regular graph,
    and e0 and ratio are None unless k >= 1 (e0 = 0 for k = 0)."""
    vals = spectral.eigenvalues(g)
    en = spectral.spectrum_energy(vals)
    k = g.regularity()
    bound = e0(g.n, k) if k else None
    ratio = en / bound if k else None
    return EnergyReport(energy=en, spectral_radius=float(vals[0]), k=k, e0=bound, ratio=ratio)


class EdgeDeletionCheck(NamedTuple):
    """One instance of the edge-deletion lemma: lhs = E(G), rhs = E(G - e) + 2,
    and holds when both E(G) <= E(G - e) + 2 and l1(G - e) <= l1(G) do."""

    lhs: float
    rhs: float
    holds: bool


def edge_deletion_check(whole, reduced) -> EdgeDeletionCheck:
    """Evaluate E(G) <= E(G - e) + 2 and the spectral-radius interlacing
    l1(G - e) <= l1(G) from the descending spectra of G and of G - e."""
    lhs = spectral.spectrum_energy(whole)
    rhs = spectral.spectrum_energy(reduced) + 2.0
    holds = lhs <= rhs + tol.BOUND_SLACK and reduced[0] <= whole[0] + tol.BOUND_SLACK
    return EdgeDeletionCheck(lhs=lhs, rhs=rhs, holds=bool(holds))


# ---------------------------------------------------------------------------
# closed forms and proof-chain values


def paley_energy_closed(p) -> float:
    """Exact Paley energy (p-1)(1 + sqrt(p))/2, from the closed-form spectrum."""
    value = check_paley_parameter(p)
    result = (value - 1) * (1.0 + math.sqrt(value)) / 2.0
    if not result > value**1.5 / 2.0:
        raise ArithmeticError("closed-form energy fell below p^(3/2)/2")
    return result


def paley_ratio_lower(p) -> float:
    """Crude lower bound sqrt(p)/(sqrt(p) + 2) on the Paley energy ratio."""
    return _paley_ratios(check_paley_parameter(p), math.sqrt)[1]


def paley_ratio_closed(p) -> float:
    """Exact Paley energy ratio (1 + sqrt(p)) / (1 + sqrt(p + 1)).

    For a Paley graph, e0 simplifies to (p-1)(1 + sqrt(p+1))/2, so the ratio
    collapses to this two-radical form; it lies strictly between the crude
    chain bound and 1.
    """
    return _paley_ratios(check_paley_parameter(p), math.sqrt)[0]


def _paley_ratios(p, sqrt):
    # a checked p: an int with math.sqrt, or an int64 column with np.sqrt, the same IEEE operations
    root = sqrt(p)
    closed_ratio = (1.0 + root) / (1.0 + sqrt(p + 1))
    paper_bound = root / (root + 2.0)
    inside = (paper_bound < closed_ratio) & (closed_ratio < 1.0)
    if not (inside if isinstance(inside, bool) else inside.all()):
        raise ArithmeticError("ratio left its proven bracket")
    return closed_ratio, paper_bound


def ring_clique_energy_closed(q: int) -> float:
    """Ring-of-cliques energy summed from the closed-form product spectrum."""
    return spectral.spectrum_energy(spectral.ring_clique_spectrum_closed(q))


def ring_clique_energy_upper(q: int) -> float:
    """Edge-deletion upper bound 4q^2 - 2q on the ring-of-cliques energy."""
    q = check_ring_parameter(q)
    return float(4 * q * q - 2 * q)


def ring_clique_ratio_upper(q: int) -> float:
    """The paper's upper bound (4q^2 - 2q) / ((q^2 - q - 1) sqrt(q + 1)) on
    energy/e0 for the ring of cliques.

    It divides the energy bound 4q^2 - 2q by the lower estimate
    e0(q^2, q + 1) >= (q^2 - q - 1) sqrt(q + 1), a step of the proof chain
    that is checked here. The bound exceeds 1 for small q and decays toward
    0 only asymptotically.
    """
    upper = ring_clique_energy_upper(q)  # checks q
    q = int(q)
    estimate = (q * q - q - 1) * math.sqrt(q + 1.0)
    if not _e0(q * q, q + 1) >= estimate:
        raise ArithmeticError("e0 fell below its lower estimate")
    return upper / estimate


# ---------------------------------------------------------------------------
# ratio sweeps


class RatioRow(NamedTuple):
    """One row of a family ratio sweep; the fields are the CSV columns, in order."""

    family: str
    param: int
    n: int
    k: int
    m: int
    energy: float
    e0: float
    ratio: float
    closed_ratio: float
    paper_bound: float


_BLOCK = 1024  # rows of a closed table computed at a time


def _named(family: str, fn, params) -> Iterator:
    """fn(param) for each of params, in order, a ValueError of fn raised again naming its param."""
    for param in params:
        try:
            value = fn(param)
        except ValueError as exc:
            raise ValueError(f"invalid {family} parameter {param}: {exc}") from None
        yield value


def _paley_rows(block: list, energy: list) -> list[RatioRow]:
    # each energy call checked its p once: int() after it is exact
    p = np.array([int(x) for x in block], dtype=np.int64)
    k = (p - 1) // 2
    bound = np.array(list(map(_e0, p.tolist(), k.tolist())))
    energy = np.array(energy)
    closed_ratio, paper_bound = _paley_ratios(p, np.sqrt)
    columns = (p, p, k, p * k // 2, energy, bound, energy / bound, closed_ratio, paper_bound)
    return list(map(RatioRow._make, zip(itertools.repeat("paley"), *(c.tolist() for c in columns))))


def _ring_row(q, energy: float) -> RatioRow:
    q = int(q)
    n, k = q * q, q + 1
    bound = _e0(n, k)
    ratio, upper = energy / bound, ring_clique_ratio_upper(q)
    return RatioRow("ring_of_cliques", q, n, k, n * k // 2, energy, bound, ratio, ratio, upper)


# family -> the closed rows of a block of checked parameters and their energies
_ROWS = {"paley": _paley_rows, "ring_of_cliques": lambda qs, en: list(map(_ring_row, qs, en))}


def ratio_table(family: str, params, use_closed_form: bool = False) -> Iterator[RatioRow]:
    """An iterator of one RatioRow per parameter, in input order.

    family is "paley" or "ring_of_cliques", a key of _ROWS, which holds its
    closed-form rows, and of graphcore.FAMILIES; it is checked at once, the
    params only as rows are asked for. Every row is first computed in closed
    form, which checks its parameter. Closed mode computes _BLOCK rows at a
    time and yields them, so its memory does not grow with the table; a
    closed ring table checks every q against the closed spectrum's cap first.
    Without use_closed_form each row's graph is also checked against
    tolerances.MAX_DENSE_N as the row is computed, and once every row is in,
    each graph is built and solved for the row's energy, its ratio being that
    energy over the row's e0, before the first row is yielded. The first
    invalid parameter, in input order, raises an error naming it, in closed
    mode after the rows of the blocks before its own; a ValueError of the
    params iterable itself passes through unchanged.
    """
    if family not in _ROWS:
        raise ValueError(f"family must be one of {list(_ROWS)}, got {family!r}")
    return _table(family, iter(params), use_closed_form)


def _table(family: str, params: Iterator, use_closed_form: bool) -> Iterator[RatioRow]:
    # the closed energy checks a parameter
    closed_energy = paley_energy_closed if family == "paley" else ring_clique_energy_closed
    if use_closed_form and family == "ring_of_cliques":
        # a row sums q^2 closed values: check every q, reading params once
        params = iter(list(_named(family, spectral.check_closed_ring_size, params)))
    if use_closed_form:
        while block := list(itertools.islice(params, _BLOCK)):
            yield from _ROWS[family](block, list(_named(family, closed_energy, block)))
        return

    def numeric_row(param):
        (row,) = _ROWS[family]([param], [closed_energy(param)])
        check_dense_size(row.n)
        return row
    rows = list(_named(family, numeric_row, params))
    for i, row in enumerate(rows):
        energy = spectral.energy(FAMILIES[family](row.param))
        rows[i] = row._replace(energy=energy, ratio=energy / row.e0)
    yield from rows


# ---------------------------------------------------------------------------
# verification suites


def lemma_suite(trials: int, seed: int) -> spectral.SuiteResult:
    """Edge-deletion inequality on seeded random graphs (2 <= n <= 12, m >= 1).

    Each trial draws a graph from spectral.random_graphs and then an edge e
    from the same stream, and checks both E(G) <= E(G - e) + 2 and
    l1(G - e) <= l1(G) with edge_deletion_check. Every G and G - e has n <= 12,
    so each spectral.trial_chunks chunk is one stack on a fresh dict.
    """
    trials = check_integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    result = spectral.SuiteResult("lemma")
    stream = splitmix64(seed)
    randoms = spectral.random_graphs(trials, stream, 2, 1)
    draws = ((label, g, g.edges()[next(stream) % g.m]) for label, g in randoms)
    for chunk in spectral.trial_chunks(draws):
        graphs = [h for _, g, e in chunk for h in (g, delete_edge(g, e))]
        vals = spectral.shared_spectrum({}, graphs)
        for (label, _, e), whole, reduced in zip(chunk, vals[::2], vals[1::2]):
            check = edge_deletion_check(whole, reduced)
            # one check per trial so far: result.total is this trial's number
            case = f"trial {result.total}: {label}, edge={e}, lhs={check.lhs!r}, rhs={check.rhs!r}"
            result.check(check.holds, case)
    return result


def bounds_suite(spectra: dict) -> spectral.SuiteResult:
    """energy <= e0 over the regular corpus, with equality exactly for K_n:
    Paley graphs with p <= 200, rings of cliques with q <= 12, K_1..K_50
    and C_3..C_50, 129 graphs in all, solved in one shared_spectrum call on `spectra`."""
    result = spectral.SuiteResult("bounds")
    cases = list(family_corpus(200, 12, range(1, 51), range(3, 51)))
    spectra_of = spectral.shared_spectrum(spectra, [g for *_, g in cases])
    for (family, param, g), vals in zip(cases, spectra_of):
        k = g.regularity()
        en = spectral.spectrum_energy(vals)
        bound = e0(g.n, k)
        within = en <= bound + tol.BOUND_SLACK
        equality = abs(en - bound) <= tol.BOUND_SLACK
        result.check(
            within and equality == (k == g.n - 1),
            f"{family}({param}): energy={en!r}, e0={bound!r}, k={k}, n={g.n}",
        )
    return result
