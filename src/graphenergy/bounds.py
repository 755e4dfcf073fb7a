"""Energy bounds and ratio machinery.

The regular-graph Koolen-Moulton bound e0, the edge-deletion inequality
check, closed-form family energies with their proof-chain inequalities,
ratio sweep tables, and the randomized/corpus verification suites.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    return _paley_row(p).paper_bound


def paley_ratio_closed(p) -> float:
    """Exact Paley energy ratio (1 + sqrt(p)) / (1 + sqrt(p + 1)).

    For a Paley graph, e0 simplifies to (p-1)(1 + sqrt(p+1))/2, so the ratio
    collapses to this two-radical form; it lies strictly between the crude
    chain bound and 1.
    """
    return _paley_row(p).closed_ratio


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
    if not e0(q * q, q + 1) >= estimate:
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


# Each closed-form energy call below checks its parameter: int() after it is exact.
def _paley_row(p) -> RatioRow:
    energy = paley_energy_closed(p)
    p = int(p)
    k = (p - 1) // 2
    bound = e0(p, k)
    root = math.sqrt(p)
    closed_ratio = (1.0 + root) / (1.0 + math.sqrt(p + 1))
    paper_bound = root / (root + 2.0)
    if not paper_bound < closed_ratio < 1.0:
        raise ArithmeticError("ratio left its proven bracket")
    ratio = energy / bound
    return RatioRow("paley", p, p, k, p * k // 2, energy, bound, ratio, closed_ratio, paper_bound)


def _ring_row(q) -> RatioRow:
    energy = ring_clique_energy_closed(q)
    q = int(q)
    n, k = q * q, q + 1
    bound = e0(n, k)
    ratio, upper = energy / bound, ring_clique_ratio_upper(q)
    return RatioRow("ring_of_cliques", q, n, k, n * k // 2, energy, bound, ratio, ratio, upper)


_ROWS = {"paley": _paley_row, "ring_of_cliques": _ring_row}


def ratio_table(family: str, params, use_closed_form: bool = False) -> list[RatioRow]:
    """One RatioRow per parameter, in input order.

    family is "paley" or "ring_of_cliques", a key of _ROWS, which holds its
    closed-form row function, and of graphcore.FAMILIES. Every row is first
    computed in closed form, which checks its parameter; a closed ring table
    checks every q against the closed spectrum's cap before the first row.
    Without use_closed_form each row's graph is also checked against
    tolerances.MAX_DENSE_N as the row is computed, and once every row is
    in, each graph is built and solved for the row's energy, its ratio being
    that energy over the row's e0. The first invalid parameter, in input
    order, aborts the whole table with an error naming it; a ValueError of
    the params iterable itself passes through unchanged.
    """
    if family not in _ROWS:
        raise ValueError(f"family must be one of {list(_ROWS)}, got {family!r}")
    if use_closed_form and family == "ring_of_cliques":
        # a row sums q^2 closed values: check every q, reading params once
        checked = []
        for param in params:
            try:
                spectral.check_closed_ring_size(param)
            except ValueError as exc:
                raise ValueError(f"invalid {family} parameter {param}: {exc}") from None
            checked.append(param)
        params = checked
    rows = []
    for param in params:
        try:
            row = _ROWS[family](param)
            if not use_closed_form:
                check_dense_size(row.n)
        except ValueError as exc:
            raise ValueError(f"invalid {family} parameter {param}: {exc}") from None
        rows.append(row)
    if not use_closed_form:
        for i, row in enumerate(rows):
            energy = spectral.energy(FAMILIES[family](row.param))
            rows[i] = row._replace(energy=energy, ratio=energy / row.e0)
    return rows


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
