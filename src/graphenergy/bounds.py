"""Energy bounds and ratio machinery.

The regular-graph Koolen-Moulton bound e0, the edge-deletion inequality
check, closed-form family energies with their proof-chain inequalities,
ratio sweep tables, and the randomized/corpus verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import spectral
from . import tolerances as tol
from .graphcore import (
    Graph,
    check_dense_size,
    check_paley_parameter,
    check_ring_parameter,
    delete_edge,
    family_corpus,
    paley,
    random_graph,
    ring_of_cliques,
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
    """Koolen-Moulton energy bound for k-regular graphs: k + sqrt(k(n-1)(n-k))."""
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if k < 0 or k > n - 1:
        raise ValueError(f"regular degree must be in 0..{n - 1} for n={n}, got {k}")
    return k + math.sqrt(k * (n - 1) * (n - k))


@dataclass(frozen=True)
class EnergyReport:
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


@dataclass(frozen=True)
class EdgeDeletionCheck:
    """One instance of the edge-deletion lemma: lhs = E(G), rhs = E(G - e) + 2,
    and holds when both E(G) <= E(G - e) + 2 and l1(G - e) <= l1(G) do."""

    lhs: float
    rhs: float
    holds: bool


def edge_deletion_check(g: Graph, e: tuple[int, int]) -> EdgeDeletionCheck:
    """Evaluate E(G) <= E(G - e) + 2 and the spectral-radius interlacing
    l1(G - e) <= l1(G) for an edge e of g, from one solve per graph."""
    whole = spectral.eigenvalues(g)
    reduced = spectral.eigenvalues(delete_edge(g, e))
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
    return _paley_ratio_lower(check_paley_parameter(p))


def _paley_ratio_lower(value: int) -> float:
    root = math.sqrt(value)
    return root / (root + 2.0)


def paley_ratio_closed(p) -> float:
    """Exact Paley energy ratio (1 + sqrt(p)) / (1 + sqrt(p + 1)).

    For a Paley graph, e0 simplifies to (p-1)(1 + sqrt(p+1))/2, so the ratio
    collapses to this two-radical form; it lies strictly between the crude
    chain bound and 1.
    """
    return _paley_ratio_closed(check_paley_parameter(p))


def _paley_ratio_closed(value: int) -> float:
    root = math.sqrt(value)
    ratio = (1.0 + root) / (1.0 + math.sqrt(value + 1))
    if not root / (root + 2.0) < ratio < 1.0:
        raise ArithmeticError("ratio left its proven bracket")
    return ratio


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
    upper = ring_clique_energy_upper(q)
    estimate = (q * q - q - 1) * math.sqrt(q + 1.0)
    if not e0(q * q, q + 1) >= estimate:
        raise ArithmeticError("e0 fell below its lower estimate")
    return upper / estimate


# ---------------------------------------------------------------------------
# ratio sweeps


@dataclass(frozen=True)
class RatioRow:
    """One row of a family ratio sweep."""

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


_FAMILY_BUILDERS = {"paley": paley, "ring_of_cliques": ring_of_cliques}


def _ratio_row(family: str, param: int) -> RatioRow:
    # The closed-form call checks param, so int() after it is exact and the
    # Paley row needs no second check.
    if family == "paley":
        energy = paley_energy_closed(param)
        param = int(param)
        n, k = param, (param - 1) // 2
        closed_ratio, paper_bound = _paley_ratio_closed(param), _paley_ratio_lower(param)
    else:
        energy = ring_clique_energy_closed(param)
        param = int(param)
        n, k = param * param, param + 1
        closed_ratio, paper_bound = energy / e0(n, k), ring_clique_ratio_upper(param)
    bound = e0(n, k)
    return RatioRow(
        family=family,
        param=param,
        n=n,
        k=k,
        m=n * k // 2,
        energy=energy,
        e0=bound,
        ratio=energy / bound,
        closed_ratio=closed_ratio,
        paper_bound=paper_bound,
    )


def ratio_table(family: str, params, use_closed_form: bool = False) -> list[RatioRow]:
    """One RatioRow per parameter, in input order.

    family is "paley" or "ring_of_cliques". Every row is first computed
    from the closed-form spectrum (cheap, any size), which checks each
    parameter. Without use_closed_form each row's graph is also checked
    against tolerances.MAX_DENSE_N as the row is computed, and only once
    every row is in are the graphs built and eigensolved for the rows'
    energy and ratio. The first invalid parameter, in input order, aborts
    the whole table with an error naming it.
    """
    if family not in _FAMILY_BUILDERS:
        raise ValueError(f"family must be one of {list(_FAMILY_BUILDERS)}, got {family!r}")
    rows = []
    try:
        for param in params:
            row = _ratio_row(family, param)
            if not use_closed_form:
                check_dense_size(row.n)
            rows.append(row)
    except ValueError as exc:
        raise ValueError(f"invalid {family} parameter {param}: {exc}") from None
    if not use_closed_form:
        build = _FAMILY_BUILDERS[family]
        for i, row in enumerate(rows):
            energy = spectral.energy(build(row.param))
            rows[i] = replace(row, energy=energy, ratio=energy / row.e0)
    return rows


# ---------------------------------------------------------------------------
# verification suites


def lemma_suite(trials: int, seed: int) -> spectral.SuiteResult:
    """Edge-deletion inequality on seeded random graphs (n <= 12).

    Each trial draws a graph and one random edge e, and checks both
    E(G) <= E(G - e) + 2 and l1(G - e) <= l1(G) with edge_deletion_check.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    result = spectral.SuiteResult("lemma")
    stream = splitmix64(seed)
    for trial in range(trials):
        n = 2 + next(stream) % 11
        m = 1 + next(stream) % (n * (n - 1) // 2)
        graph_seed = next(stream)
        g = random_graph(n, m, graph_seed)
        e = g.edges()[next(stream) % g.m]
        check = edge_deletion_check(g, e)
        result.check(
            check.holds,
            f"trial {trial}: graph(n={n}, m={m}, seed={graph_seed}), "
            f"edge={e}, lhs={check.lhs!r}, rhs={check.rhs!r}",
        )
    return result


def bounds_suite(spectra: dict) -> spectral.SuiteResult:
    """energy <= e0 over the regular corpus, with equality exactly for K_n:
    Paley graphs with p <= 200, rings of cliques with q <= 12, K_1..K_50
    and C_3..C_50, 129 graphs in all. Spectra are looked up in and stored
    into `spectra` (see spectral.shared_spectrum)."""
    result = spectral.SuiteResult("bounds")
    for label, g in family_corpus(200, 12, range(1, 51), range(3, 51)):
        k = g.regularity()
        en = spectral.spectrum_energy(spectral.shared_spectrum(spectra, label, g))
        bound = e0(g.n, k)
        within = en <= bound + tol.BOUND_SLACK
        equality = abs(en - bound) <= tol.BOUND_SLACK
        result.check(
            within and equality == (k == g.n - 1),
            f"{label}: energy={en!r}, e0={bound!r}, k={k}, n={g.n}",
        )
    return result
