"""The value table: every number the library returns, each pinned once in
VALUES against a reference that does not call the function it checks.

A row is a call of one public function, named before the first `-` of its
id, and the value the call must return. The reference is a 40-digit
literal with its formula beside it, an exact formula evaluated here, LAPACK
(`lapack`, the reference of the solver's property tests too) or, for a
Jacobi spectrum, the closed-form one. A value is exact, compared with `==`
and its type, or by dtype, shape and bytes for an array, unless near()
states its bound: the tightest any earlier test put on it, by its
tolerances.py name where that test used one. Every array a call returns is
a spectrum, and must be sorted descending.

Each name of graphenergy.__all__ has the number of rows ROWS gives it, or
is in NON_NUMERIC: it returns no number of its own.

CI runs this module against the installed package too.
"""

import collections
import math
from typing import NamedTuple

import numpy as np
import pytest

import graphenergy
from graphenergy import tolerances as tol
from graphenergy import (
    complete,
    cycle,
    delete_edge,
    e0,
    edge_deletion_check,
    eigenvalues,
    empty,
    energy,
    energy_report,
    jacobi_eigenvalues,
    paley,
    paley_energy_closed,
    paley_ratio_closed,
    paley_ratio_lower,
    paley_spectrum_closed,
    ratio_table,
    ring_clique_energy_closed,
    ring_clique_energy_upper,
    ring_clique_ratio_upper,
    ring_clique_spectrum_closed,
    ring_of_cliques,
)

from test_graphcore import path3


def lapack(matrix, sizes=None):
    """jacobi_eigenvalues' spectra, from LAPACK."""
    a = np.asarray(matrix, dtype=np.float64)
    if sizes is None:
        return np.linalg.eigvalsh(a)[::-1]
    return [np.linalg.eigvalsh(m[:n, :n])[::-1] for m, n in zip(a, sizes)]


class near(NamedTuple):
    """A reference value, or an array of them, and the bound on |got - value|,
    entry by entry."""

    value: object
    abs: float


def value(key, call, want):
    """One row: call() returns want."""
    return pytest.param(call, want, id=key)


def paley_closed(p):
    """(p-1)/2 once, then (-1 + sqrt p)/2 and (-1 - sqrt p)/2, (p-1)/2 times each."""
    half, root = (p - 1) // 2, math.sqrt(p)
    return np.array([half] + [(-1 + root) / 2] * half + [(-1 - root) / 2] * half)


def deletion_check(g, e, lift=None):
    """edge_deletion_check on the spectra of g and of g - e; with lift, the
    spectral radius of g - e set to g's plus lift."""
    whole, reduced = eigenvalues(g), eigenvalues(delete_edge(g, e))
    if lift is not None:
        reduced[0] = whole[0] + lift
    return edge_deletion_check(whole, reduced)


E0_9_4 = 16.64911064067351732799557417773087413488  # 4 + sqrt(160)
E0_13_6 = 28.44994432064364831350249239389929581054  # 6 + sqrt(504)
E0_25_6 = 58.30678732248808262684378380631538790964  # 6 + sqrt(2736)
E0_256_17 = 1034.872781834743825566155278534351597513  # 17 + sqrt(1036065)
# (p-1)(1 + sqrt p)/2; 2(1 + sqrt 5) is also the energy of C_5 = paley(5)
E_P5 = 6.472135954999579392818347337462552470881
E_P13 = 27.63330765278393575871532760482297567751
E_P17 = 40.98484500494128439857127884779261620118
R_P13 = 0.9712956672724610429242179289493537175354  # (1 + sqrt 13)/(1 + sqrt 14)
R_P101 = 0.9955286909175868758280374269014905890563  # (1 + sqrt 101)/(1 + sqrt 102)
L_P13 = 0.6432108276746690459735063850065564563886  # sqrt 13/(sqrt 13 + 2)
R_RING3 = 0.9610122934081685919995082419700971260976  # 16/(4 + sqrt 160)
U_RING100 = 0.4000654628786500414130507667319442530353  # 39800/(9899 sqrt 101)
# ring of cliques, q = 3..6: q(q-1) + (q-1) sum_r |2 cos(2 pi r/q) - 1|
RING_ENERGY = [16.0, 30.0, 48.0, 70.0]
PALEYS = (5, 13, 17, 29)
SQRT2 = math.sqrt(2)
STACK = np.stack([np.pad(path3().adjacency, (0, 2)), cycle(5).adjacency])

VALUES = [
    # e0(n, k) = k + sqrt(k(n-1)(n-k)), its arguments read by the integer rule
    value("e0-25-6", lambda: e0(25, 6), E0_25_6),
    value("e0-25-6-integral-types", lambda: [e0(np.int64(25), np.uint8(6)), e0(25.0, 6)], [E0_25_6] * 2),
    value("e0-256-17", lambda: e0(256, 17), E0_256_17),
    value("e0-0-regular", lambda: [e0(n, 0) for n in (1, 2, 5, 9)], [0.0] * 4),
    # k = n - 1: the root of (n-1)^2 is exact
    value("e0-complete", lambda: [e0(n, n - 1) for n in range(2, 40)],
          [2.0 * (n - 1) for n in range(2, 40)]),
    # spectra: K_n is n - 1 once and -1, C_n is 2 cos(2 pi r/n), P_3 the roots of x^3 - 2x
    value("eigenvalues-complete-3", lambda: eigenvalues(complete(3)), near([2.0, -1.0, -1.0], 1e-12)),
    value("eigenvalues-complete-5", lambda: eigenvalues(complete(5)), near([4.0] + [-1.0] * 4, 1e-12)),
    value("eigenvalues-cycle-4", lambda: eigenvalues(cycle(4)), near([2.0, 0.0, 0.0, -2.0], 1e-12)),
    value("eigenvalues-path-3", lambda: eigenvalues(path3()), near([SQRT2, 0.0, -SQRT2], 1e-12)),
    value("eigenvalues-empty-1", lambda: eigenvalues(empty(1)), np.zeros(1)),
    value("eigenvalues-cycle-5", lambda: eigenvalues(cycle(5)), near(paley_closed(5), 1e-9)),
    value("eigenvalues-paley", lambda: eigenvalues([paley(p) for p in PALEYS]),
          [near(paley_spectrum_closed(p), tol.CLOSED_SPECTRUM_TOL) for p in PALEYS]),
    value("eigenvalues-ring", lambda: eigenvalues([ring_of_cliques(q) for q in range(3, 7)]),
          [near(ring_clique_spectrum_closed(q), tol.CLOSED_SPECTRUM_TOL) for q in range(3, 7)]),
    # the spectral radius of a connected k-regular graph is k
    value("eigenvalues-radius", lambda: [vals[0] for vals in eigenvalues([paley(13), ring_of_cliques(3)])],
          [near(6.0, 1e-10), near(4.0, 1e-10)]),
    value("eigenvalues-radius-regular",
          lambda: [vals[0] for vals in eigenvalues([cycle(7), paley(17), ring_of_cliques(4), complete(9)])],
          [near(k, 1e-9) for k in (2.0, 8.0, 5.0, 8.0)]),
    # a 2 x 2 matrix takes one rotation, whose diagonal is exact float arithmetic
    *(value(f"jacobi_eigenvalues-scaled-{s}", lambda s=s: jacobi_eigenvalues([[0.0, s], [s, 0.0]]),
            np.array([s, -s]))
      for s in (1e300, 1e-300, 2.0**500, 2.0**-500)),
    value("jacobi_eigenvalues-edge-of-float64",
          lambda: jacobi_eigenvalues([[1e308, 1e308], [1e308, -1e308]]),
          np.array([SQRT2 * 1e308, -SQRT2 * 1e308])),
    value("jacobi_eigenvalues-0x0", lambda: jacobi_eigenvalues(np.zeros((0, 0))), np.zeros(0)),
    # a stack: the spectrum of each matrix's leading sizes[i] x sizes[i] block
    value("jacobi_eigenvalues-stack", lambda: jacobi_eigenvalues(STACK, [3, 5]),
          [near(vals, 1e-10) for vals in lapack(STACK, [3, 5])]),
    # energy = sum |l|
    value("energy-empty-4", lambda: energy(empty(4)), 0.0),
    value("energy-complete", lambda: [energy(complete(n)) for n in (2, 3, 5, 7, 12)],
          [near(2.0 * (n - 1), 1e-10 if n == 5 else 1e-9) for n in (2, 3, 5, 7, 12)]),
    value("energy-cycle-5", lambda: energy(cycle(5)), near(E_P5, 1e-9)),
    value("energy-paley", lambda: [energy(paley(p)) for p in PALEYS],
          [near((p - 1) * (1 + math.sqrt(p)) / 2, 1e-8) for p in PALEYS]),
    value("energy-ring", lambda: [energy(ring_of_cliques(q)) for q in range(3, 7)],
          [near(x, 1e-7) for x in RING_ENERGY]),
    # (energy, spectral_radius, k, e0, ratio)
    value("energy_report-complete-5", lambda: energy_report(complete(5)),
          (near(8.0, 1e-9), near(4.0, 1e-10), 4, 8.0, near(1.0, tol.BOUND_SLACK))),
    value("energy_report-paley-13", lambda: energy_report(paley(13)),
          (near(E_P13, 1e-8), near(6.0, 1e-10), 6, E0_13_6, near(R_P13, 1e-9))),
    value("energy_report-ring-3", lambda: energy_report(ring_of_cliques(3)),
          (near(16.0, 1e-9), near(4.0, 1e-10), 4, near(E0_9_4, 1e-12), near(R_RING3, 1e-9))),
    # (lhs, rhs, holds): E(G), E(G - e) + 2, and both inequalities
    value("edge_deletion_check-complete-2", lambda: deletion_check(complete(2), (0, 1)),
          (near(2.0, 1e-10), near(2.0, 1e-10), True)),
    value("edge_deletion_check-path-3", lambda: deletion_check(path3(), (0, 1)),
          (near(2 * SQRT2, 1e-10), near(4.0, 1e-10), True)),
    value("edge_deletion_check-complete-3", lambda: deletion_check(complete(3), (0, 1)),
          (near(4.0, 1e-10), near(2 + 2 * SQRT2, 1e-10), True)),
    # l1(G - e) > l1(G) fails the check, though E(G) <= E(G - e) + 2 holds
    value("edge_deletion_check-radius-grows", lambda: deletion_check(complete(3), (0, 1), 1e-6),
          (near(4.0, 1e-10), near(4 + SQRT2 + 1e-6, 1e-10), False)),
    # closed forms: Paley's spectrum is paley_closed(p)
    *(value(f"paley_spectrum_closed-{p}", lambda p=p: paley_spectrum_closed(p), paley_closed(p))
      for p in (5, 13, 17)),
    *(value(f"paley_energy_closed-{p}", lambda p=p: paley_energy_closed(p), want)
      for p, want in ((5, E_P5), (13, E_P13), (17, E_P17))),
    value("paley_ratio_closed-13", lambda: paley_ratio_closed(13), near(R_P13, 1e-15)),
    value("paley_ratio_closed-101", lambda: paley_ratio_closed(101), R_P101),
    value("paley_ratio_lower-13", lambda: paley_ratio_lower(13), near(L_P13, 1e-15)),
    # the ring's sums of C_q's 2 cos(2 pi r/q) and K_q's q - 1 and -1 (q - 1 times); at
    # q = 3, 1e-13 an entry keeps the sum of the nine within 1e-12 of 0
    value("ring_clique_spectrum_closed-3", lambda: ring_clique_spectrum_closed(3),
          near([4.0] + [1.0] * 4 + [-2.0] * 4, 1e-13)),
    value("ring_clique_spectrum_closed-4", lambda: ring_clique_spectrum_closed(4),
          near([5.0, 3.0, 3.0] + [1.0] * 4 + [-1.0] * 6 + [-3.0] * 3, 1e-12)),
    value("ring_clique_energy_closed-3-to-6", lambda: [ring_clique_energy_closed(q) for q in range(3, 7)],
          [near(x, 1e-10) for x in RING_ENERGY]),
    # 4q^2 - 2q
    value("ring_clique_energy_upper-3-5-10-16",
          lambda: [ring_clique_energy_upper(q) for q in (3, 5, 10, 16)], [30.0, 90.0, 380.0, 992.0]),
    # (4q^2 - 2q)/((q^2 - q - 1) sqrt(q + 1)): 30/(5 * 2) at q = 3
    value("ring_clique_ratio_upper-3", lambda: ring_clique_ratio_upper(3), 3.0),
    value("ring_clique_ratio_upper-100", lambda: ring_clique_ratio_upper(100), near(U_RING100, 1e-12)),
    # (family, param, n, k, m, energy, e0, ratio, closed_ratio, paper_bound)
    value("ratio_table-paley-13-closed", lambda: list(ratio_table("paley", [13], True)),
          [("paley", 13, 13, 6, 39, E_P13, E0_13_6, R_P13, near(R_P13, 1e-15), near(L_P13, 1e-15))]),
    value("ratio_table-paley-13-numeric", lambda: list(ratio_table("paley", [13])),
          [("paley", 13, 13, 6, 39, near(E_P13, 1e-8), E0_13_6, near(R_P13, 1e-9), near(R_P13, 1e-15),
            near(L_P13, 1e-15))]),
    value("ratio_table-ring-3-closed", lambda: list(ratio_table("ring_of_cliques", [3], True)),
          [("ring_of_cliques", 3, 9, 4, 18, near(16.0, 1e-10), near(E0_9_4, 1e-12), near(R_RING3, 1e-10),
            near(R_RING3, 1e-10), 3.0)]),
]

# the public names that return no number of their own: classes, suites,
# builders and edits, edge-list I/O, and the integer checks and streams
NON_NUMERIC = {
    "ConvergenceError", "EdgeDeletionCheck", "EnergyReport", "Graph", "RatioRow", "SuiteResult",
    "bounds_suite", "closed_forms_suite", "lemma_suite", "trace_suite",
    "complete", "cycle", "delete_edge", "empty", "from_edge_list", "paley", "permute",
    "random_graph", "ring_of_cliques",
    "format_edge_list", "parse_edge_list", "read_edge_list", "write_edge_list",
    "check_paley_parameter", "is_prime", "paley_primes", "splitmix64",
}
# every other public name: its rows in VALUES
ROWS = {
    "e0": 5, "edge_deletion_check": 4, "eigenvalues": 10, "energy": 5, "energy_report": 3,
    "jacobi_eigenvalues": 7, "paley_energy_closed": 3, "paley_ratio_closed": 2,
    "paley_ratio_lower": 1, "paley_spectrum_closed": 3, "ratio_table": 3,
    "ring_clique_energy_closed": 1, "ring_clique_energy_upper": 1, "ring_clique_ratio_upper": 2,
    "ring_clique_spectrum_closed": 2,
}


def check_value(got, want):
    """got is want: exact, or within a near() bound, element by element for a
    tuple or a list; every array in got is a spectrum, sorted descending."""
    if isinstance(got, np.ndarray):
        assert got.ndim == 1 and np.all(got[:-1] >= got[1:]), f"not descending: {got}"
    if isinstance(want, near):
        ref = np.asarray(want.value, dtype=np.float64)
        assert np.shape(got) == ref.shape, (got, want)
        assert np.all(np.abs(np.asarray(got, dtype=np.float64) - ref) <= want.abs), (got, want)
    elif isinstance(want, (tuple, list)):
        assert isinstance(got, (tuple, list)) and len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            check_value(g, w)
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), got
    else:
        assert type(got) is type(want) and got == want, (got, want)


@pytest.mark.parametrize("call, want", VALUES)
def test_value(call, want):
    check_value(call(), want)


def test_every_public_number_has_its_rows():
    rows = collections.Counter(row.id.partition("-")[0] for row in VALUES)
    assert not NON_NUMERIC & ROWS.keys()
    assert sorted(NON_NUMERIC | ROWS.keys()) == graphenergy.__all__
    assert rows == ROWS
