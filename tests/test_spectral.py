"""Eigensolver and spectrum utilities against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import tolerances as tol
from graphenergy.bounds import EnergyReport
from graphenergy.graphcore import (
    Graph,
    complete,
    cycle,
    delete_edge,
    empty,
    from_edge_list,
    paley,
    permute,
    random_graph,
    ring_of_cliques,
)
from graphenergy.spectral import (
    ConvergenceError,
    SuiteResult,
    eigenvalues,
    energy,
    jacobi_eigenvalues,
    paley_spectrum_closed,
    ring_clique_spectrum_closed,
    shared_spectrum,
    trace_suite,
)


def path3():
    return from_edge_list(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# eigensolver on known spectra


def test_complete_graph_spectrum():
    assert np.allclose(eigenvalues(complete(3)), [2.0, -1.0, -1.0], atol=1e-12)
    vals = eigenvalues(complete(5))
    assert np.allclose(vals, [4.0] + [-1.0] * 4, atol=1e-12)


def test_cycle4_spectrum():
    assert np.allclose(eigenvalues(cycle(4)), [2.0, 0.0, 0.0, -2.0], atol=1e-12)


def test_path3_spectrum_matches_characteristic_roots():
    # oracle: roots of the characteristic polynomial x^3 - 2x
    roots = np.sort(np.roots([1.0, 0.0, -2.0, 0.0]))[::-1]
    assert np.allclose(eigenvalues(path3()), roots, atol=1e-9)
    assert np.allclose(eigenvalues(path3()), [math.sqrt(2), 0.0, -math.sqrt(2)], atol=1e-12)


def test_single_vertex_and_empty_graph():
    assert eigenvalues(empty(1)).tolist() == [0.0]
    assert energy(empty(4)) == 0.0
    with pytest.raises(ValueError):
        eigenvalues(empty(0))


def test_jacobi_input_validation():
    with pytest.raises(ValueError, match="square"):
        jacobi_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert jacobi_eigenvalues(np.zeros((0, 0))).size == 0


def test_jacobi_rejects_infinite_entries():
    with pytest.raises(ValueError, match="finite"):
        jacobi_eigenvalues([[0.0, math.inf], [math.inf, 0.0]])


def test_jacobi_reports_nan_as_non_finite_not_asymmetric():
    with pytest.raises(ValueError, match="finite"):
        jacobi_eigenvalues([[math.nan, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("s", [1e300, 1e-300, 2.0**500, 2.0**-500])
def test_jacobi_scales_extreme_entries(s):
    vals = jacobi_eigenvalues([[0.0, s], [s, 0.0]])
    assert vals.tolist() == pytest.approx([s, -s], rel=1e-12, abs=0)


@pytest.mark.parametrize("shift", [500, -500])
def test_jacobi_matches_lapack_after_power_of_two_scaling(shift):
    a = np.random.default_rng(7).standard_normal((12, 12))
    a = np.ldexp(a + a.T, shift)
    ref = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.abs(jacobi_eigenvalues(a) - ref).max() < np.ldexp(1e-10, shift)


def test_jacobi_reports_non_convergence_instead_of_garbage(monkeypatch):
    monkeypatch.setattr(tol, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError, match="after 0 sweeps"):
        jacobi_eigenvalues(complete(3).adjacency)


def test_jacobi_matches_lapack_on_random_symmetric_matrices():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(1, 25))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        mine = jacobi_eigenvalues(a)
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.abs(mine - ref).max() < 1e-10


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n matrices, n <= 10: integer, rank one (v v^T), or with
    every eigenvalue repeated (kron(I_2, B))."""
    kind = draw(st.sampled_from(["integer", "rank one", "repeated"]))
    if kind == "rank one":
        v = np.array(draw(st.lists(st.integers(-20, 20), min_size=1, max_size=10)), dtype=float)
        return np.outer(v, v)
    n = draw(st.integers(1, 10 if kind == "integer" else 5))
    entries = draw(st.lists(st.integers(-50, 50), min_size=n * n, max_size=n * n))
    a = np.array(entries, dtype=float).reshape(n, n)
    a = np.triu(a) + np.triu(a, 1).T
    return a if kind == "integer" else np.kron(np.eye(2), a)


@given(symmetric_matrices())
@settings(deadline=None)
def test_jacobi_commutes_with_power_of_two_scaling_and_matches_lapack(a):
    vals = jacobi_eigenvalues(a)
    for k in (500, -500):
        assert np.array_equal(jacobi_eigenvalues(np.ldexp(a, k)), np.ldexp(vals, k))
    scale = max(1.0, float(np.abs(a).max()))
    assert np.abs(vals - np.linalg.eigvalsh(a)[::-1]).max() <= tol.CLOSED_SPECTRUM_TOL * scale


def test_eigenvalues_sorted_descending():
    vals = eigenvalues(paley(13))
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# energy and spectral radius


def test_energy_examples():
    assert energy(empty(4)) == pytest.approx(0.0, abs=1e-12)
    assert energy(complete(5)) == pytest.approx(8.0, abs=1e-10)  # 2(n-1)
    for n in (2, 3, 7, 12):
        assert energy(complete(n)) == pytest.approx(2 * (n - 1), abs=1e-9)


def test_cycle5_energy_matches_circulant_oracle():
    # oracle: cycle eigenvalues are 2 cos(2 pi r / 5)
    expected = sum(abs(2.0 * math.cos(2.0 * math.pi * r / 5)) for r in range(5))
    assert expected == pytest.approx(6.47213595499958, abs=1e-11)
    assert energy(cycle(5)) == pytest.approx(expected, abs=1e-9)


def test_spectral_radius_examples():
    assert eigenvalues(complete(5))[0] == pytest.approx(4.0, abs=1e-10)
    assert eigenvalues(paley(13))[0] == pytest.approx(6.0, abs=1e-10)
    assert eigenvalues(ring_of_cliques(3))[0] == pytest.approx(4.0, abs=1e-10)


def test_spectral_radius_equals_degree_for_regular_graphs():
    for g in (cycle(7), paley(17), ring_of_cliques(4), complete(9)):
        assert eigenvalues(g)[0] == pytest.approx(g.regularity(), abs=1e-9)


# ---------------------------------------------------------------------------
# closed-form spectra


def test_paley_spectrum_closed_5():
    golden = (math.sqrt(5) - 1) / 2  # 0.6180339887498949
    expected = [2.0, golden, golden, -golden - 1, -golden - 1]
    assert np.allclose(paley_spectrum_closed(5), expected, atol=1e-12)
    assert np.abs(paley_spectrum_closed(5) - eigenvalues(cycle(5))).max() < 1e-9


def test_paley_spectrum_closed_13():
    vals = paley_spectrum_closed(13)
    assert vals[0] == pytest.approx(6.0, abs=0)
    assert np.allclose(vals[1:7], (math.sqrt(13) - 1) / 2, atol=1e-12)
    assert np.allclose(vals[7:], (-math.sqrt(13) - 1) / 2, atol=1e-12)


def test_paley_spectrum_closed_17_multiplicities():
    vals = paley_spectrum_closed(17)
    assert len(vals) == 17
    assert vals[0] == pytest.approx(8.0)
    assert np.allclose(vals[1:9], (math.sqrt(17) - 1) / 2, atol=1e-12)
    assert np.allclose(vals[9:], (-math.sqrt(17) - 1) / 2, atol=1e-12)


def test_paley_spectrum_closed_validates_parameter():
    with pytest.raises(ValueError):
        paley_spectrum_closed(12)
    with pytest.raises(ValueError):
        paley_spectrum_closed(7)


def test_ring_clique_spectrum_closed_3():
    # oracle by hand: sums of {2, -1, -1} (clique) and {2, -1, -1} (triangle)
    expected = [4.0, 1.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, -2.0]
    assert np.allclose(ring_clique_spectrum_closed(3), expected, atol=1e-12)
    vals = ring_clique_spectrum_closed(3)
    assert abs(vals.sum()) < 1e-12
    assert (vals**2).sum() == pytest.approx(36.0, abs=1e-10)  # 2m for m = 18
    assert np.abs(vals).sum() == pytest.approx(16.0, abs=1e-10)


def test_ring_clique_spectrum_closed_4_top_value():
    vals = ring_clique_spectrum_closed(4)
    assert len(vals) == 16
    assert vals[0] == pytest.approx(5.0, abs=1e-12)  # q + 1 for a connected regular graph


def test_ring_clique_spectrum_closed_rejects_small_q():
    with pytest.raises(ValueError):
        ring_clique_spectrum_closed(2)


def test_closed_forms_match_eigensolver_small():
    for p in (5, 13, 17, 29):
        dev = np.abs(eigenvalues(paley(p)) - paley_spectrum_closed(p)).max()
        assert dev <= tol.CLOSED_SPECTRUM_TOL
    for q in range(3, 7):
        dev = np.abs(eigenvalues(ring_of_cliques(q)) - ring_clique_spectrum_closed(q)).max()
        assert dev <= tol.CLOSED_SPECTRUM_TOL


# ---------------------------------------------------------------------------
# invariance properties


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return random_graph(n, m, seed)


@given(graphs())
@settings(deadline=None)
def test_trace_identities(g):
    vals = eigenvalues(g)
    assert len(vals) == g.n
    assert abs(vals.sum()) <= tol.TRACE_TOL
    assert abs((vals**2).sum() - 2 * g.m) <= tol.TRACE_SQ_TOL


@given(graphs(), graphs())
@settings(deadline=None)
def test_energy_additive_over_disjoint_union(g1, g2):
    n1, n = g1.n, g1.n + g2.n
    adj = np.zeros((n, n), dtype=bool)
    adj[:n1, :n1] = g1.adjacency
    adj[n1:, n1:] = g2.adjacency
    assert energy(Graph(adj)) == pytest.approx(
        energy(g1) + energy(g2), abs=tol.ENERGY_INVARIANCE_TOL
    )


@given(graphs(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_energy_invariant_under_relabeling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert energy(permute(g, perm)) == pytest.approx(
        energy(g), abs=tol.ENERGY_INVARIANCE_TOL
    )


@given(graphs(min_n=2), st.integers(min_value=0, max_value=10**6))
@settings(deadline=None)
def test_interlacing_after_edge_deletion(g, pick):
    if g.m == 0:
        return
    e = g.edges()[pick % g.m]
    assert eigenvalues(delete_edge(g, e))[0] <= eigenvalues(g)[0] + tol.BOUND_SLACK


# ---------------------------------------------------------------------------
# suites and report types


def test_trace_suite_passes():
    result = trace_suite(trials=25, seed=11, spectra={})
    assert result.ok
    assert result.passed == result.total > 25


def test_trace_suite_case_count_is_32_family_graphs_plus_trials():
    # 11 Paley primes <= 97, rings q = 3..10, 6 complete, 5 cycles, 2 empty
    assert trace_suite(trials=0, seed=0, spectra={}).total == 32
    assert trace_suite(trials=3, seed=5, spectra={}).total == 32 + 3


def test_trace_suite_rejects_bad_seed_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr("graphenergy.spectral.jacobi_eigenvalues", calls.append)
    with pytest.raises(ValueError, match="seed"):
        trace_suite(trials=0, seed=-5, spectra={})
    assert calls == []


def test_shared_spectrum_solves_a_label_once_and_stores_it_read_only(solve_counter):
    spectra = {}
    first = shared_spectrum(spectra, "paley(13)", paley(13))
    assert shared_spectrum(spectra, "paley(13)", paley(13)) is first
    assert solve_counter == [13]
    assert list(spectra) == ["paley(13)"]
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.0
    assert np.allclose(first, paley_spectrum_closed(13), atol=1e-12)


def test_suite_result_bookkeeping():
    r = SuiteResult("demo")
    r.check(True, "a")
    r.check(False, "broken case")
    assert (r.passed, r.total, r.ok) == (1, 2, False)
    assert r.failures == ["broken case"]


def test_energy_report_defaults():
    report = EnergyReport(energy=8.0, spectral_radius=4.0)
    assert report.k is None and report.e0 is None and report.ratio is None
