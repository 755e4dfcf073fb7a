"""Eigensolver and spectrum utilities against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import spectral
from graphenergy import tolerances as tol
from graphenergy.bounds import EnergyReport
from graphenergy.graphcore import (
    Graph,
    complete,
    cycle,
    delete_edge,
    from_edge_list,
    paley,
    permute,
    ring_of_cliques,
    splitmix64,
)
from graphenergy.spectral import (
    ConvergenceError,
    SuiteResult,
    eigenvalues,
    energy,
    jacobi_eigenvalues,
    ring_clique_spectrum_closed,
    shared_spectrum,
    trace_suite,
)
from test_api import SOLVER_ROWS, check_refusal
from test_graphcore import graphs
from test_values import lapack

# energy comparisons under relabeling and block-diagonal disjoint union
ENERGY_INVARIANCE_TOL = 1e-8


# ---------------------------------------------------------------------------
# the eigensolver's refusals, and LAPACK on random matrices


@pytest.mark.parametrize("call, exc, message", SOLVER_ROWS)
def test_jacobi_refuses_bad_input_with_its_message(call, exc, message):
    check_refusal(call, exc, message)


@pytest.mark.parametrize("shift", [500, -500])
def test_jacobi_matches_lapack_after_power_of_two_scaling(shift):
    a = np.random.default_rng(7).standard_normal((12, 12))
    a = np.ldexp(a + a.T, shift)
    assert np.abs(jacobi_eigenvalues(a) - lapack(a)).max() < np.ldexp(1e-10, shift)


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
        assert np.abs(jacobi_eigenvalues(a) - lapack(a)).max() < 1e-10


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
    assert np.abs(vals - lapack(a)).max() <= tol.CLOSED_SPECTRUM_TOL * scale


# ---------------------------------------------------------------------------
# stacks of matrices


def _stacked(matrices, pad):
    """The matrices zero-padded into one (b, N, N) stack, N = largest n + pad."""
    sizes = [len(m) for m in matrices]
    n = max(sizes) + pad
    stack = np.zeros((len(matrices), n, n))
    for block, m in zip(stack, matrices):
        block[: len(m), : len(m)] = m
    return stack, sizes


def test_trace_suite_over_several_chunks_matches_one_chunk(monkeypatch):
    # every case fails, so each case line is compared; the stacks per chunk
    # are rows of tests/test_work.py
    monkeypatch.setattr(tol, "TRACE_TOL", -1.0)
    spectra = {}
    one_chunk = trace_suite(trials=200, seed=1, spectra=spectra)
    monkeypatch.setattr(spectral, "_TRIAL_CHUNK", 64)
    # the family graphs are in `spectra` already, so only random stacks are solved
    result = trace_suite(trials=200, seed=1, spectra=spectra)
    assert result.failures == one_chunk.failures and len(result.failures) == 32 + 200


def test_trial_chunks_cuts_any_iterable_into_chunks_of_trial_chunk_items():
    chunks = list(spectral.trial_chunks(range(5000)))
    assert [len(chunk) for chunk in chunks] == [2048, 2048, 904]
    assert [x for chunk in chunks for x in chunk] == list(range(5000))
    # trace with trials=0: no chunk, so no random solve
    assert list(spectral.trial_chunks(spectral.random_graphs(0, splitmix64(0), 1, 0))) == []


@pytest.mark.parametrize("min_n, min_m", [(1, 0), (2, 1)])  # trace's ranges, lemma's
def test_random_graphs_stay_within_one_stack(min_n, min_m):
    # the suites solve each chunk as one stack only if every graph fits it
    graphs = [g for _, g in spectral.random_graphs(3000, splitmix64(1), min_n, min_m)]
    assert min(g.n for g in graphs) == min_n and min(g.m for g in graphs) == min_m
    assert max(g.n for g in graphs) <= spectral._STACK_MAX_N


@given(
    st.lists(
        st.tuples(symmetric_matrices(), st.sampled_from([-500, -3, 0, 1, 7, 500])),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2),
)
@settings(deadline=None)
def test_jacobi_stack_matches_each_matrix_solved_alone(scaled, pad):
    matrices = [np.ldexp(a, k) for a, k in scaled]
    stack, sizes = _stacked(matrices, pad)
    for vals, a in zip(jacobi_eigenvalues(stack, sizes), matrices):
        assert vals.tobytes() == jacobi_eigenvalues(a).tobytes()


def test_jacobi_stack_sums_each_off_norm_over_the_matrixs_own_block():
    # trial 659 of lemma_suite(1000, seed=1): summed over the whole padded
    # 12 x 12 block, its off-norm rounds otherwise and one eigenvalue moves
    edges = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)]
    a = from_edge_list(6, edges).adjacency
    stack, sizes = _stacked([a], 6)
    assert jacobi_eigenvalues(stack, sizes)[0].tobytes() == jacobi_eigenvalues(a).tobytes()


def test_jacobi_stack_takes_equal_and_empty_blocks():
    stack = np.stack([complete(3).adjacency, cycle(3).adjacency])
    k3, c3 = jacobi_eigenvalues(stack, [3, 3])
    assert k3.tobytes() == c3.tobytes() == jacobi_eigenvalues(complete(3).adjacency).tobytes()
    vals = jacobi_eigenvalues(np.zeros((2, 3, 3)), np.array([0, 3], dtype=np.uint8))
    assert [v.tolist() for v in vals] == [[], [0.0, 0.0, 0.0]]
    assert jacobi_eigenvalues(np.zeros((0, 4, 4)), np.zeros(0, dtype=int)) == []
    assert jacobi_eigenvalues(np.zeros((0, 3, 3)), []) == []
    assert eigenvalues([]) == []


def test_jacobi_stack_names_the_matrix_that_hits_the_sweep_cap(monkeypatch):
    # one rotation solves K_2 in the first sweep; C_5 needs more
    monkeypatch.setattr(tol, "JACOBI_MAX_SWEEPS", 1)
    stack, sizes = _stacked([complete(2).adjacency, cycle(5).adjacency], 0)
    message = r"^matrix 1 of the stack: .* after 1 sweeps \(n=5\)$"
    with pytest.raises(ConvergenceError, match=message):
        jacobi_eigenvalues(stack, sizes)


def _gaussian_symmetric(n, seed):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return x + x.T


@pytest.mark.parametrize(
    "matrix",
    [
        paley(101).adjacency,
        permute(ring_of_cliques(6), np.random.default_rng(3).permutation(36)).adjacency,
        cycle(50).adjacency,
        _gaussian_symmetric(40, 11),  # negative entries reach both signs of tau
    ],
    ids=["paley-101", "ring-6-relabelled", "cycle-50", "gaussian-40"],
)
def test_scalar_sweep_leaves_the_working_matrix_the_stack_sweep_leaves(matrix):
    # the scalar loop writes column p once per pivot row; the stack loop, run
    # on a stack of one, still writes both columns after every rotation
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    np.ldexp(a, 1 - np.frexp(np.abs(a).max())[1], out=a)
    stack = a[None].copy()
    sizes, live = np.array([n]), np.array([0])
    for sweeps in range(tol.JACOBI_MAX_SWEEPS):
        (off,) = spectral._off_norms(stack, sizes, live)
        if off < tol.JACOBI_OFF_TOL_PER_N * n:
            break
        spectral._jacobi_sweep(a, off / n)
        spectral._stack_sweep(stack, live, np.array([off / n]))
        assert np.array_equal(a, stack[0]), sweeps
    else:
        pytest.fail("no convergence")
    assert sweeps > 10


def test_scalar_sweep_rotates_at_the_skip_boundary_as_the_stack_sweep_does():
    # the scalar scan skips low < a_pq < skip, low = -skip, and the stack scan
    # rotates |a_pq| >= skip: a_pq = -skip and +skip rotate, the entries one
    # ulp inside and -0.0 do not (a zero a_pq would divide by zero)
    skip = 0.5
    below, above = np.nextafter(-skip, 0.0), np.nextafter(skip, 0.0)
    a = np.diag([1.0, 0.0, -1.0, 0.25, 0.25, 0.0, 0.0, 0.0])
    for (p, q), apq in {(0, 2): -skip, (1, 5): -0.0, (1, 6): below, (3, 4): skip, (6, 7): above}.items():
        a[p, q] = a[q, p] = apq
    stack = a[None].copy()
    spectral._jacobi_sweep(a, skip)
    spectral._stack_sweep(stack, np.array([0]), np.array([skip]))
    assert a.tobytes() == stack[0].tobytes()
    assert a[0, 2] == a[3, 4] == 0.0
    assert (a[1, 6], a[6, 7]) == (below, above) and np.signbit(a[1, 5])


def test_eigenvalues_stacks_the_small_graphs_and_solves_each_larger_one_alone():
    # which graphs are stacked and which solved alone: rows of tests/test_work.py
    graphs = [cycle(5), paley(13), complete(3)]
    vals = eigenvalues(graphs)
    for v, g in zip(vals, graphs):
        assert v.tobytes() == jacobi_eigenvalues(g.adjacency).tobytes()
    # one Graph is a list of one: a stack of one below the cutoff, a lone solve above
    assert eigenvalues(cycle(5)).tobytes() == vals[0].tobytes()
    assert eigenvalues(paley(13)).tobytes() == vals[1].tobytes()


def test_shared_spectrum_of_a_list_solves_the_new_matrices_as_one_stack():
    # its solves are a row of tests/test_work.py
    spectra = {}
    (k3,) = shared_spectrum(spectra, [complete(3)])
    got = shared_spectrum(spectra, [cycle(3), cycle(4), paley(5), cycle(4), cycle(5)])
    assert got[0] is k3 and got[1] is got[3] and got[2] is got[4]
    assert not any(vals.flags.writeable for vals in got)
    assert shared_spectrum(spectra, iter([cycle(4)]))[0] is got[1]
    assert shared_spectrum(spectra, []) == []


# ---------------------------------------------------------------------------
# closed-form spectra


@pytest.mark.parametrize("q", [*range(3, 65), 255, 256, 1000])
def test_ring_clique_spectrum_closed_equals_the_full_sort_bit_for_bit(q):
    # reference: the q^2 closed values in generation order, sorted whole
    ring = 2.0 * np.cos(2.0 * np.pi * np.arange(q) / q)
    top, bottom = ring + (q - 1.0), ring - 1.0
    vals = np.concatenate([top, np.repeat(bottom, q - 1)])
    assert ring_clique_spectrum_closed(q).tobytes() == np.sort(vals)[::-1].tobytes()
    # Only at q = 3 does rounding put the top block's least value below the
    # bottom block's greatest: joined as they stand the blocks are out of
    # order there, so the match above came from the whole-sort fallback.
    assert (top.min() < bottom.max()) == (q == 3)


# ---------------------------------------------------------------------------
# invariance properties


@given(graphs(min_n=1))
@settings(deadline=None)
def test_trace_identities(g):
    vals = eigenvalues(g)
    assert len(vals) == g.n
    assert abs(vals.sum()) <= tol.TRACE_TOL
    assert abs((vals**2).sum() - 2 * g.m) <= tol.TRACE_SQ_TOL


@given(graphs(min_n=1), graphs(min_n=1))
@settings(deadline=None)
def test_energy_additive_over_disjoint_union(g1, g2):
    n1, n = g1.n, g1.n + g2.n
    adj = np.zeros((n, n), dtype=bool)
    adj[:n1, :n1] = g1.adjacency
    adj[n1:, n1:] = g2.adjacency
    assert energy(Graph(adj)) == pytest.approx(
        energy(g1) + energy(g2), abs=ENERGY_INVARIANCE_TOL
    )


@given(graphs(min_n=1), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_energy_invariant_under_relabeling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert energy(permute(g, perm)) == pytest.approx(
        energy(g), abs=ENERGY_INVARIANCE_TOL
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


def test_trace_suite_passes(family_spectra):
    result = trace_suite(trials=25, seed=11, spectra=family_spectra)
    assert result.ok
    assert result.passed == result.total > 25


def test_trace_suite_case_count_is_32_family_graphs_plus_trials(family_spectra):
    # 11 Paley primes <= 97, rings q = 3..10, 6 complete, 5 cycles, 2 empty
    assert trace_suite(trials=0, seed=0, spectra=family_spectra).total == 32
    assert trace_suite(trials=3, seed=5, spectra=family_spectra).total == 32 + 3


def test_shared_spectrum_solves_a_matrix_once_and_stores_it_read_only():
    # its solves are a row of tests/test_work.py
    spectra = {}
    (first,) = shared_spectrum(spectra, [paley(13)])
    assert shared_spectrum(spectra, [paley(13)])[0] is first
    assert list(spectra) == [paley(13).adjacency.tobytes()]
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="^assignment destination is read-only$"):
        first[0] = 0.0
    assert first.tobytes() == jacobi_eigenvalues(paley(13).adjacency).tobytes()


def test_shared_spectrum_solves_equal_graphs_built_under_two_names_once():
    # its solves are a row of tests/test_work.py
    spectra = {}
    (k3,) = shared_spectrum(spectra, [complete(3)])
    assert shared_spectrum(spectra, [cycle(3)])[0] is k3
    (c5,) = shared_spectrum(spectra, [paley(5)])
    assert shared_spectrum(spectra, [cycle(5)])[0] is c5
    shared_spectrum(spectra, [paley(13)])
    shared_spectrum(spectra, [ring_of_cliques(3)])
    # same n and m, different matrices
    two_triangles = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    c6, triangles = shared_spectrum(spectra, [cycle(6), two_triangles])
    assert (c6[1], triangles[1]) == pytest.approx((1.0, 2.0), rel=0, abs=1e-12)
    assert len(spectra) == 6
    assert not any(vals.flags.writeable for vals in spectra.values())


def test_suite_result_bookkeeping():
    r = SuiteResult("demo")
    r.check(True, "a")
    r.check(False, "broken case")
    assert (r.passed, r.total, r.ok) == (1, 2, False)
    assert r.failures == ["broken case"]


def test_energy_report_defaults():
    report = EnergyReport(energy=8.0, spectral_radius=4.0)
    assert report.k is None and report.e0 is None and report.ratio is None
