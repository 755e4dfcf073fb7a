"""Bound evaluation, closed forms, chain inequalities, and ratio tables."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import bounds, spectral
from graphenergy import tolerances as tol
from graphenergy.bounds import (
    e0,
    edge_deletion_check,
    energy_report,
    lemma_suite,
    paley_energy_closed,
    paley_ratio_closed,
    paley_ratio_lower,
    ratio_table,
    ring_clique_energy_closed,
    ring_clique_energy_upper,
    ring_clique_ratio_upper,
)
from graphenergy.graphcore import (
    complete,
    delete_edge,
    family_params,
    from_edge_list,
    paley,
    paley_primes,
    random_graph,
    ring_of_cliques,
)
from graphenergy.spectral import eigenvalues, energy

from test_api import FAMILY_ENTRY_POINTS


def path3():
    return from_edge_list(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# e0


def test_e0_zero_regular():
    for n in (1, 2, 5, 9):
        assert e0(n, 0) == 0.0


def test_e0_complete_case_is_exact():
    # k = n-1 collapses to 2(n-1)
    assert e0(5, 4) == 8.0
    for n in range(2, 40):
        assert e0(n, n - 1) == pytest.approx(2 * (n - 1), abs=1e-12)


def test_e0_direct_value():
    # 6 + sqrt(2736), 40-digit reference evaluation
    assert e0(25, 6) == pytest.approx(58.306787322488084, abs=1e-12)


def test_e0_accepts_integral_numbers_of_any_type():
    assert e0(np.int64(25), np.uint8(6)) == e0(25.0, 6) == e0(25, 6)


# ---------------------------------------------------------------------------
# energy ratio


def test_energy_ratio_complete_graph_hits_the_bound():
    report = energy_report(complete(5))
    assert report.ratio == pytest.approx(1.0, abs=tol.BOUND_SLACK)
    assert report.k == 4
    assert report.e0 == pytest.approx(8.0, abs=1e-12)
    assert report.spectral_radius == pytest.approx(4.0, abs=1e-10)
    assert report.energy == pytest.approx(8.0, abs=1e-9)


def test_energy_ratio_paley_13():
    report = energy_report(paley(13))
    # (1 + sqrt(13)) / (1 + sqrt(14)), 40-digit reference evaluation
    assert report.ratio == pytest.approx(0.9712956672724611, abs=1e-9)


def test_energy_ratio_ring_3():
    report = energy_report(ring_of_cliques(3))
    # 16 / (4 + sqrt(160)), 40-digit reference evaluation
    assert report.ratio == pytest.approx(0.9610122934081686, abs=1e-9)
    assert report.energy == pytest.approx(16.0, abs=1e-9)


# ---------------------------------------------------------------------------
# edge-deletion inequality


def _deletion_check(g, e):
    return edge_deletion_check(eigenvalues(g), eigenvalues(delete_edge(g, e)))


def test_edge_deletion_check_k2_is_tight():
    check = _deletion_check(complete(2), (0, 1))
    assert check.lhs == pytest.approx(2.0, abs=1e-10)
    assert check.rhs == pytest.approx(2.0, abs=1e-10)
    assert check.holds


def test_edge_deletion_check_path3_end_edge():
    check = _deletion_check(path3(), (0, 1))
    assert check.lhs == pytest.approx(2 * math.sqrt(2), abs=1e-10)
    assert check.rhs == pytest.approx(4.0, abs=1e-10)
    assert check.holds


def test_edge_deletion_check_triangle():
    check = _deletion_check(complete(3), (0, 1))
    assert check.lhs == pytest.approx(4.0, abs=1e-10)
    assert check.rhs == pytest.approx(2.0 + 2 * math.sqrt(2), abs=1e-10)
    assert check.holds


def test_edge_deletion_check_fails_when_radius_grows():
    # E(K3) <= E(P3) + 2 still holds, but l1(G - e) > l1(G) must fail it
    whole = eigenvalues(complete(3))
    reduced = eigenvalues(path3())
    reduced[0] = whole[0] + 1e-6
    check = edge_deletion_check(whole, reduced)
    assert check.lhs <= check.rhs
    assert not check.holds


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=10**6),
)
@settings(deadline=None)
def test_edge_deletion_inequality_on_random_graphs(n, seed, pick):
    mmax = n * (n - 1) // 2
    g = random_graph(n, 1 + seed % mmax, seed)
    assert _deletion_check(g, g.edges()[pick % g.m]).holds


# ---------------------------------------------------------------------------
# closed forms and chains


def test_paley_energy_closed_values():
    # (p-1)(1+sqrt(p))/2, 40-digit reference evaluations
    assert paley_energy_closed(5) == pytest.approx(6.47213595499958, abs=1e-12)
    assert paley_energy_closed(13) == pytest.approx(27.633307652783937, abs=1e-12)
    assert paley_energy_closed(17) == pytest.approx(40.984845004941285, abs=1e-12)


def test_scalar_paley_closed_forms_build_no_block(monkeypatch):
    # a scalar call is Python-float arithmetic: no numpy array, no block of rows
    calls = ("paley_energy_closed", "paley_ratio_closed", "paley_ratio_lower")
    want = {name: getattr(bounds, name)(401) for name in calls}
    monkeypatch.setattr(bounds, "np", None)
    monkeypatch.setattr(bounds, "_paley_rows", None)
    for name in calls:
        got = getattr(bounds, name)(401)
        assert type(got) is float and got == want[name], name


def test_paley_energy_closed_matches_eigensolver():
    for p in (5, 13, 17, 29):
        assert paley_energy_closed(p) == pytest.approx(energy(paley(p)), abs=1e-8)


def test_paley_energy_exact_for_all_p_up_to_200(paley_spectra_200):
    import numpy as np

    for p, vals in paley_spectra_200.items():
        solver_energy = float(np.abs(vals).sum())
        assert abs(solver_energy - paley_energy_closed(p)) <= 1e-6, p


def test_paley_energy_exceeds_half_p_sqrt_p():
    for p in paley_primes(5, 2000):
        assert paley_energy_closed(p) > p**1.5 / 2.0


def test_paley_ratio_closed_values():
    # (1+sqrt(p))/(1+sqrt(p+1)), 40-digit reference evaluations
    assert paley_ratio_closed(13) == pytest.approx(0.9712956672724611, abs=1e-15)
    assert paley_ratio_closed(101) == pytest.approx(0.9955286909175869, abs=1e-15)


def test_paley_ratio_lower_chain():
    # sqrt(13)/(sqrt(13)+2), 40-digit reference evaluation
    assert paley_ratio_lower(13) == pytest.approx(0.6432108276746691, abs=1e-15)
    for p in paley_primes(5, 2000):
        assert paley_ratio_lower(p) < paley_ratio_closed(p) < 1.0


def test_ring_clique_energy_upper_values():
    assert ring_clique_energy_upper(3) == 30.0
    assert ring_clique_energy_upper(5) == 90.0
    assert ring_clique_energy_upper(10) == 380.0


def test_ring_clique_energy_closed_values():
    assert ring_clique_energy_closed(3) == pytest.approx(16.0, abs=1e-10)
    assert ring_clique_energy_closed(3) <= ring_clique_energy_upper(3)
    for q in range(3, 7):
        assert ring_clique_energy_closed(q) == pytest.approx(
            energy(ring_of_cliques(q)), abs=1e-7
        )


def test_ring_clique_ratio_upper_values():
    assert ring_clique_ratio_upper(3) == 3.0  # 30 / (5 * 2), uninformative small-q case
    # 992 / e0(256, 17), 40-digit reference evaluation
    tight = ring_clique_energy_upper(16) / e0(256, 17)
    assert tight == pytest.approx(0.95857193020505, abs=1e-12)
    # 39800 / (9899 sqrt(101)), 40-digit reference evaluation
    assert ring_clique_ratio_upper(100) == pytest.approx(0.40006546287865, abs=1e-12)


def test_ring_clique_ratio_upper_reads_numpy_integers_as_ints():
    # q * q on a raw np.int64 wraps past 2**63 (3_037_000_500) or loses
    # the value (5_000_000_000); both must give the Python int's answer.
    for q in (3, 100, 3_037_000_500, 5_000_000_000):
        assert ring_clique_ratio_upper(np.int64(q)) == ring_clique_ratio_upper(q), q


def test_ring_clique_tight_never_exceeds_crude():
    # Dividing by the exact e0 instead of its lower estimate gives a bound
    # no larger than the paper's.
    for q in range(3, 501):
        assert ring_clique_energy_upper(q) / e0(q * q, q + 1) <= ring_clique_ratio_upper(q)


def test_ring_clique_ratio_upper_checks_the_e0_estimate(monkeypatch):
    assert type(ring_clique_ratio_upper(4)) is float
    monkeypatch.setattr(bounds, "e0", lambda n, k: 0.0)
    with pytest.raises(ArithmeticError, match="^e0 fell below its lower estimate$"):
        ring_clique_ratio_upper(4)


# ---------------------------------------------------------------------------
# ratio tables


def test_ratio_table_paley_modes_agree():
    numeric = list(ratio_table("paley", [13], use_closed_form=False))[0]
    closed = list(ratio_table("paley", [13], use_closed_form=True))[0]
    assert numeric.ratio == pytest.approx(closed.ratio, abs=tol.CLOSED_SPECTRUM_TOL)
    assert numeric.energy == pytest.approx(closed.energy, abs=1e-6)
    assert (numeric.n, numeric.k, numeric.m) == (closed.n, closed.k, closed.m) == (13, 6, 39)


def test_ratio_table_modes_agree_across_families():
    # numeric mode replaces only the closed row's energy and ratio
    for family, params in (("paley", [5, 13, 17]), ("ring_of_cliques", [3, 4, 5])):
        closed_rows = list(ratio_table(family, params, use_closed_form=True))
        for numeric, closed in zip(ratio_table(family, params), closed_rows, strict=True):
            assert numeric.ratio == pytest.approx(closed.ratio, abs=tol.CLOSED_SPECTRUM_TOL)
            assert numeric.ratio == numeric.energy / numeric.e0
            assert numeric._replace(energy=closed.energy, ratio=closed.ratio) == closed


def test_ratio_table_ring_3_closed():
    row, = ratio_table("ring_of_cliques", [3], use_closed_form=True)
    assert row.energy == pytest.approx(16.0, abs=1e-10)
    assert row.ratio == pytest.approx(0.9610122934081686, abs=1e-10)
    assert (row.n, row.k, row.m) == (9, 4, 18)
    assert row.paper_bound == pytest.approx(3.0, abs=1e-12)


def test_ratio_table_row_fields_are_consistent():
    rows = list(ratio_table("paley", [5, 13, 17], use_closed_form=True))
    rows += list(ratio_table("ring_of_cliques", [3, 4, 5], use_closed_form=True))
    for row in rows:
        assert row.ratio == row.energy / row.e0
        assert 0.0 < row.ratio <= 1.0 + tol.BOUND_SLACK


def test_ratio_table_preserves_input_order():
    rows = ratio_table("paley", [17, 5, 13], use_closed_form=True)
    assert [row.param for row in rows] == [17, 5, 13]


def test_ratio_table_computes_nothing_before_its_first_row_is_read():
    # one block of rows, about 1.0 MiB; the whole domain below 2**31 holds about
    # 52M rows, about 19 GB as a list
    params = family_params("paley", 5, 2**31 - 1)
    tracemalloc.start()
    try:
        row = next(iter(ratio_table("paley", params, use_closed_form=True)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row == list(ratio_table("paley", [5], use_closed_form=True))[0]
    assert peak < 2 * 2**20


# consecutive Paley parameters beside 3329021, the last p whose e0 product
# k(p-1)(p-k) int64 holds (an e0 column taken in int64 goes wrong above it),
# and the last valid ones below 2**31
INT64_EDGE = [3328961, 3328993, 3329033, 3329041]
TOP = paley_primes(2147483000, 2**31 - 1)
BLOCKS = {
    "int64": INT64_EDGE[:2],
    "across-int64": INT64_EDGE,
    "above-int64": INT64_EDGE[2:],
    "top": TOP,
    "5-and-top": [5, *TOP],
}


@pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS)
def test_paley_block_rows_equal_the_scalar_closed_forms(block):
    for row, p in zip(list(ratio_table("paley", block, use_closed_form=True)), block, strict=True):
        k = (p - 1) // 2
        root = math.sqrt(p)
        # the public scalar functions, and the formulas they stand for, in Python floats
        assert row.energy == paley_energy_closed(p) == (p - 1) * (1.0 + root) / 2.0
        assert row.e0 == e0(p, k) == k + math.sqrt(k * (p - 1) * (p - k))
        assert row.closed_ratio == paley_ratio_closed(p) == (1.0 + root) / (1.0 + math.sqrt(p + 1))
        assert row.paper_bound == paley_ratio_lower(p) == root / (root + 2.0)
        assert row.ratio == row.energy / row.e0
        assert row[:5] == ("paley", p, p, k, p * k // 2)
        assert all(type(x) is int for x in row[1:5]) and all(type(x) is float for x in row[5:])


def test_paley_rows_carry_chain_bound():
    row, = ratio_table("paley", [13], use_closed_form=True)
    assert row.closed_ratio == pytest.approx(0.9712956672724611, abs=1e-12)
    assert row.paper_bound == pytest.approx(0.6432108276746691, abs=1e-12)
    assert row.ratio > row.paper_bound


# ---------------------------------------------------------------------------
# family parameters


@pytest.mark.parametrize("name", FAMILY_ENTRY_POINTS)
def test_family_parameter_must_be_integral(name):
    # an integral NumPy value reads as an int; the refusals of non-integral
    # ones are the rows of tests/test_api.py built from FAMILY_ENTRY_POINTS
    fn, good, _ = FAMILY_ENTRY_POINTS[name]
    assert fn(np.int64(good)) == fn(good)


# ---------------------------------------------------------------------------
# suites


def test_lemma_suite_passes():
    result = lemma_suite(trials=30, seed=42)
    assert result.ok
    assert result.passed == result.total == 30


def test_lemma_suite_solves_one_stack_per_chunk_with_the_same_results(monkeypatch):
    # the stacks per chunk are rows of tests/test_work.py
    real = bounds.edge_deletion_check

    def failing(whole, reduced):
        return real(whole, reduced)._replace(holds=False)

    # every trial fails, so each case line, trial number included, is compared
    monkeypatch.setattr(bounds, "edge_deletion_check", failing)
    one_chunk = lemma_suite(trials=200, seed=1)
    monkeypatch.setattr(spectral, "_TRIAL_CHUNK", 64)
    result = lemma_suite(trials=200, seed=1)
    # each line holds lhs and rhs in full, so equal lines mean equal energies
    assert result.failures == one_chunk.failures and len(result.failures) == 200


def test_lemma_suite_reads_trials_as_an_integer():
    assert lemma_suite(trials=np.int64(3), seed=1).total == 3
    assert lemma_suite(trials=3.0, seed=1).total == 3


def test_lemma_suite_is_deterministic():
    a = lemma_suite(trials=10, seed=7)
    b = lemma_suite(trials=10, seed=7)
    assert a.passed == b.passed and a.failures == b.failures
