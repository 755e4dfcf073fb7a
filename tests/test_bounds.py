"""Bound evaluation, closed forms, chain inequalities, and ratio tables."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import bounds, spectral
from graphenergy import tolerances as tol
from graphenergy.bounds import (
    bounds_suite,
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
    from_edge_list,
    paley,
    paley_primes,
    random_graph,
    ring_of_cliques,
)
from graphenergy.spectral import energy, paley_spectrum_closed, ring_clique_spectrum_closed


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


def test_e0_rejections():
    with pytest.raises(ValueError):
        e0(0, 0)
    with pytest.raises(ValueError):
        e0(5, 5)
    with pytest.raises(ValueError):
        e0(5, -1)


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


def test_edge_deletion_check_k2_is_tight():
    check = edge_deletion_check(complete(2), (0, 1))
    assert check.lhs == pytest.approx(2.0, abs=1e-10)
    assert check.rhs == pytest.approx(2.0, abs=1e-10)
    assert check.holds


def test_edge_deletion_check_path3_end_edge():
    check = edge_deletion_check(path3(), (0, 1))
    assert check.lhs == pytest.approx(2 * math.sqrt(2), abs=1e-10)
    assert check.rhs == pytest.approx(4.0, abs=1e-10)
    assert check.holds


def test_edge_deletion_check_triangle():
    check = edge_deletion_check(complete(3), (0, 1))
    assert check.lhs == pytest.approx(4.0, abs=1e-10)
    assert check.rhs == pytest.approx(2.0 + 2 * math.sqrt(2), abs=1e-10)
    assert check.holds


def test_edge_deletion_check_fails_when_radius_grows(monkeypatch):
    # E(K3) <= E(P3) + 2 still holds, but l1(G - e) > l1(G) must fail it
    real = spectral.eigenvalues

    def radius_grows(g):
        vals = real(g)
        if g.m == 2:
            vals[0] = real(complete(3))[0] + 1e-6
        return vals

    monkeypatch.setattr("graphenergy.spectral.eigenvalues", radius_grows)
    check = edge_deletion_check(complete(3), (0, 1))
    assert check.lhs <= check.rhs
    assert not check.holds


def test_edge_deletion_check_rejects_absent_edge():
    with pytest.raises(ValueError, match="not in the graph"):
        edge_deletion_check(path3(), (0, 2))


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=10**6),
)
@settings(deadline=None)
def test_edge_deletion_inequality_on_random_graphs(n, seed, pick):
    mmax = n * (n - 1) // 2
    g = random_graph(n, 1 + seed % mmax, seed)
    check = edge_deletion_check(g, g.edges()[pick % g.m])
    assert check.holds


# ---------------------------------------------------------------------------
# closed forms and chains


def test_paley_energy_closed_values():
    # (p-1)(1+sqrt(p))/2, 40-digit reference evaluations
    assert paley_energy_closed(5) == pytest.approx(6.47213595499958, abs=1e-12)
    assert paley_energy_closed(13) == pytest.approx(27.633307652783937, abs=1e-12)
    assert paley_energy_closed(17) == pytest.approx(40.984845004941285, abs=1e-12)
    with pytest.raises(ValueError):
        paley_energy_closed(12)


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
    with pytest.raises(ValueError):
        paley_ratio_closed(9)


def test_paley_ratio_lower_chain():
    # sqrt(13)/(sqrt(13)+2), 40-digit reference evaluation
    assert paley_ratio_lower(13) == pytest.approx(0.6432108276746691, abs=1e-15)
    for p in paley_primes(5, 2000):
        assert paley_ratio_lower(p) < paley_ratio_closed(p) < 1.0


def test_ring_clique_energy_upper_values():
    assert ring_clique_energy_upper(3) == 30.0
    assert ring_clique_energy_upper(5) == 90.0
    assert ring_clique_energy_upper(10) == 380.0
    with pytest.raises(ValueError):
        ring_clique_energy_upper(2)


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
    with pytest.raises(ValueError):
        ring_clique_ratio_upper(1)


def test_ring_clique_tight_never_exceeds_crude():
    # Dividing by the exact e0 instead of its lower estimate gives a bound
    # no larger than the paper's.
    for q in range(3, 501):
        assert ring_clique_energy_upper(q) / e0(q * q, q + 1) <= ring_clique_ratio_upper(q)


def test_ring_clique_ratio_upper_checks_the_e0_estimate(monkeypatch):
    assert type(ring_clique_ratio_upper(4)) is float
    monkeypatch.setattr(bounds, "e0", lambda n, k: 0.0)
    with pytest.raises(ArithmeticError, match="lower estimate"):
        ring_clique_ratio_upper(4)


# ---------------------------------------------------------------------------
# ratio tables


def test_ratio_table_paley_modes_agree():
    numeric = ratio_table("paley", [13], use_closed_form=False)[0]
    closed = ratio_table("paley", [13], use_closed_form=True)[0]
    assert numeric.ratio == pytest.approx(closed.ratio, abs=tol.MODE_AGREEMENT_TOL)
    assert numeric.energy == pytest.approx(closed.energy, abs=1e-6)
    assert (numeric.n, numeric.k, numeric.m) == (closed.n, closed.k, closed.m) == (13, 6, 39)


def test_ratio_table_modes_agree_across_families():
    # numeric mode replaces only the closed row's energy and ratio
    for family, params in (("paley", [5, 13, 17]), ("ring_of_cliques", [3, 4, 5])):
        closed_rows = ratio_table(family, params, use_closed_form=True)
        for numeric, closed in zip(ratio_table(family, params), closed_rows, strict=True):
            assert numeric.ratio == pytest.approx(closed.ratio, abs=tol.MODE_AGREEMENT_TOL)
            assert numeric.ratio == numeric.energy / numeric.e0
            assert dataclasses.replace(numeric, energy=closed.energy, ratio=closed.ratio) == closed


def test_ratio_table_ring_3_closed():
    row, = ratio_table("ring_of_cliques", [3], use_closed_form=True)
    assert row.energy == pytest.approx(16.0, abs=1e-10)
    assert row.ratio == pytest.approx(0.9610122934081686, abs=1e-10)
    assert (row.n, row.k, row.m) == (9, 4, 18)
    assert row.paper_bound == pytest.approx(3.0, abs=1e-12)


def test_ratio_table_row_fields_are_consistent():
    rows = ratio_table("paley", [5, 13, 17], use_closed_form=True)
    rows += ratio_table("ring_of_cliques", [3, 4, 5], use_closed_form=True)
    for row in rows:
        assert row.ratio == pytest.approx(row.energy / row.e0, abs=tol.RATIO_FIELD_TOL)
        assert 0.0 < row.ratio <= 1.0 + tol.BOUND_SLACK


def test_ratio_table_preserves_input_order():
    rows = ratio_table("paley", [17, 5, 13], use_closed_form=True)
    assert [row.param for row in rows] == [17, 5, 13]


def test_ratio_table_names_offending_param():
    with pytest.raises(ValueError, match="12"):
        ratio_table("paley", [13, 12])
    with pytest.raises(ValueError, match="2"):
        ratio_table("ring_of_cliques", [3, 2])
    with pytest.raises(ValueError, match="family"):
        ratio_table("nonsense", [3])


def test_ratio_table_numeric_checks_every_size_before_the_first_solve(solve_counter):
    with pytest.raises(ValueError, match="paley parameter 4129: .* dense-size limit"):
        ratio_table("paley", [13, 17, 4129])
    with pytest.raises(ValueError, match="ring_of_cliques parameter 65: .* dense-size limit"):
        ratio_table("ring_of_cliques", iter([3, 65]))
    with pytest.raises(ValueError, match="paley parameter 12: .* prime"):
        ratio_table("paley", [13, 12])
    # each row is checked as it is computed: the first bad parameter is named
    with pytest.raises(ValueError, match="ring_of_cliques parameter 65: .* dense-size limit"):
        ratio_table("ring_of_cliques", [65, 2])
    with pytest.raises(ValueError, match="ring_of_cliques parameter 2: .* q >= 3"):
        ratio_table("ring_of_cliques", [2, 65])
    assert solve_counter == []
    # closed mode builds no graph, so it has no size limit
    assert ratio_table("ring_of_cliques", [65], use_closed_form=True)[0].n == 4225


def test_ratio_table_numeric_stops_at_the_first_oversized_row(solve_counter, monkeypatch):
    calls = []
    closed = bounds.ring_clique_energy_closed

    def counting_closed(q):
        calls.append(q)
        return closed(q)

    monkeypatch.setattr(bounds, "ring_clique_energy_closed", counting_closed)
    with pytest.raises(ValueError, match="ring_of_cliques parameter 65: .* dense-size limit"):
        ratio_table("ring_of_cliques", range(3, 1001))
    assert calls == list(range(3, 66))
    assert solve_counter == []


def test_paley_ratio_row_checks_its_prime_once(monkeypatch):
    # paley_energy_closed checks it; the row's ratio and bound reuse the value
    calls = []
    check = bounds.check_paley_parameter

    def counting_check(p):
        calls.append(p)
        return check(p)

    monkeypatch.setattr(bounds, "check_paley_parameter", counting_check)
    ratio_table("paley", [13, 17], use_closed_form=True)
    assert calls == [13, 17]
    # numeric mode checks through the same closed rows, with no pre-check of its own
    calls.clear()
    ratio_table("paley", [13, 17])
    assert calls == [13, 17]


def test_paley_rows_carry_chain_bound():
    row, = ratio_table("paley", [13], use_closed_form=True)
    assert row.closed_ratio == pytest.approx(0.9712956672724611, abs=1e-12)
    assert row.paper_bound == pytest.approx(0.6432108276746691, abs=1e-12)
    assert row.ratio > row.paper_bound


# ---------------------------------------------------------------------------
# family parameters

FAMILY_ENTRY_POINTS = {
    "paley": (paley, 13),
    "paley_spectrum_closed": (lambda p: paley_spectrum_closed(p).tolist(), 13),
    "paley_energy_closed": (paley_energy_closed, 13),
    "ratio_table paley": (lambda p: ratio_table("paley", [p]), 13),
    "ring_of_cliques": (ring_of_cliques, 3),
    "ring_clique_spectrum_closed": (lambda q: ring_clique_spectrum_closed(q).tolist(), 3),
    "ring_clique_energy_closed": (ring_clique_energy_closed, 3),
    "ring_clique_energy_upper": (ring_clique_energy_upper, 3),
    "ratio_table ring_of_cliques": (lambda q: ratio_table("ring_of_cliques", [q]), 3),
}


@pytest.mark.parametrize("name", FAMILY_ENTRY_POINTS)
def test_family_parameter_must_be_integral(name):
    fn, good = FAMILY_ENTRY_POINTS[name]
    for bad in (good + 0.5, good + 0.9, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            fn(bad)
    assert fn(np.int64(good)) == fn(good)


def test_ring_entry_points_share_one_message():
    for fn in (ring_of_cliques, ring_clique_spectrum_closed, ring_clique_energy_upper):
        with pytest.raises(ValueError) as info:
            fn(2)
        assert str(info.value) == "ring of cliques needs q >= 3, got 2"


# ---------------------------------------------------------------------------
# suites


def test_lemma_suite_passes():
    result = lemma_suite(trials=30, seed=42)
    assert result.ok
    assert result.passed == result.total == 30


def test_lemma_suite_solves_two_spectra_per_trial(monkeypatch):
    calls = []
    real = spectral.jacobi_eigenvalues

    def counting_solve(matrix, **kwargs):
        calls.append(len(matrix))
        return real(matrix, **kwargs)

    monkeypatch.setattr("graphenergy.spectral.jacobi_eigenvalues", counting_solve)
    assert lemma_suite(trials=25, seed=3).ok
    assert len(calls) == 50


def test_suites_on_one_dict_solve_each_family_graph_once(solve_counter):
    spectra = {}
    assert spectral.closed_forms_suite(spectra).ok
    assert len(solve_counter) == 31
    # bounds adds K_1..K_50 and C_3..C_50 to the 31 graphs closed-forms solved
    assert bounds_suite(spectra).total == 129
    assert len(solve_counter) == 31 + 98
    assert len(spectra) == 129
    assert not any(vals.flags.writeable for vals in spectra.values())


def test_suites_with_a_fresh_dict_solve_every_graph(solve_counter):
    assert spectral.closed_forms_suite({}).ok
    assert len(solve_counter) == 31
    assert bounds_suite({}).ok
    assert len(solve_counter) == 31 + 129
    assert spectral.trace_suite(trials=5, seed=2, spectra={}).ok
    assert len(solve_counter) == 31 + 129 + 32 + 5


def test_lemma_suite_rejects_bad_trials():
    with pytest.raises(ValueError):
        lemma_suite(trials=0, seed=0)


def test_lemma_suite_is_deterministic():
    a = lemma_suite(trials=10, seed=7)
    b = lemma_suite(trials=10, seed=7)
    assert a.passed == b.passed and a.failures == b.failures
