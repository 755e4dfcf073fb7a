"""Bound evaluation, closed forms, chain inequalities, and ratio tables."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import bounds, spectral
from graphenergy import tolerances as tol
from graphenergy.bounds import (
    e0,
    lemma_suite,
    paley_energy_closed,
    paley_ratio_closed,
    paley_ratio_lower,
    ratio_table,
    ring_clique_energy_upper,
    ring_clique_ratio_upper,
)
from graphenergy.graphcore import family_params, paley_primes, random_graph

from test_api import FAMILY_ENTRY_POINTS
from test_values import deletion_check


# ---------------------------------------------------------------------------
# edge-deletion inequality


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=10**6),
)
@settings(deadline=None)
def test_edge_deletion_inequality_on_random_graphs(n, seed, pick):
    mmax = n * (n - 1) // 2
    g = random_graph(n, 1 + seed % mmax, seed)
    assert deletion_check(g, g.edges()[pick % g.m]).holds


# ---------------------------------------------------------------------------
# closed forms and chains


def test_scalar_paley_closed_forms_build_no_block(monkeypatch):
    # a scalar call is Python-float arithmetic: no numpy array, no block of rows
    calls = ("paley_energy_closed", "paley_ratio_closed", "paley_ratio_lower")
    want = {name: getattr(bounds, name)(401) for name in calls}
    monkeypatch.setattr(bounds, "np", None)
    monkeypatch.setattr(bounds, "_paley_rows", None)
    for name in calls:
        got = getattr(bounds, name)(401)
        assert type(got) is float and got == want[name], name


def test_paley_energy_exact_for_all_p_up_to_200(paley_spectra_200):
    for p, vals in paley_spectra_200.items():
        solver_energy = float(np.abs(vals).sum())
        assert abs(solver_energy - paley_energy_closed(p)) <= 1e-6, p


def test_paley_energy_exceeds_half_p_sqrt_p():
    for p in paley_primes(5, 2000):
        assert paley_energy_closed(p) > p**1.5 / 2.0


def test_paley_ratio_lower_chain():
    for p in paley_primes(5, 2000):
        assert paley_ratio_lower(p) < paley_ratio_closed(p) < 1.0


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
    monkeypatch.setattr(bounds, "_e0", lambda n, k: 0.0)
    with pytest.raises(ArithmeticError, match="^e0 fell below its lower estimate$"):
        ring_clique_ratio_upper(4)


def test_paley_closed_forms_check_their_proof_chain(monkeypatch):
    # with a square root of 0, the energy (p-1)/2 falls below p^(3/2)/2 and
    # the ratio 1/1 reaches 1, the top of its bracket
    monkeypatch.setattr(bounds, "math", types.SimpleNamespace(sqrt=lambda x: 0.0))
    with pytest.raises(ArithmeticError, match=r"^closed-form energy fell below p\^\(3/2\)/2$"):
        paley_energy_closed(13)
    with pytest.raises(ArithmeticError, match="^ratio left its proven bracket$"):
        paley_ratio_closed(13)


# ---------------------------------------------------------------------------
# ratio tables


def test_ratio_table_modes_agree_across_families():
    # numeric mode replaces only the closed row's energy and ratio
    for family, params in (("paley", [5, 13, 17]), ("ring_of_cliques", [3, 4, 5])):
        closed_rows = list(ratio_table(family, params, use_closed_form=True))
        for numeric, closed in zip(ratio_table(family, params), closed_rows, strict=True):
            assert numeric.ratio == pytest.approx(closed.ratio, abs=tol.CLOSED_SPECTRUM_TOL)
            assert numeric.ratio == numeric.energy / numeric.e0
            assert numeric._replace(energy=closed.energy, ratio=closed.ratio) == closed


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
