"""Graph construction, edits, generators, and the edge-list format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import graphcore
from graphenergy.finitefield import is_prime
from graphenergy.graphcore import (
    Graph,
    check_dense_size,
    check_paley_parameter,
    complete,
    cycle,
    delete_edge,
    empty,
    family_corpus,
    family_params,
    format_edge_list,
    from_edge_list,
    paley,
    paley_primes,
    parse_edge_list,
    permute,
    random_graph,
    ring_of_cliques,
    splitmix64,
)
from test_api import DENSE_ROWS, check_refusal


def path3() -> Graph:
    return from_edge_list(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# builders


def test_empty():
    assert (empty(0).n, empty(0).m) == (0, 0)
    assert (empty(1).n, empty(1).m) == (1, 0)
    assert (empty(5).n, empty(5).m) == (5, 0)
    assert check_dense_size(4096) == 4096  # the dense-size limit admits its own size


def test_complete():
    assert complete(2).m == 1
    assert complete(3).m == 3
    k5 = complete(5)
    assert (k5.n, k5.m, k5.regularity()) == (5, 10, 4)


def test_cycle():
    assert cycle(3) == complete(3)
    assert (cycle(4).n, cycle(4).m) == (4, 4)
    assert (cycle(5).m, cycle(5).regularity()) == (5, 2)


def test_from_edge_list():
    g = path3()
    assert (g.n, g.m) == (3, 2)
    assert g.adjacency[0, 1] and g.adjacency[1, 2] and not g.adjacency[0, 2]
    # order of endpoints does not matter
    assert from_edge_list(3, [(1, 0), (2, 1)]) == g


def test_graph_constructor_validation():
    # a 0/1 matrix of any dtype; its refusals are rows of tests/test_api.py
    assert Graph([[0, 1], [1, 0]]).m == Graph([[0.0, 1.0], [1.0, 0.0]]).m == 1


def test_adjacency_is_read_only():
    g = complete(3)
    with pytest.raises(ValueError, match="^assignment destination is read-only$"):
        g.adjacency[0, 1] = False


# ---------------------------------------------------------------------------
# edits


def test_delete_edge():
    assert delete_edge(complete(2), (0, 1)) == empty(2)
    p = delete_edge(complete(3), (0, 1))
    assert p.m == 2 and not p.adjacency[0, 1]
    p4 = delete_edge(cycle(4), (0, 1))
    assert p4.m == 3


def test_edge_endpoints_must_be_integers_not_truncated():
    # integral endpoints of any numeric type; int() would also read (0.5, 1)
    # as the edge (0, 1) and "1" as the vertex 1, which are refused
    assert from_edge_list(3, [(np.int32(0), 1.0)]) == from_edge_list(3, [(0, 1)])
    assert delete_edge(cycle(5), (np.int64(1), 0)) == delete_edge(cycle(5), (0, 1))


def test_delete_edge_leaves_original_untouched():
    g = complete(3)
    delete_edge(g, (0, 1))
    assert g.m == 3 and g.adjacency[0, 1]


def test_delete_then_readd_restores():
    g = paley(13)
    e = g.edges()[7]
    reduced = delete_edge(g, e)
    restored = from_edge_list(g.n, reduced.edges() + [e])
    assert restored == g


def test_edges_are_plain_pairs_of_ints():
    assert path3().edges() == [(0, 1), (1, 2)]
    edges = paley(13).edges()
    assert len(edges) == 39 and edges == sorted(edges)
    assert all(type(e) is tuple and len(e) == 2 and e[0] < e[1] for e in edges)
    assert all(type(x) is int for e in edges for x in e)


def test_degree_sequence_and_regularity():
    assert complete(5).regularity() == 4
    assert path3().regularity() is None
    assert cycle(5).regularity() == 2
    assert empty(3).regularity() == 0
    assert empty(0).regularity() is None
    assert path3().adjacency.sum(axis=0).tolist() == [1, 2, 1]


def test_permute():
    assert permute(complete(3), [2, 0, 1]) == complete(3)
    rev = permute(path3(), [2, 1, 0])
    assert rev == path3()  # path is symmetric under reversal
    rot = permute(cycle(5), [1, 2, 3, 4, 0])
    assert rot == cycle(5)
    # integral entries of any numeric type
    assert permute(path3(), [np.int64(2), 1.0, 0]) == path3()


# ---------------------------------------------------------------------------
# family generators


def test_paley_5_is_the_5_cycle():
    g = paley(5)
    assert (g.n, g.m, g.regularity()) == (5, 5, 2)
    assert g == cycle(5)  # residues mod 5 are {1, 4}, i.e. +-1


def test_paley_13():
    g = paley(13)
    assert (g.n, g.m, g.regularity()) == (13, 39, 6)
    assert g.adjacency[0, 1] and g.adjacency[0, 3] and not g.adjacency[0, 2]


def test_paley_13_matches_brute_force_adjacency():
    squares = {x * x % 13 for x in range(1, 13)}  # oracle
    g = paley(13)
    for u in range(13):
        for v in range(13):
            assert g.adjacency[u, v] == ((u - v) % 13 in squares)


def test_paley_matches_euler_criterion_for_all_p_up_to_200():
    # Oracle: d != 0 is a square mod p iff d**((p-1)/2) == 1 (mod p).
    valid = [p for p in range(5, 201) if p % 4 == 1 and all(p % f for f in range(2, p))]
    assert len(valid) == 21
    for p in valid:
        square = [d != 0 and pow(d, (p - 1) // 2, p) == 1 for d in range(p)]
        expected = [[square[(u - v) % p] for v in range(p)] for u in range(p)]
        assert np.array_equal(paley(p).adjacency, expected), p


def test_paley_17():
    g = paley(17)
    assert (g.regularity(), g.m) == (8, 68)


def test_counts_are_read_as_integers_not_truncated():
    # integral values of any numeric type are read as ints
    assert empty(2.0) == empty(2)
    assert complete(3.0) == complete(3)
    assert cycle(np.int64(5)) == cycle(5)
    assert from_edge_list(3.0, [(0, 1)]) == from_edge_list(3, [(0, 1)])
    assert random_graph(np.int64(6), np.int64(3), 7) == random_graph(6, 3, 7)
    assert random_graph(6.0, 3.0, 7) == random_graph(6, 3, 7)


def test_paley_translation_invariance():
    for p in (5, 13, 17):
        g = paley(p)
        shift = [(x + 1) % p for x in range(p)]
        assert permute(g, shift) == g


def test_paley_memory_is_two_boolean_matrices():
    p = 1009
    tracemalloc.start()
    try:
        g = paley(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == p * (p - 1) // 4
    # Graph's copy and its symmetry check; a p x p int64 difference table
    # alone would take 8 p^2 bytes.
    assert peak <= 4 * p * p


@pytest.mark.parametrize("call, exc, message", DENSE_ROWS)
def test_builders_refuse_graphs_above_the_dense_size_limit(call, exc, message):
    check_refusal(call, exc, message)


def test_family_params_states_each_sweep_rule():
    assert list(family_params("paley", 0, 30)) == paley_primes(0, 30) == [5, 13, 17, 29]
    assert family_params("ring_of_cliques", 0, 5) == range(3, 6)
    assert family_params("ring_of_cliques", 7, 6) == range(7, 7)


@pytest.mark.parametrize("family", ["paley", "ring_of_cliques"])
def test_family_params_reads_both_bounds_through_the_integer_rule(family):
    assert list(family_params(family, 3.0, np.int64(30))) == list(family_params(family, 3, 30))


def test_family_corpus_refuses_a_family_it_has_no_sizes_for(monkeypatch):
    monkeypatch.setitem(graphcore.FAMILIES, "star", complete)
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is shorter than argument 1$"):
        list(family_corpus(5, 3, (), ()))


def test_family_corpus_yields_family_param_and_graph_in_family_order():
    corpus = list(family_corpus(13, 4, (2,), (3,), (1,)))
    assert [(family, param) for family, param, _ in corpus] == [
        ("paley", 5),
        ("paley", 13),
        ("ring_of_cliques", 3),
        ("ring_of_cliques", 4),
        ("complete", 2),
        ("cycle", 3),
        ("empty", 1),
    ]
    # each family's name is its builder's
    assert all(g == getattr(graphcore, family)(param) for family, param, g in corpus)
    # integral float bounds give the same corpus
    assert list(family_corpus(13.0, 4.0, (2,), (3,), (1,))) == corpus


def test_paley_primes():
    assert paley_primes(5, 20) == [5, 13, 17]
    assert paley_primes(14, 16) == []
    assert paley_primes(0, 13) == [5, 13]
    assert paley_primes(5.0, np.int64(20)) == [5, 13, 17]


def test_paley_primes_stop_below_field_cap():
    primes = paley_primes(2**31 - 1000, 2**31 + 1000)
    assert primes and max(primes) < 2**31
    assert all(check_paley_parameter(p) == p for p in primes)
    assert paley_primes(2**31, 2**31 + 1000) == []


def paley_primes_by_test(lo, hi):
    """The definition of paley_primes, one primality test per candidate."""
    return [p for p in range(max(lo, 5), min(hi, 2**31 - 1) + 1) if p % 4 == 1 and is_prime(p)]


SEGMENT = graphcore._SIEVE_SEGMENT
# Sieve segments start at the window's own start, so a window [lo, hi] has
# its seams at lo + k * SEGMENT. Each site below picks the Paley prime
# nearest to it, and the test places that prime on either side of a seam.
BOUNDARIES = [SEGMENT, 2 * SEGMENT, 3 * SEGMENT, 2**20, 2**31 - SEGMENT, 2**31]


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_paley_primes_is_exact_across_segment_boundaries(boundary):
    if boundary < 2**31:
        p = paley_primes_by_test(boundary, boundary + 1000)[0]
    else:
        p = paley_primes_by_test(boundary - 1000, boundary)[-1]
    expected = paley_primes_by_test(p - SEGMENT, p + 400)
    # p on the last flag of the first segment, then on the first flag of
    # the second. Every window but (p - SEGMENT + 1, p) crosses a seam.
    for lo in (p - SEGMENT + 1, p - SEGMENT):
        assert lo >= 5
        for hi in (p, p + 1, p + 400):
            want = [q for q in expected if lo <= q <= hi]
            assert p in want
            assert paley_primes(lo, hi) == want, (lo, hi)


def test_paley_primes_is_exact_across_many_small_segments(monkeypatch):
    monkeypatch.setattr(graphcore, "_SIEVE_SEGMENT", 16)
    for lo in range(0, 80):
        for hi in range(lo - 1, lo + 120, 7):
            assert paley_primes(lo, hi) == paley_primes_by_test(lo, hi), (lo, hi)


def test_paley_primes_sieves_only_its_window():
    tracemalloc.start()
    try:
        primes = paley_primes(5, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert primes == paley_primes_by_test(5, 100)
    # 96 flags, not a whole segment of SEGMENT flags
    assert peak < 16 * 1024


def test_paley_primes_is_exact_on_edge_windows():
    for lo, hi in [(20, 10), (13, 5), (-50, 60), (0, 4), (4, 5),
                   (13, 13), (29, 29), (21, 21), (25, 25), (15, 15),
                   (2**31 - 20000, 2**31 + 5), (5, 10**5)]:
        assert paley_primes(lo, hi) == paley_primes_by_test(lo, hi), (lo, hi)
    assert all(type(p) is int for p in paley_primes(5, 100))


def test_ring_of_cliques_small():
    g = ring_of_cliques(3)
    assert (g.n, g.m, g.regularity()) == (9, 18, 4)
    g4 = ring_of_cliques(4)
    assert (g4.n, g4.m, g4.regularity()) == (16, 40, 5)


def test_ring_of_cliques_structure():
    g = ring_of_cliques(3)
    # vertex 0 sits in copy 0: clique partners 1, 2; ring partners 3 and 6
    assert sorted(v for v in range(9) if g.adjacency[0, v]) == [1, 2, 3, 6]
    # copies are cliques
    for i in range(3):
        base = 3 * i
        for a in range(3):
            for b in range(a + 1, 3):
                assert g.adjacency[base + a, base + b]


def test_ring_of_cliques_regularity_sweep():
    for q in range(3, 9):
        g = ring_of_cliques(q)
        assert g.n == q * q
        assert g.m == q * q * (q + 1) // 2
        assert g.regularity() == q + 1


# ---------------------------------------------------------------------------
# seeded randomness


def test_splitmix64_reference_vector():
    stream = splitmix64(0)
    assert [next(stream) for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_reads_numpy_seeds_and_refuses_non_integral_ones():
    def head(seed):
        stream = splitmix64(seed)
        return [next(stream) for _ in range(3)]

    for seed in (np.int64(5), np.uint64(5), 5.0):
        assert head(seed) == head(5)
    assert head(np.uint64(2**64 - 1)) == head(2**64 - 1)
    assert random_graph(6, 3, np.int64(7)) == random_graph(6, 3, 7)


def test_random_graph_determinism():
    a = random_graph(6, 7, seed=42)
    b = random_graph(6, 7, seed=42)
    assert a == b and a.edges() == b.edges()
    c = random_graph(6, 7, seed=43)
    assert a != c  # overwhelmingly likely for a healthy generator


def test_random_graph_forced_cases():
    assert random_graph(5, 10, seed=99) == complete(5)
    assert random_graph(4, 0, seed=0) == empty(4)
    assert random_graph(0, 0, seed=0) == empty(0)


def test_random_graph_edge_count_and_bounds():
    for seed in range(5):
        g = random_graph(8, 11, seed=seed)
        assert (g.n, g.m) == (8, 11)


def random_graph_from_pair_list(n, m, seed):
    """The list form of random_graph's sampling: every pair materialised."""
    universe = n * (n - 1) // 2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    stream = splitmix64(seed)
    for i in range(m):
        j = i + next(stream) % (universe - i)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return from_edge_list(n, pairs[:m])


def test_random_graph_matches_the_pair_list_shuffle():
    for n in range(13):
        for m in range(n * (n - 1) // 2 + 1):
            for seed in (0, 1, 12345, 2**64 - 1):
                assert random_graph(n, m, seed) == random_graph_from_pair_list(n, m, seed), (n, m, seed)


def test_random_graph_memory_is_bounded_by_the_dense_matrix():
    n = 4096
    tracemalloc.start()
    try:
        g = random_graph(n, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 1
    # The boolean matrix and Graph's copy and symmetry check; a list of all
    # n(n-1)/2 pairs as tuples would take about 45 n^2 bytes.
    assert peak <= 4 * n * n


# ---------------------------------------------------------------------------
# edge-list text format


def test_format_edge_list_exact():
    assert format_edge_list(path3()) == "3 2\n0 1\n1 2\n"
    assert format_edge_list(empty(2)) == "2 0\n"


def test_format_edge_list_matches_per_edge_rendering():
    relabel = [(5 * x + 3) % 16 for x in range(16)]
    for g in (empty(0), empty(1), complete(5), paley(13), permute(ring_of_cliques(4), relabel)):
        lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]
        assert format_edge_list(g) == "\n".join(lines) + "\n"


def test_format_edge_list_memory_is_a_small_multiple_of_the_text():
    g = paley(1009)
    tracemalloc.start()
    try:
        text = format_edge_list(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("\n") == g.m + 1
    # the text, its parts before the join and one block's index pairs and
    # Python ints; the whole graph's pairs as Python ints take about 13 times
    # the text
    assert peak <= 3 * len(text)


def test_parse_edge_list_roundtrip():
    for g in (empty(0), empty(4), complete(5), cycle(6), paley(13), ring_of_cliques(3)):
        assert parse_edge_list(format_edge_list(g)) == g


def test_parse_edge_list_comments_and_blanks():
    text = "# a comment\n\n3 2\n0 1\n# another\n1 2\n"
    assert parse_edge_list(text) == path3()


def test_write_read_files(tmp_path):
    from graphenergy.graphcore import read_edge_list, write_edge_list

    path = tmp_path / "g.txt"
    g = ring_of_cliques(4)
    write_edge_list(g, path)
    assert read_edge_list(path) == g
    assert path.read_text().startswith("16 40\n")


# ---------------------------------------------------------------------------
# properties


@st.composite
def graphs(draw, min_n=0):
    """Seeded random graphs on min_n..10 vertices, with any number of edges."""
    n = draw(st.integers(min_value=min_n, max_value=10))
    mmax = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=mmax))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return random_graph(n, m, seed)


@given(graphs())
@settings(deadline=None)
def test_roundtrip_through_text(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(graphs(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_permute_preserves_degree_multiset(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabeled = permute(g, perm)
    assert sorted(relabeled.adjacency.sum(axis=0)) == sorted(g.adjacency.sum(axis=0))
    assert (relabeled.n, relabeled.m) == (g.n, g.m)


@given(graphs(), st.integers(min_value=0, max_value=10**6))
@settings(deadline=None)
def test_delete_readd_identity(g, pick):
    if g.m == 0:
        return
    e = g.edges()[pick % g.m]
    assert from_edge_list(g.n, delete_edge(g, e).edges() + [e]) == g


# Pieces of the edge-list format, well-formed and not, for token-soup input.
EDGE_LIST_SOUP = st.sampled_from(
    ["0", "1", "2", "3", "-1", "4097", "9" * 30, "9" * 5000, "+3", "1_0", "\u0663", "1.5",
     "0x1", "x", "#", " ", "\t", "\n", "\r\n", "\x00", "\u2028"]
)


@given(st.text() | st.lists(EDGE_LIST_SOUP, max_size=40).map("".join))
@settings(deadline=None)
def test_parse_edge_list_raises_nothing_but_value_error(text):
    try:
        parse_edge_list(text)
    except ValueError:
        pass
