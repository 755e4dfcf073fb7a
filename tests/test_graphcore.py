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


def path3() -> Graph:
    return from_edge_list(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# builders


def test_empty():
    assert (empty(0).n, empty(0).m) == (0, 0)
    assert (empty(1).n, empty(1).m) == (1, 0)
    assert (empty(5).n, empty(5).m) == (5, 0)
    with pytest.raises(ValueError):
        empty(-1)


def test_complete():
    assert complete(2).m == 1
    assert complete(3).m == 3
    k5 = complete(5)
    assert (k5.n, k5.m, k5.regularity()) == (5, 10, 4)
    with pytest.raises(ValueError):
        complete(0)


def test_cycle():
    assert cycle(3) == complete(3)
    assert (cycle(4).n, cycle(4).m) == (4, 4)
    assert (cycle(5).m, cycle(5).regularity()) == (5, 2)
    with pytest.raises(ValueError):
        cycle(2)


def test_from_edge_list():
    g = path3()
    assert (g.n, g.m) == (3, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    # order of endpoints does not matter
    assert from_edge_list(3, [(1, 0), (2, 1)]) == g


def test_from_edge_list_distinct_errors():
    with pytest.raises(ValueError, match="loop"):
        from_edge_list(2, [(0, 0)])
    with pytest.raises(ValueError, match="outside"):
        from_edge_list(2, [(0, 5)])
    with pytest.raises(ValueError, match="duplicate"):
        from_edge_list(3, [(0, 1), (1, 0)])
    # checked in this order: loop, then range, then duplicate
    with pytest.raises(ValueError, match="loop"):
        from_edge_list(2, [(5, 5)])
    with pytest.raises(ValueError, match="outside"):
        from_edge_list(2, [(0, 5), (0, 5)])
    with pytest.raises(ValueError, match="duplicate"):
        from_edge_list(3, [(0, 2), (1, 2), (2, 0)])


def test_graph_constructor_validation():
    with pytest.raises(ValueError, match="square"):
        Graph(np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="loops"):
        Graph(np.eye(3, dtype=bool))
    bad = np.zeros((2, 2), dtype=bool)
    bad[0, 1] = True
    with pytest.raises(ValueError, match="symmetric"):
        Graph(bad)
    # Only 0 and 1 are edges or non-edges; any other entry is rejected
    # instead of being cast to True.
    for entry in (np.nan, 2, 0.5):
        with pytest.raises(ValueError, match="0 or 1"):
            Graph([[0, entry], [entry, 0]])
    assert Graph([[0, 1], [1, 0]]).m == Graph([[0.0, 1.0], [1.0, 0.0]]).m == 1


def test_adjacency_is_read_only():
    g = complete(3)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = False


# ---------------------------------------------------------------------------
# edits


def test_delete_edge():
    assert delete_edge(complete(2), (0, 1)) == empty(2)
    p = delete_edge(complete(3), (0, 1))
    assert p.m == 2 and not p.has_edge(0, 1)
    p4 = delete_edge(cycle(4), (0, 1))
    assert p4.m == 3
    with pytest.raises(ValueError, match="not in the graph"):
        delete_edge(path3(), (0, 2))


def test_endpoints_outside_the_graph_are_refused_not_wrapped():
    # Negative indices would otherwise count from the end of the matrix.
    with pytest.raises(ValueError, match=r"edge \(-1, 3\) has an endpoint outside 0\.\.4"):
        delete_edge(cycle(5), (-1, 3))
    with pytest.raises(ValueError, match=r"edge \(-5, -4\) has an endpoint outside 0\.\.4"):
        delete_edge(cycle(5), (-5, -4))
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) has an endpoint outside 0\.\.4"):
        cycle(5).has_edge(-1, 0)
    with pytest.raises(ValueError, match="outside 0..4"):
        cycle(5).has_edge(0, 5)


def test_edge_endpoints_must_be_integers_not_truncated():
    # int() would read (0.5, 1) as the edge (0, 1) and "1" as the vertex 1
    with pytest.raises(ValueError, match="edge endpoint must be an integer, got 0.5"):
        delete_edge(cycle(5), (0.5, 1))
    with pytest.raises(ValueError, match="edge endpoint must be an integer, got 0.7"):
        from_edge_list(3, [(0.7, 1.2), ("1", "2")])
    with pytest.raises(ValueError, match="edge endpoint must be an integer, got 1"):
        from_edge_list(3, [("1", "2")])
    with pytest.raises(ValueError, match="edge endpoint must be an integer, got 0.5"):
        cycle(5).has_edge(0.5, 1)
    assert cycle(5).has_edge(np.int64(0), np.uint8(1)) and cycle(5).has_edge(0.0, 4)
    assert from_edge_list(3, [(np.int32(0), 1.0)]) == from_edge_list(3, [(0, 1)])
    assert delete_edge(cycle(5), (np.int64(1), 0)) == delete_edge(cycle(5), (0, 1))


def test_delete_edge_leaves_original_untouched():
    g = complete(3)
    delete_edge(g, (0, 1))
    assert g.m == 3 and g.has_edge(0, 1)


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
    with pytest.raises(ValueError, match="permutation"):
        permute(path3(), [0, 0, 2])


# ---------------------------------------------------------------------------
# family generators


def test_paley_5_is_the_5_cycle():
    g = paley(5)
    assert (g.n, g.m, g.regularity()) == (5, 5, 2)
    assert g == cycle(5)  # residues mod 5 are {1, 4}, i.e. +-1


def test_paley_13():
    g = paley(13)
    assert (g.n, g.m, g.regularity()) == (13, 39, 6)
    assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(0, 2)


def test_paley_13_matches_brute_force_adjacency():
    squares = {x * x % 13 for x in range(1, 13)}  # oracle
    g = paley(13)
    for u in range(13):
        for v in range(13):
            assert g.has_edge(u, v) == ((u - v) % 13 in squares)


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


def test_paley_rejects_large_mersenne_prime_by_size():
    # 2**89 - 1 is prime; the size limit is what rules it out.
    with pytest.raises(ValueError, match="below 2\\*\\*31"):
        paley(2**89 - 1)


def test_paley_parameter_rejections():
    with pytest.raises(ValueError, match="prime"):
        paley(12)
    with pytest.raises(ValueError, match="1 mod 4"):
        paley(7)
    with pytest.raises(ValueError, match="1 mod 4"):
        paley(3)
    with pytest.raises(ValueError, match="prime"):
        paley(1)


# Each of these exceeds MAX_DENSE_N = 4096 vertices and is refused before
# its builder allocates; 4129 is the least valid Paley prime above 4096.
OVERSIZED = {
    "empty": lambda: empty(4097),
    "complete": lambda: complete(4097),
    "cycle": lambda: cycle(4097),
    "from_edge_list": lambda: from_edge_list(4097, []),
    "parse_edge_list": lambda: parse_edge_list("4097 0\n"),
    "random_graph": lambda: random_graph(4097, 0, 0),
    "paley": lambda: paley(4129),
    "ring_of_cliques": lambda: ring_of_cliques(65),
}


@pytest.mark.parametrize("build", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_builders_refuse_graphs_above_the_dense_size_limit(build):
    with pytest.raises(ValueError, match="exceeds the dense-size limit of 4096 vertices"):
        build()


def test_dense_size_limit_admits_its_own_size_and_keeps_parameter_messages():
    check_dense_size(4096)
    with pytest.raises(ValueError, match="must be prime"):
        paley(4097 * 4099)
    for build in (
        lambda: empty(-5000), lambda: empty(-1), lambda: from_edge_list(-1, []),
        lambda: random_graph(-1, 0, 0), lambda: check_dense_size(-1),
    ):
        with pytest.raises(ValueError, match="vertex count must be nonnegative, got -"):
            build()


def test_paley_translation_invariance():
    for p in (5, 13, 17):
        g = paley(p)
        shift = [(x + 1) % p for x in range(p)]
        assert permute(g, shift) == g


def test_paley_primes():
    assert paley_primes(5, 20) == [5, 13, 17]
    assert paley_primes(14, 16) == []
    assert paley_primes(0, 13) == [5, 13]


def test_paley_primes_stop_below_field_cap():
    primes = paley_primes(2**31 - 1000, 2**31 + 1000)
    assert primes and max(primes) < 2**31
    assert all(check_paley_parameter(p) == p for p in primes)
    assert paley_primes(2**31, 2**31 + 1000) == []


def paley_primes_by_test(lo, hi):
    """The definition of paley_primes, one primality test per candidate."""
    return [p for p in range(max(lo, 5), min(hi, 2**31 - 1) + 1) if p % 4 == 1 and is_prime(p)]


SEGMENT = graphcore._SIEVE_SEGMENT
# Every sieve segment ends at a multiple of SEGMENT; the last one at 2**31.
BOUNDARIES = [SEGMENT, 2 * SEGMENT, 3 * SEGMENT, 2**20, 2**31 - SEGMENT, 2**31]


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_paley_primes_is_exact_across_segment_boundaries(boundary):
    # Windows that end just before, at and after the boundary, start there,
    # and straddle it (one of them spanning three segments).
    windows = [(boundary - 400, boundary - 1), (boundary - 400, boundary),
               (boundary - 1, boundary + 400), (boundary, boundary + 400),
               (boundary + 1, boundary + 400), (boundary - 300, boundary + 300)]
    if boundary > SEGMENT:
        windows.append((boundary - SEGMENT - 50, boundary + 50))
    for lo, hi in windows:
        assert paley_primes(lo, hi) == paley_primes_by_test(lo, hi), (lo, hi)


def test_paley_primes_is_exact_on_edge_windows():
    for lo, hi in [(20, 10), (13, 5), (-50, 60), (0, 4), (4, 5),
                   (13, 13), (29, 29), (21, 21), (25, 25), (15, 15),
                   (2**31 - 20000, 2**31 + 5)]:
        assert paley_primes(lo, hi) == paley_primes_by_test(lo, hi), (lo, hi)
    assert all(type(p) is int for p in paley_primes(5, 100))


def test_paley_primes_makes_no_primality_tests(monkeypatch):
    calls = []
    monkeypatch.setattr(graphcore, "is_prime", lambda u: calls.append(u) or is_prime(u))
    primes = paley_primes(5, 10**5)
    assert calls == []
    assert primes == paley_primes_by_test(5, 10**5)


def test_ring_of_cliques_small():
    g = ring_of_cliques(3)
    assert (g.n, g.m, g.regularity()) == (9, 18, 4)
    g4 = ring_of_cliques(4)
    assert (g4.n, g4.m, g4.regularity()) == (16, 40, 5)
    with pytest.raises(ValueError, match="q >= 3"):
        ring_of_cliques(2)


def test_ring_of_cliques_structure():
    g = ring_of_cliques(3)
    # vertex 0 sits in copy 0: clique partners 1, 2; ring partners 3 and 6
    assert sorted(v for v in range(9) if g.has_edge(0, v)) == [1, 2, 3, 6]
    # copies are cliques
    for i in range(3):
        base = 3 * i
        for a in range(3):
            for b in range(a + 1, 3):
                assert g.has_edge(base + a, base + b)


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
    # The seed is checked at the call, before the stream is read.
    for bad_seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            splitmix64(bad_seed)
    with pytest.raises(ValueError, match="seed"):
        random_graph(3, 0, -1)


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
    with pytest.raises(ValueError):
        random_graph(4, 7, seed=0)


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


def test_parse_edge_list_roundtrip():
    for g in (empty(0), empty(4), complete(5), cycle(6), paley(13), ring_of_cliques(3)):
        assert parse_edge_list(format_edge_list(g)) == g


def test_parse_edge_list_comments_and_blanks():
    text = "# a comment\n\n3 2\n0 1\n# another\n1 2\n"
    assert parse_edge_list(text) == path3()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        ("3\n", "header"),
        ("3 2\n0 1\n", "announces 2 edges"),
        ("3 1\n0 1\n1 2\n", "announces 1 edges"),
        ("3 1\n1 0\n", "u < v"),
        ("3 1\n1 1\n", "u < v"),
        ("3 1\n0 7\n", "outside"),
        ("3 1\nx y\n", "integer"),
        ("3 1\n0 1 2\n", "`u v`"),
        ("-1 0\n", "nonnegative"),
        ("1_0 0\n", "vertex count must be an integer"),
        ("+3 0\n", "vertex count must be an integer"),
        ("\u0663 0\n", "vertex count must be an integer"),
    ],
)
def test_parse_edge_list_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)


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
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
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
