"""Simple undirected graphs on vertices 0..n-1.

Dense immutable representation, elementary builders and edits, the two
regular families under study (Paley graphs and the ring of cliques),
seeded random graphs for property tests, and the edge-list text format.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from .finitefield import FIELD_MODULUS_CAP, PRIMES, check_integer, is_prime, primes_between
from .tolerances import MAX_DENSE_N

__all__ = [
    "Graph",
    "check_paley_parameter",
    "complete",
    "cycle",
    "delete_edge",
    "empty",
    "format_edge_list",
    "from_edge_list",
    "paley",
    "paley_primes",
    "parse_edge_list",
    "permute",
    "random_graph",
    "read_edge_list",
    "ring_of_cliques",
    "splitmix64",
    "write_edge_list",
]

_MASK64 = 2**64 - 1
_SIEVE_SEGMENT = 2**18  # integers per paley_primes segment
_FORMAT_ROWS = 64  # adjacency rows per format_edge_list block


def _as_edge(e: tuple[int, int], n: int) -> tuple[int, int]:
    """Edge e of a graph on n vertices as integers u < v: each endpoint must
    be an integer, the edge not a loop, and both endpoints in 0..n-1."""
    u, v = e
    u, v = check_integer(u, "edge endpoint"), check_integer(v, "edge endpoint")
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) is not allowed")
    if u > v:
        u, v = v, u
    if u < 0 or v >= n:
        raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
    return u, v


class Graph:
    """Immutable simple graph with a dense symmetric boolean adjacency matrix.

    All edits (edge deletion, relabeling) return new graphs; the
    stored matrix is flagged read-only, so instances are safe to share
    between threads or tasks.
    """

    __slots__ = ("_adj", "_m")

    def __init__(self, adjacency) -> None:
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.dtype != bool and not ((adj == 0) | (adj == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        adj = adj.astype(bool, copy=True)
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed (nonzero diagonal)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.setflags(write=False)
        self._adj = adj
        self._m = int(np.count_nonzero(adj)) // 2

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def m(self) -> int:
        return self._m

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) int pairs, u < v, in ascending lexicographic order."""
        rows, cols = np.nonzero(np.triu(self._adj))
        return list(zip(rows.tolist(), cols.tolist()))

    def regularity(self) -> int | None:
        """The common degree k if the graph is regular, else None.

        The empty graph on n >= 1 vertices is 0-regular; regularity of the
        graph on 0 vertices is undefined (None).
        """
        if self.n == 0:
            return None
        degrees = self._adj.sum(axis=0)
        k = int(degrees[0])
        return k if bool((degrees == k).all()) else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._adj, other._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# elementary builders and edits


def check_dense_size(n: int) -> int:
    """n as an int, refusing a non-integral or negative n, or n above
    MAX_DENSE_N, before a graph is stored."""
    n = check_integer(n, "vertex count")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_DENSE_N:
        raise ValueError(
            f"graph on {n} vertices exceeds the dense-size limit of {MAX_DENSE_N} vertices"
        )
    return n


def empty(n: int) -> Graph:
    """Graph with n vertices and no edges."""
    n = check_dense_size(n)
    return Graph(np.zeros((n, n), dtype=bool))


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    n = check_integer(n, "vertex count")
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    n = check_dense_size(n)
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return Graph(adj)


def cycle(n: int) -> Graph:
    """The cycle C_n, n >= 3."""
    n = check_integer(n, "vertex count")
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    n = check_dense_size(n)
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = True
    adj[(idx + 1) % n, idx] = True
    return Graph(adj)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges.

    Rejects loops, duplicate edges (in either orientation), and endpoints
    outside 0..n-1, each with its own error message.
    """
    n = check_dense_size(n)
    adj = np.zeros((n, n), dtype=bool)
    for e in edges:
        u, v = _as_edge(e, n)
        if adj[u, v]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u, v] = True
        adj[v, u] = True
    return Graph(adj)


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """New graph with edge e removed; e must be present."""
    u, v = _as_edge(e, g.n)
    if not g.adjacency[u, v]:
        raise ValueError(f"edge ({u}, {v}) is not in the graph")
    adj = g.adjacency.copy()
    adj[u, v] = False
    adj[v, u] = False
    return Graph(adj)


def permute(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel vertices: vertex u becomes perm[u]."""
    p = [check_integer(x, "permutation entry") for x in perm]
    if sorted(p) != list(range(g.n)):
        raise ValueError(f"perm must be a permutation of 0..{g.n - 1}")
    idx = np.asarray(p, dtype=np.intp)
    adj = np.zeros_like(g.adjacency)
    adj[np.ix_(idx, idx)] = g.adjacency
    return Graph(adj)


# ---------------------------------------------------------------------------
# the two families


def check_paley_parameter(p: int) -> int:
    """Validate a Paley parameter: a prime below 2**31, congruent to 1 mod 4.

    A non-integral value is rejected, not truncated. The range is checked
    before primality, so a value at or above the cap is reported as too
    large, prime or not. The smallest valid value is 5, so no separate
    lower bound is needed.
    """
    value = check_integer(p, "Paley parameter")
    if value >= FIELD_MODULUS_CAP:
        raise ValueError(f"Paley parameter must be below 2**31, got {value}")
    if value < 2 or not is_prime(value):
        raise ValueError(f"Paley parameter must be prime, got {value}")
    if value % 4 != 1:
        raise ValueError(
            f"Paley parameter must be congruent to 1 mod 4, got {value} "
            "(otherwise the adjacency relation is not symmetric)"
        )
    return value


def check_ring_parameter(q: int) -> int:
    """Validate a ring-of-cliques parameter: an integer q >= 3."""
    value = check_integer(q, "ring of cliques parameter q")
    if value <= 2:
        raise ValueError(f"ring of cliques needs q >= 3, got {value}")
    return value


def paley(p: int) -> Graph:
    """Paley graph on p vertices: u ~ v iff (u - v) mod p is a nonzero square.

    Requires a prime p == 1 (mod 4), p >= 5, which makes -1 a square and the
    relation symmetric; the graph is (p-1)/2-regular with p(p-1)/4 edges.
    """
    value = check_paley_parameter(p)
    check_dense_size(value)
    idx = np.arange(value, dtype=np.int64)
    is_square = np.zeros(value, dtype=bool)
    is_square[idx[1:] * idx[1:] % value] = True
    # A circulant: row u is is_square shifted right by u, the window of
    # is_square taken twice that starts at p - u; a view, not a p x p array.
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(is_square, 2), value)
    # Graph() re-validates symmetry, which is exactly the p == 1 (mod 4) fact.
    return Graph(windows[:0:-1])


def ring_of_cliques(q: int) -> Graph:
    """q copies of K_q joined in a ring on corresponding vertices.

    Copy i (0-based) occupies vertices i*q .. i*q + q - 1; vertex j of copy i
    is joined to vertex j of copy i+1 (indices mod q, so the last copy wraps
    to the first). The result is (q+1)-regular on q**2 vertices with
    q**2 (q+1) / 2 edges. Needs q >= 3: at q = 2 the two ring edges between
    the copies coincide.
    """
    q = check_ring_parameter(q)
    check_dense_size(q * q)
    # The Cartesian product C_q x K_q: the cycle joins copies, K_q fills each.
    eye = np.eye(q, dtype=bool)
    return Graph(np.kron(cycle(q).adjacency, eye) | np.kron(eye, complete(q).adjacency))


def _sieve_windows(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """[lo, hi] cut to 5 <= p < 2**31 as (first, last) windows of
    _SIEVE_SEGMENT integers, counted from the window's own start."""
    start = max(check_integer(lo, "lower bound"), 5)
    stop = min(check_integer(hi, "upper bound"), FIELD_MODULUS_CAP - 1)
    return ((s, min(s + _SIEVE_SEGMENT - 1, stop)) for s in range(start, stop + 1, _SIEVE_SEGMENT))


def paley_primes(lo: int, hi: int) -> list[int]:
    """All valid Paley parameters in [lo, hi]: primes p == 1 (mod 4), 5 <= p < 2**31.

    A segmented sieve: each of _sieve_windows(lo, hi) is sieved by
    finitefield.primes_between with the base PRIMES, so memory beyond the
    list returned is O(_SIEVE_SEGMENT) whatever the window's width.
    """
    found: list[int] = []
    for first, last in _sieve_windows(lo, hi):
        values = primes_between(first, last, PRIMES)
        found.extend(values[values % 4 == 1].tolist())
    return found


# A family's name is its builder's __name__, its label and its CSV `family`.
FAMILIES = {build.__name__: build for build in (paley, ring_of_cliques, complete, cycle, empty)}


def family_params(family: str, lo: int, hi: int):
    """Parameters in [lo, hi] of a "paley" or "ring_of_cliques" sweep, ascending:
    every q >= 3 for rings of cliques, as a range, and paley_primes for Paley
    graphs, as an iterator that sieves one window at a time as it is read, so
    that a reader who stops at a refused p sieves no further."""
    if family not in ("paley", "ring_of_cliques"):
        raise ValueError(f"no sweep rule for family {family!r}: only paley and ring_of_cliques")
    if family == "ring_of_cliques":
        return range(max(check_integer(lo, "lower bound"), 3), check_integer(hi, "upper bound") + 1)
    return itertools.chain.from_iterable(itertools.starmap(paley_primes, _sieve_windows(lo, hi)))


def family_corpus(p_max: int, q_max: int, complete_sizes, cycle_sizes, empty_sizes=()):
    """(family, param, graph) for the verification suites, in FAMILIES order:
    Paley graphs for every valid p <= p_max, rings of cliques for
    q = 3..q_max, then complete, cycle and empty graphs of the given sizes.
    The suites label each graph `family(param)`, as in `paley(13)`."""
    sweeps = family_params("paley", 5, p_max), family_params("ring_of_cliques", 3, q_max)
    groups = (*sweeps, complete_sizes, cycle_sizes, empty_sizes)
    for family, params in zip(FAMILIES, groups, strict=True):
        for param in params:
            yield family, param, FAMILIES[family](param)


# ---------------------------------------------------------------------------
# seeded randomness


def splitmix64(seed: int) -> Iterator[int]:
    """The SplitMix64 stream for the given 64-bit seed.

    This is the package's one source of randomness; identical seeds produce
    identical streams on every platform and implementation. A seed outside
    0..2**64-1, or not an integer, raises here, before the stream is read.
    """
    seed = check_integer(seed, "seed")
    if seed < 0 or seed > _MASK64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return _splitmix64_stream(seed)


def _splitmix64_stream(state: int) -> Iterator[int]:
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with exactly m edges, reproducible by seed.

    Sampling: number the n(n-1)/2 vertex pairs 0..U-1 in lexicographic
    order, run a partial Fisher-Yates shuffle driven by splitmix64(seed) --
    the swap partner for position i is i + (r_i mod (U - i)) where r_i is
    the i-th stream value -- and keep the first m pairs. Only displaced
    positions are stored (in a dict), so besides the n x n matrix the
    sampling takes O(m) memory, not O(U).
    """
    n, m = check_dense_size(n), check_integer(m, "edge count")
    universe = n * (n - 1) // 2
    if m < 0 or m > universe:
        raise ValueError(f"edge count must be in 0..{universe} for n={n}, got {m}")
    displaced: dict[int, int] = {}
    us, vs = [], []
    stream = splitmix64(seed)
    for i in range(m):
        j = i + next(stream) % (universe - i)
        u, v = _pair_at(n, displaced.get(j, j))
        # position i is final after this step; position j takes its entry
        displaced[j] = displaced.pop(i, i)
        us.append(u)
        vs.append(v)
    # distinct pairs with u < v < n by construction: no per-edge checks needed
    adj = np.zeros((n, n), dtype=bool)
    adj[us, vs] = True
    adj[vs, us] = True
    return Graph(adj)


def _pair_at(n: int, index: int) -> tuple[int, int]:
    """The vertex pair at position `index` of the lexicographic order.

    Counted back from the last pair, the row of pairs (u, .) has n - 1 - u
    entries, so for the pair `back` places before the last, w = n - 2 - u is
    the largest w with w(w + 1)/2 <= back.
    """
    back = n * (n - 1) // 2 - 1 - index
    w = (math.isqrt(8 * back + 1) - 1) // 2
    return n - 2 - w, n - 1 - (back - w * (w + 1) // 2)


# ---------------------------------------------------------------------------
# edge-list text format


def format_edge_list(g: Graph) -> str:
    """Render the canonical edge-list text: `n m` header, then `u v` lines.

    Edges are written in ascending lexicographic order with u < v; the
    output is newline-terminated. The edges are rendered a block of rows at
    a time, so the index pairs and Python ints of one block, not of the
    whole graph, sit beside the text.
    """
    adj = g.adjacency
    parts = [f"{g.n} {g.m}\n"]
    for r0 in range(0, g.n, _FORMAT_ROWS):
        pairs = np.argwhere(np.triu(adj[r0 : r0 + _FORMAT_ROWS], r0 + 1))
        pairs[:, 0] += r0
        parts.append(("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist()))
    return "".join(parts)


def read_int(token: str, what: str) -> int:
    """The integer token spells as ASCII `-?[0-9]+`, else a ValueError naming
    `what`. Edge lists and CLI arguments are read by this one rule: int()
    alone also takes "1_0", "+3", padding and non-ASCII digits, and past its
    digit limit raises a ValueError of its own."""
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        try:
            return int(token)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer, got {token!r}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines starting with `#` are comments; blank lines are ignored. The first
    data line is `n m`; exactly m edge lines `u v` with u < v must follow.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append(line)
    if not rows:
        raise ValueError("edge list is empty: missing `n m` header line")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be `n m`, got {rows[0]!r}")
    n = read_int(head[0], "vertex count")
    m = read_int(head[1], "edge count")
    if n < 0 or m < 0:
        raise ValueError(f"header counts must be nonnegative, got {rows[0]!r}")
    if len(rows) - 1 != m:
        raise ValueError(f"header announces {m} edges but {len(rows) - 1} edge lines follow")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be `u v`, got {line!r}")
        u = read_int(parts[0], "edge endpoint")
        v = read_int(parts[1], "edge endpoint")
        if u >= v:
            raise ValueError(f"edge lines must satisfy u < v, got {line!r}")
        edges.append((u, v))
    return from_edge_list(n, edges)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_edge_list(g))


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())
