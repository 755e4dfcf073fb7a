"""The public surface: what `graphenergy` exports, that nothing is stale,
and every refusal of the library, each pinned once in REFUSALS.

CI runs this module against the installed package too."""

import ast
import importlib
import math
import pkgutil
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import graphenergy
from graphenergy import (
    Graph,
    check_paley_parameter,
    complete,
    cycle,
    delete_edge,
    e0,
    eigenvalues,
    empty,
    from_edge_list,
    is_prime,
    jacobi_eigenvalues,
    lemma_suite,
    paley,
    paley_energy_closed,
    paley_primes,
    paley_ratio_closed,
    paley_spectrum_closed,
    parse_edge_list,
    permute,
    random_graph,
    ratio_table,
    ring_clique_energy_closed,
    ring_clique_energy_upper,
    ring_clique_ratio_upper,
    ring_clique_spectrum_closed,
    ring_of_cliques,
    splitmix64,
    trace_suite,
)
from graphenergy.graphcore import check_dense_size, family_params

PUBLIC = """
ConvergenceError EdgeDeletionCheck EnergyReport Graph RatioRow SuiteResult
bounds_suite check_paley_parameter closed_forms_suite complete cycle delete_edge e0
edge_deletion_check eigenvalues empty energy energy_report format_edge_list
from_edge_list is_prime jacobi_eigenvalues lemma_suite paley paley_energy_closed
paley_primes paley_ratio_closed paley_ratio_lower paley_spectrum_closed
parse_edge_list permute random_graph ratio_table read_edge_list
ring_clique_energy_closed ring_clique_energy_upper ring_clique_ratio_upper
ring_clique_spectrum_closed ring_of_cliques splitmix64 trace_suite write_edge_list
""".split()


def test_package_exports_exactly_the_public_names():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 42
    assert graphenergy.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(graphenergy, name) is not None, name


def test_package_exports_the_union_of_its_modules_all():
    from graphenergy import bounds, finitefield, graphcore, spectral

    modules = (bounds, finitefield, graphcore, spectral)
    assert graphenergy.__all__ == sorted(name for mod in modules for name in mod.__all__)


def test_every_submodule_export_is_defined_in_its_module():
    modules = [
        importlib.import_module(f"graphenergy.{info.name}")
        for info in pkgutil.iter_modules(graphenergy.__path__)
        if info.name != "__main__"
    ]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert {mod.__name__ for mod in exporting} >= {
        "graphenergy.bounds",
        "graphenergy.finitefield",
        "graphenergy.graphcore",
        "graphenergy.spectral",
    }
    for mod in exporting:
        for name in mod.__all__:
            assert name in vars(mod), f"{mod.__name__}.__all__ names undefined {name!r}"
            home = getattr(vars(mod)[name], "__module__", mod.__name__)
            assert home == mod.__name__, f"{mod.__name__}.__all__ re-exports {name!r} from {home}"


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (example,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    exec(example, {})


# ---------------------------------------------------------------------------
# the refusal table


def refusal(key, call, message):
    """One row: call() raises exactly a ValueError, whose str() is exactly message."""
    return pytest.param(call, ValueError, message, id=key)


def raising_after(*params):
    """The params, then a ValueError of the iterable's own."""
    yield from params
    raise ValueError("boom")


def _k2_c4(*outside):
    """K_2 and C_4 zero-padded into one (2, 4, 4) stack, sizes [2, 4], with a
    1 at each (i, j) of `outside` in K_2's matrix and at (j, i)."""
    stack = np.zeros((2, 4, 4))
    stack[0, :2, :2] = complete(2).adjacency
    stack[1] = cycle(4).adjacency
    for i, j in outside:
        stack[0, i, j] = stack[0, j, i] = 1.0
    return stack


def _object_pair(x):
    """[[0, x], [x, 0]] as an object array."""
    return np.array([[0, x], [x, 0]], dtype=object)


def invalid(family, param, message):
    """ratio_table's refusal of a parameter that its own check refuses with message."""
    return f"invalid {family} parameter {param}: {message}"


RING = "ring_of_cliques"
PALEY_INT = "Paley parameter must be an integer, got {0}"
RING_INT = "ring of cliques parameter q must be an integer, got {0}"
# Each family entry point reads its parameter by the integer rule: its call,
# a valid parameter, and the refusal of a non-integral one, {0}.
FAMILY_ENTRY_POINTS = {
    "paley": (paley, 13, PALEY_INT),
    "paley_spectrum_closed": (lambda p: paley_spectrum_closed(p).tolist(), 13, PALEY_INT),
    "paley_energy_closed": (paley_energy_closed, 13, PALEY_INT),
    "ratio_table paley": (
        lambda p: list(ratio_table("paley", [p])), 13, invalid("paley", "{0}", PALEY_INT)
    ),
    "ring_of_cliques": (ring_of_cliques, 3, RING_INT),
    "ring_clique_spectrum_closed": (lambda q: ring_clique_spectrum_closed(q).tolist(), 3, RING_INT),
    "ring_clique_energy_closed": (ring_clique_energy_closed, 3, RING_INT),
    "ring_clique_energy_upper": (ring_clique_energy_upper, 3, RING_INT),
    "ratio_table ring_of_cliques": (
        lambda q: list(ratio_table(RING, [q])), 3, invalid(RING, "{0}", RING_INT)
    ),
}
# Each other reader of an integer: its call, what its refusal names, and the
# values it refuses. int() reads a NumPy complex with a zero imaginary part;
# the integer rule refuses it.
C64, C128 = np.complex64, np.complex128
INTEGER_RULE = {
    "is_prime": (is_prime, "primality input", 2.5, math.nan, math.inf, "7", C128(13)),
    "e0": (lambda x: e0(x, 2), "vertex count", 13.5, math.inf, math.nan, "13", C64(5)),
    "e0-k": (lambda x: e0(13, x), "regular degree", 6.5, math.inf),
    "paley": (paley, "Paley parameter", C128(13)),
    "cycle": (cycle, "vertex count", 4.5, "4", C128(5)),
    "complete": (complete, "vertex count", 3.5, "3"),
    "empty": (empty, "vertex count", 2.5),
    "random_graph-n": (lambda x: random_graph(x, 2, 0), "vertex count", 5.5),
    "random_graph": (lambda x: random_graph(5, x, 1), "edge count", 2.5),
    "check_dense_size": (check_dense_size, "vertex count", math.nan),
    "splitmix64": (splitmix64, "seed", 1.5, math.nan, "5", C128(3)),
    "delete_edge": (lambda x: delete_edge(cycle(5), (x, 1)), "edge endpoint", 0.5),
    "permute": (lambda x: permute(cycle(3), [x, 1, 2]), "permutation entry", 0.5, "2"),
    "lemma_suite": (lambda x: lemma_suite(trials=x, seed=0), "trials", 2.5),
    "trace_suite": (lambda x: trace_suite(trials=x, seed=0, spectra={}), "trials", 2.5),
    "paley_primes-lo": (lambda x: paley_primes(x, 20), "lower bound", 5.5),
    "paley_primes-hi": (lambda x: paley_primes(5, x), "upper bound", "20"),
    "family_params-paley-lo": (lambda x: family_params("paley", x, 30), "lower bound", 3.5),
    "family_params-paley-hi": (lambda x: family_params("paley", 3, x), "upper bound", 30.5),
    "family_params-ring-lo": (lambda x: family_params(RING, x, 30), "lower bound", 3.5),
    "family_params-ring-hi": (lambda x: family_params(RING, 3, x), "upper bound", 30.5),
}

NOT_PRIME = "Paley parameter must be prime, got {}"
NOT_1_MOD_4 = (
    "Paley parameter must be congruent to 1 mod 4, got {} "
    "(otherwise the adjacency relation is not symmetric)"
)
TOO_LARGE = "Paley parameter must be below 2**31, got {}"
OUT_OF_DOMAIN = "primality input must be in [0, 2**31), got {}"
DENSE = "graph on {} vertices exceeds the dense-size limit of 4096 vertices"
NEGATIVE = "vertex count must be nonnegative, got {}"
SMALL_Q = "ring of cliques needs q >= 3, got {}"
RING_CAP = "closed-form ring spectrum needs q <= 4096, got {}"
PALEY_CAP = "closed-form Paley spectrum needs p <= 16777216, got {}"
SEED_RANGE = "seed must be an unsigned 64-bit integer, got {}"
NO_SWEEP = "no sweep rule for family {!r}: only paley and ring_of_cliques"
DEGREE = "regular degree must be in 0..4 for n=5, got {}"
NO_VERTEX = "spectrum needs at least one vertex"

# ratio tables name the first invalid parameter in input order, when the
# rows are read (list() reads them):
# (id, family, params, use_closed_form, the parameter named, its own refusal)
TABLES = [
    # a closed Paley block is checked as a whole, then read again to name its first refusal
    ("closed-paley-12", "paley", [13, 17, 12, 7], True, 12, NOT_PRIME.format(12)),
    ("closed-paley-7", "paley", [5, 7, 12], True, 7, NOT_1_MOD_4.format(7)),
    ("paley-12", "paley", [13, 12], False, 12, NOT_PRIME.format(12)),
    ("ring-2", RING, [3, 2], False, 2, SMALL_Q.format(2)),
    ("paley-dense", "paley", [13, 17, 4129], False, 4129, DENSE.format(4129)),
    ("ring-dense-first", RING, [65, 2], False, 65, DENSE.format(4225)),
    ("ring-2-first", RING, [2, 65], False, 2, SMALL_Q.format(2)),
    ("ring-dense-range", RING, range(3, 1001), False, 65, DENSE.format(4225)),
    ("closed-ring-cap", RING, [4097], True, 4097, RING_CAP.format(4097)),
    ("closed-ring-cap-range", RING, range(3, 5001), True, 4097, RING_CAP.format(4097)),
    # in input order, the ring rule before the cap for each q
    ("closed-ring-2-first", RING, [2, 5000], True, 2, SMALL_Q.format(2)),
    ("closed-ring-cap-first", RING, [5000, 2], True, 5000, RING_CAP.format(5000)),
]
# from_edge_list checks each edge in this order: loop, then range, then
# duplicate: (id, n, edges, message)
EDGE_LISTS = [
    ("loop", 2, [(0, 0)], "loop edge (0, 0) is not allowed"),
    ("loop-outside", 2, [(5, 5)], "loop edge (5, 5) is not allowed"),
    ("outside", 2, [(0, 5)], "edge (0, 5) has an endpoint outside 0..1"),
    ("outside-twice", 2, [(0, 5), (0, 5)], "edge (0, 5) has an endpoint outside 0..1"),
    ("duplicate", 3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    ("duplicate-later", 3, [(0, 2), (1, 2), (2, 0)], "duplicate edge (0, 2)"),
    # the first endpoint that is not an integer is named
    ("endpoint-float", 3, [(0.7, 1.2), ("1", "2")], "edge endpoint must be an integer, got 0.7"),
    ("endpoint-str", 3, [("1", "2")], "edge endpoint must be an integer, got 1"),
    ("n-float", 3.5, [], "vertex count must be an integer, got 3.5"),
    ("negative", -1, [], NEGATIVE.format(-1)),
]
# the edge-list text format: (id, text, message)
PARSE = [
    ("empty", "", "edge list is empty: missing `n m` header line"),
    ("header", "3\n", "header must be `n m`, got '3'"),
    ("too-few-edges", "3 2\n0 1\n", "header announces 2 edges but 1 edge lines follow"),
    ("too-many-edges", "3 1\n0 1\n1 2\n", "header announces 1 edges but 2 edge lines follow"),
    ("descending", "3 1\n1 0\n", "edge lines must satisfy u < v, got '1 0'"),
    ("loop", "3 1\n1 1\n", "edge lines must satisfy u < v, got '1 1'"),
    ("outside", "3 1\n0 7\n", "edge (0, 7) has an endpoint outside 0..2"),
    ("not-integers", "3 1\nx y\n", "edge endpoint must be an integer, got 'x'"),
    ("three-fields", "3 1\n0 1 2\n", "edge line must be `u v`, got '0 1 2'"),
    ("negative", "-1 0\n", "header counts must be nonnegative, got '-1 0'"),
    ("underscore", "1_0 0\n", "vertex count must be an integer, got '1_0'"),
    ("plus", "+3 0\n", "vertex count must be an integer, got '+3'"),
    ("arabic-digit", "٣ 0\n", "vertex count must be an integer, got '٣'"),
]

SYMMETRIC = "matrix must be symmetric"
REAL = "matrix entries must be real numbers, got dtype"
FINITE = "matrix entries must be finite (no inf or NaN)"
BEYOND = "the spectrum exceeds the float64 range"
NEEDS_SIZES = "a stack of 2 matrices needs 2 integer sizes, got"
OUTSIDE = "entries outside each matrix's sizes[i] x sizes[i] block must be zero"
# finite entries, but an eigenvalue (2e308, 2.16e308) that float64 cannot hold
HUGE, HUGE_INDEFINITE = [[1e308, 1e308], [1e308, 1e308]], [[1.7e308, 1e308], [1e308, 0.0]]
# the eigensolver: (id, matrix, sizes, message)
JACOBI = [
    ("not-square", np.zeros((2, 3)), None, "matrix must be square, or a stack of square ones, "
     "got shape (2, 3)"),
    ("asymmetric", [[0.0, 1.0], [0.0, 0.0]], None, SYMMETRIC),
    ("asymmetric-stack", np.triu(np.ones((2, 3, 3))), [3, 3], SYMMETRIC),
    ("inf", [[0.0, math.inf], [math.inf, 0.0]], None, FINITE),
    # NaN != NaN, but it is reported as non-finite, not as asymmetric
    ("nan", [[math.nan, 1.0], [1.0, 0.0]], None, FINITE),
    ("complex", np.array([[0, 1j], [-1j, 0]]), None, f"{REAL} complex128"),
    ("complex-0j", [[0.0, 1 + 0j], [1 + 0j, 0.0]], None, f"{REAL} complex128"),
    ("text", [["1", "2"], ["2", "1"]], None, f"{REAL} <U1"),
    ("bytes", [[b"1"]], None, f"{REAL} |S1"),
    # as numbers, these would read as day and tick counts
    ("datetime", [[np.datetime64("2020-01-01")]], None, f"{REAL} datetime64[D]"),
    ("timedelta", [[np.timedelta64(3)]], None, f"{REAL} timedelta64"),
    # an object array is refused whatever its entries
    *(
        (f"object-{label}", _object_pair(x), None, f"{REAL} object")
        for label, x in [("int-beyond-int64", 2**70), ("fraction", Fraction(1, 2)),
                         ("decimal", Decimal(1)), ("dict", {}), ("complex", 1j),
                         ("text", "1"), ("bytes", b"1")]
    ),
    ("object-dict-1x1", np.array([[{}]], dtype=object), None, f"{REAL} object"),
    ("object-complex-hermitian", np.array([[0, 1j], [-1j, 0]], dtype=object), None,
     f"{REAL} object"),
    ("beyond-float64", HUGE, None, BEYOND),
    ("beyond-float64-indefinite", HUGE_INDEFINITE, None, BEYOND),
    ("beyond-float64-stack", [np.zeros((2, 2)), HUGE], [1, 2], BEYOND),
    ("beyond-indefinite-stack", [np.zeros((2, 2)), HUGE_INDEFINITE], [1, 2], BEYOND),
    ("2d-sizes", cycle(4).adjacency, [4], "sizes applies only to a stack of matrices"),
    ("no-sizes", _k2_c4(), None, f"{NEEDS_SIZES} None"),
    ("too-few-sizes", _k2_c4(), [2], f"{NEEDS_SIZES} [2]"),
    ("too-many-sizes", _k2_c4(), [2, 4, 4], f"{NEEDS_SIZES} [2, 4, 4]"),
    ("sizes-not-1d", _k2_c4(), [[2, 4]], f"{NEEDS_SIZES} [[2, 4]]"),
    ("float-sizes", _k2_c4(), [2.0, 4.0], f"{NEEDS_SIZES} [2.0, 4.0]"),
    ("boolean-sizes", _k2_c4(), [True, True], f"{NEEDS_SIZES} [True, True]"),
    ("size-above-n", _k2_c4(), [2, 5], "sizes must be in 0..4, got [2, 5]"),
    ("negative-size", _k2_c4(), [-1, 4], "sizes must be in 0..4, got [-1, 4]"),
    ("padding-diagonal", _k2_c4((3, 3)), [2, 4], OUTSIDE),
    ("padding-off-diagonal", _k2_c4((0, 2)), [2, 4], OUTSIDE),
]

# Three groups of rows run under their own test names, in the module whose
# code they refuse: NON_NUMBER_ROWS in test_finitefield.py, DENSE_ROWS in
# test_graphcore.py and SOLVER_ROWS in test_spectral.py. test_refusal runs ROWS.
# int() raises TypeError for these; the integer rule promises a ValueError
NON_NUMBER_ROWS = [
    refusal(f"{name}-{label}", lambda fn=INTEGER_RULE[name][0], x=x: fn(x),
            f"{INTEGER_RULE[name][1]} must be an integer, got {x}")
    for name in ("is_prime", "e0", "paley", "cycle", "splitmix64", "random_graph")
    for label, x in (("None", None), ("complex", 1j), ("list", [3]))
]
# each graph above the dense-size limit is refused before its builder
# allocates; 4129 is the least valid Paley prime above 4096
DENSE_ROWS = [
    *(refusal(b.__name__, lambda b=b: b(4097), DENSE.format(4097))
      for b in (empty, complete, cycle)),
    refusal("from_edge_list", lambda: from_edge_list(4097, []), DENSE.format(4097)),
    refusal("parse_edge_list", lambda: parse_edge_list("4097 0\n"), DENSE.format(4097)),
    refusal("random_graph", lambda: random_graph(4097, 0, 0), DENSE.format(4097)),
    refusal("paley", lambda: paley(4129), DENSE.format(4129)),
    refusal("ring_of_cliques", lambda: ring_of_cliques(65), DENSE.format(65 * 65)),
]
SOLVER_ROWS = [
    refusal(key, lambda m=m, sizes=sizes: jacobi_eigenvalues(m, sizes), message)
    for key, m, sizes, message in JACOBI
]
ROWS = [
    # the integer rule
    *(
        refusal(f"{name}-{bad}", lambda fn=fn, bad=bad: fn(bad), message.format(bad))
        for name, (fn, good, message) in FAMILY_ENTRY_POINTS.items()
        for bad in (good + 0.5, good + 0.9, math.inf, -math.inf, math.nan)
    ),
    *(
        refusal(f"{name}-{type(x).__name__}-{x}", lambda fn=fn, x=x: fn(x),
                f"{what} must be an integer, got {x}")
        for name, (fn, what, *values) in INTEGER_RULE.items()
        for x in values
    ),
    # ranges and family rules
    refusal("is_prime-negative", lambda: is_prime(-1), OUT_OF_DOMAIN.format(-1)),
    refusal("is_prime-2**31", lambda: is_prime(2**31), OUT_OF_DOMAIN.format(2**31)),
    # the range is checked before primality: composite, prime, and prime
    # beyond is_prime's domain are all refused as too large
    *(
        refusal(f"check_paley_parameter-{p}", lambda p=p: check_paley_parameter(p), rule.format(p))
        for rule, p in [(NOT_PRIME, 12), (NOT_PRIME, 1), (NOT_PRIME, -7), (TOO_LARGE, 2**31),
                        (TOO_LARGE, 2**31 + 11), (TOO_LARGE, 2**61 - 1), (TOO_LARGE, 2**89 - 1)]
    ),
    refusal("paley-12", lambda: paley(12), NOT_PRIME.format(12)),
    refusal("paley-1", lambda: paley(1), NOT_PRIME.format(1)),
    refusal("paley-7", lambda: paley(7), NOT_1_MOD_4.format(7)),
    refusal("paley-3", lambda: paley(3), NOT_1_MOD_4.format(3)),
    refusal("paley-mersenne-89", lambda: paley(2**89 - 1), TOO_LARGE.format(2**89 - 1)),
    # a composite above the dense-size limit is refused as composite
    refusal("paley-4097*4099", lambda: paley(4097 * 4099), NOT_PRIME.format(4097 * 4099)),
    refusal("paley_spectrum_closed-12", lambda: paley_spectrum_closed(12), NOT_PRIME.format(12)),
    refusal("paley_spectrum_closed-7", lambda: paley_spectrum_closed(7), NOT_1_MOD_4.format(7)),
    refusal("paley_energy_closed-12", lambda: paley_energy_closed(12), NOT_PRIME.format(12)),
    refusal("paley_ratio_closed-9", lambda: paley_ratio_closed(9), NOT_PRIME.format(9)),
    refusal("ring_of_cliques-2", lambda: ring_of_cliques(2), SMALL_Q.format(2)),
    refusal("ring_clique_spectrum_closed-2", lambda: ring_clique_spectrum_closed(2),
            SMALL_Q.format(2)),
    refusal("ring_clique_energy_upper-2", lambda: ring_clique_energy_upper(2), SMALL_Q.format(2)),
    refusal("ring_clique_ratio_upper-1", lambda: ring_clique_ratio_upper(1), SMALL_Q.format(1)),
    refusal("e0-n-0", lambda: e0(0, 0), "vertex count must be at least 1, got 0"),
    refusal("e0-k-5", lambda: e0(5, 5), DEGREE.format(5)),
    refusal("e0-k-negative", lambda: e0(5, -1), DEGREE.format(-1)),
    refusal("complete-0", lambda: complete(0), "complete graph needs n >= 1, got 0"),
    refusal("complete-negative", lambda: complete(-1), "complete graph needs n >= 1, got -1"),
    refusal("cycle-2", lambda: cycle(2), "cycle needs n >= 3, got 2"),
    refusal("family_params-complete", lambda: family_params("complete", 1, 5),
            NO_SWEEP.format("complete")),
    refusal("family_params-bogus", lambda: family_params("bogus", 1, 5), NO_SWEEP.format("bogus")),
    refusal("splitmix64-negative", lambda: splitmix64(-1), SEED_RANGE.format(-1)),
    refusal("splitmix64-2**64", lambda: splitmix64(2**64), SEED_RANGE.format(2**64)),
    refusal("random_graph-seed-negative", lambda: random_graph(3, 0, -1), SEED_RANGE.format(-1)),
    refusal("random_graph-m-7", lambda: random_graph(4, 7, 0),
            "edge count must be in 0..6 for n=4, got 7"),
    refusal("lemma_suite-trials-0", lambda: lemma_suite(0, 0), "trials must be at least 1, got 0"),
    refusal("trace_suite-trials--5", lambda: trace_suite(-5, 0, {}),
            "trials must be nonnegative, got -5"),
    refusal("trace_suite-trials--1", lambda: trace_suite(-1, 0, {}),
            "trials must be nonnegative, got -1"),
    refusal("trace_suite-seed-negative", lambda: trace_suite(0, -5, {}), SEED_RANGE.format(-5)),
    # sizes: each refused before anything of its size is allocated
    refusal("check_dense_size-negative", lambda: check_dense_size(-1), NEGATIVE.format(-1)),
    refusal("empty-negative", lambda: empty(-1), NEGATIVE.format(-1)),
    refusal("empty-negative-5000", lambda: empty(-5000), NEGATIVE.format(-5000)),
    refusal("random_graph-negative", lambda: random_graph(-1, 0, 0), NEGATIVE.format(-1)),
    # q = 4097 alone would take 134 MB of float64 values
    *(
        refusal(f"ring_clique_spectrum_closed-{q}", lambda q=q: ring_clique_spectrum_closed(q),
                RING_CAP.format(q))
        for q in (4097, 100_000)
    ),
    # the first valid p above 4096**2 and the largest valid p below 2**31,
    # which alone would take 8 GiB of float64 values
    *(
        refusal(f"paley_spectrum_closed-{p}", lambda p=p: paley_spectrum_closed(p),
                PALEY_CAP.format(p))
        for p in (16_777_289, 2_147_483_629)
    ),
    refusal(
        "ratio_table-family",
        lambda: ratio_table("nonsense", [3]),
        "family must be one of ['paley', 'ring_of_cliques'], got 'nonsense'",
    ),
    *(
        refusal(f"ratio_table-{key}", lambda f=f, p=p, c=c: list(ratio_table(f, p, c)),
                invalid(f, bad, message))
        for key, f, p, c, bad, message in TABLES
    ),
    refusal("ratio_table-iterator", lambda: list(ratio_table(RING, iter([3, 65]))),
            invalid(RING, 65, DENSE.format(4225))),
    # the params iterable's own error is not blamed on a parameter
    *(
        refusal(f"ratio_table-{key}", lambda f=f, p=p, c=c: list(ratio_table(f, p(), c)), "boom")
        for key, f, p, c in [
            ("iterable-raises-first", "paley", raising_after, False),
            ("iterable-raises-after-13", "paley", lambda: raising_after(13), False),
            ("closed-iterable-raises", RING, lambda: raising_after(3), True),
        ]
    ),
    # graphs and edges
    refusal("Graph-not-square", lambda: Graph(np.zeros((2, 3))),
            "adjacency must be square, got shape (2, 3)"),
    refusal("Graph-self-loops", lambda: Graph(np.eye(3)),
            "self-loops are not allowed (nonzero diagonal)"),
    refusal("Graph-asymmetric", lambda: Graph([[0, 1], [0, 0]]), "adjacency must be symmetric"),
    # only 0 and 1 are edges or non-edges; any other entry is not cast to True
    *(
        refusal(f"Graph-entry-{x}", lambda x=x: Graph([[0, x], [x, 0]]),
                "adjacency entries must be 0 or 1")
        for x in (math.nan, 2, 0.5)
    ),
    *(
        refusal(f"from_edge_list-{key}", lambda n=n, e=e: from_edge_list(n, e), message)
        for key, n, e, message in EDGE_LISTS
    ),
    # negative endpoints would otherwise count from the end of the matrix
    refusal("delete_edge-negative", lambda: delete_edge(cycle(5), (-1, 3)),
            "edge (-1, 3) has an endpoint outside 0..4"),
    refusal("delete_edge-negatives", lambda: delete_edge(cycle(5), (-5, -4)),
            "edge (-5, -4) has an endpoint outside 0..4"),
    refusal("delete_edge-absent", lambda: delete_edge(cycle(5), (0, 2)),
            "edge (0, 2) is not in the graph"),
    refusal("permute-not-a-permutation", lambda: permute(cycle(3), [0, 0, 2]),
            "perm must be a permutation of 0..2"),
    *(
        refusal(f"parse-{key}", lambda text=text: parse_edge_list(text), message)
        for key, text, message in PARSE
    ),
    refusal("eigenvalues-no-vertex", lambda: eigenvalues(empty(0)), NO_VERTEX),
    refusal("eigenvalues-list-no-vertex", lambda: eigenvalues([cycle(3), empty(0)]), NO_VERTEX),
]
REFUSALS = [*NON_NUMBER_ROWS, *DENSE_ROWS, *SOLVER_ROWS, *ROWS]


def check_refusal(call, exc, message):
    """call() raises exactly exc, whose str() is exactly message, and peaks
    below 2**20 bytes while it does."""
    tracemalloc.start()
    try:
        with pytest.raises(exc) as refused:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(refused.value) is exc
    assert str(refused.value) == message
    # well below what any refused size would allocate
    assert peak < 2**20


@pytest.mark.parametrize("call, exc, message", ROWS)
def test_refusal(call, exc, message):
    check_refusal(call, exc, message)


def test_every_value_error_of_the_library_has_a_row():
    # each `raise ValueError(<literal or f-string>)` in these modules, read as
    # a pattern with `.*` for each replacement field, matches some row's message
    messages = [row.values[2] for row in REFUSALS]
    for module in ("bounds", "finitefield", "graphcore", "spectral"):
        path = Path(graphenergy.__file__).with_name(f"{module}.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            if getattr(node.exc.func, "id", None) != "ValueError":
                continue
            (template,) = node.exc.args
            assert isinstance(template, (ast.Constant, ast.JoinedStr)), (module, node.lineno)
            parts = template.values if isinstance(template, ast.JoinedStr) else [template]
            pattern = "".join(
                re.escape(part.value) if isinstance(part, ast.Constant) else ".*" for part in parts
            )
            matched = any(re.fullmatch(pattern, m, re.S) for m in messages)
            assert matched, f"{module}.py:{node.lineno} {pattern!r} has no row"
