"""The work table: every pinned count of the library's work, and one recorder.

Each row of WORK is a call, a library call or a golden row run in-process,
and the counts it pins of the work the call did. A count that is a list may
be pinned by an int, its length. On a count-only row LAPACK stands in for
the Jacobi solver; a row with jacobi=True runs the real solver and checks
its invariants too. No other test wraps a function that the recorder wraps.
"""

import ast
import contextlib
import itertools
import math
import pathlib
from unittest import mock

import numpy as np
import pytest

from graphenergy import bounds, cli, finitefield, graphcore, spectral
from graphenergy.bounds import bounds_suite, lemma_suite, ratio_table
from graphenergy.graphcore import complete, cycle, from_edge_list, paley, paley_primes
from graphenergy.graphcore import ring_of_cliques as ring
from graphenergy.spectral import closed_forms_suite, eigenvalues, trace_suite

from test_api import REFUSALS
from test_cli import check_row, golden_row
from test_values import lapack

# what the recorder wraps: the first four in spectral, where they live; each
# of the others in every module that holds it, recording its last argument
SOLVER = ("jacobi_eigenvalues", "shared_spectrum", "_jacobi_sweep", "_stack_sweep")
ARGUMENTS = ("delete_edge", "is_prime", "check_paley_parameter", "check_ring_parameter",
             "ring_clique_energy_closed", "e0")
MODULES = (bounds, cli, finitefield, graphcore, spectral)


class Recorder:
    """The library's work while patched in, an entry a call: `solves` holds n
    for a lone solve and the sizes of a stack; `shared` (store, graphs asked
    for, spectra added) per shared_spectrum call, store indexing `stores`, the
    dicts it was handed; `sweeps` each sweep's loop: "stack", or "scalar" on
    a contiguous block or "scalar-strided" on one inside a larger stack;
    calls["module.name"] the last arguments of that module's name."""

    def __init__(self, monkeypatch):
        self.real = {name: getattr(spectral, name) for name in SOLVER}
        self.solver = self.real["jacobi_eigenvalues"]  # or a stand-in a test sets
        self.solves, self.shared, self.stores, self.sweeps, self.calls = [], [], [], [], {}
        self.lone = {}  # matrix bytes -> its spectrum, of each lone solve
        for name, wrapper in zip(SOLVER, (self._solve, self._store, self._sweep, self._sweep)):
            monkeypatch.setattr(spectral, name, wrapper)
        for module, name in itertools.product(MODULES, ARGUMENTS):
            if hasattr(module, name):
                key = f"{module.__name__.rpartition('.')[2]}.{name}"
                monkeypatch.setattr(module, name, self._arguments(key, getattr(module, name)))

    def _arguments(self, key, real):
        calls = self.calls[key] = []
        return lambda *args: calls.append(args[-1]) or real(*args)

    def _solve(self, matrix, sizes=None):
        self.solves.append(len(matrix) if sizes is None else [int(n) for n in sizes])
        vals = self.solver(matrix, sizes)
        if sizes is None:
            self.lone[np.asarray(matrix).tobytes()] = vals
        return vals

    def _store(self, spectra, graphs):
        graphs, before = list(graphs), len(spectra)
        if not any(spectra is s for s in self.stores):
            self.stores.append(spectra)
        vals = self.real["shared_spectrum"](spectra, graphs)
        store = [spectra is s for s in self.stores].index(True)
        self.shared.append((store, len(graphs), len(spectra) - before))
        return vals

    def _sweep(self, a, *args):
        strided = "" if a.flags.c_contiguous else "-strided"
        self.sweeps.append("stack" if a.ndim == 3 else f"scalar{strided}")
        self.real["_stack_sweep" if a.ndim == 3 else "_jacobi_sweep"](a, *args)
        # both loops copy updated rows to the matching columns (the scalar
        # loop column p once per pivot row), right only while a is symmetric
        assert np.array_equal(a, np.swapaxes(a, -1, -2)), self.sweeps[-1]

    def counts(self) -> dict:
        """Every count a row may pin, by name."""
        stacks = [len(sizes) for sizes in self.solves if isinstance(sizes, list)]
        lone = len(self.solves) - len(stacks)
        return {**self.calls, "solves": self.solves, "matrices": sum(stacks) + lone,
                "stacks": stacks, "lone": lone, "shared": self.shared,
                "stores": [len(s) for s in self.stores], "stack sweeps": self.sweeps.count("stack"),
                "loops": [loop for loop, _ in itertools.groupby(self.sweeps)]}  # one per run

    def check_invariants(self, jacobi: bool) -> None:
        """A graph of n <= _STACK_MAX_N is solved in a stack, a larger one
        alone; each stored spectrum is read-only and, if the Jacobi solver
        ran, is its matrix's lone solve, byte for byte."""
        cutoff = spectral._STACK_MAX_N
        for sizes in self.solves:
            assert sizes > cutoff if isinstance(sizes, int) else max(sizes) <= cutoff, sizes
        for key, vals in ((k, v) for store in self.stores for k, v in store.items()):
            assert not vals.flags.writeable
            if jacobi:
                n = math.isqrt(len(key))
                matrix = np.frombuffer(key, dtype=bool).reshape(n, n)
                alone = self.lone[key] if key in self.lone else self.solver(matrix)
                assert vals.tobytes() == alone.tobytes(), n


@pytest.fixture
def recorder(monkeypatch):
    return Recorder(monkeypatch)


def work(key, call, pins, jacobi=False, raises=None):
    """One row: call(spectra), on a fresh dict, does the work, raising `raises` if set."""
    return pytest.param(call, pins, jacobi, raises, id=key)


def cli_row(argv, pins):
    """The golden row of argv, run in-process and checked, as a row."""
    return work(argv, lambda s: check_row(golden_row(argv)), pins)


def shared(*lists):
    """A call of shared_spectrum on each of lists, on one dict."""
    return lambda s: [spectral.shared_spectrum(s, graphs) for graphs in lists]


chunk_64 = mock.patch.object(spectral, "_TRIAL_CHUNK", 64)
RING, ENERGY = "ring_of_cliques", "bounds.ring_clique_energy_closed"
# a numeric ring table computes its closed rows up to its first refused q; a
# closed one checks every q before it computes any row
REFUSAL_PINS = {
    "ratio_table-ring-dense-range": {ENERGY: list(range(3, 66))},
    **{f"ratio_table-closed-ring-{key}": {ENERGY: 0}
       for key in ("cap", "cap-range", "2-first", "cap-first")},
}

WORK = [
    # lemma solves the 168 distinct graphs among its 100 G and 100 G - e on a
    # dict of its own; trace its 29 distinct family graphs on the run's dict
    # and its 81 distinct random ones on a dict of their own; closed-forms
    # the 12 family graphs trace did not, and bounds the 87 that neither did
    cli_row("verify all --trials 100 --seed 0",
            {"matrices": 168 + 29 + 81 + 12 + 87, "lone": 105, "stores": [168, 128, 81],
              "shared": [(0, 200, 168), (1, 32, 29), (2, 100, 81), (1, 31, 12), (1, 129, 87)]}),
    # the 1000 graphs G and 1000 graphs G - e hold 1400 distinct matrices
    cli_row("verify lemma --trials 1000 --seed 1", {"stacks": [1400], "lone": 0}),
    cli_row("ratio-table ring-clique 64..65 --mode numeric", {"solves": 0}),
    # every refusal of a table or a suite comes before any solve
    *(work(f"refused {row.id}", lambda s, call=row.values[0]: call(),
           {"solves": 0, **REFUSAL_PINS.get(row.id, {})}, raises=row.values[1])
      for row in REFUSALS if row.id.startswith(("ratio_table", "lemma_suite", "trace_suite"))),
    # a suite asks for its family spectra in one shared_spectrum call on its
    # dict, and for each chunk of random trials in one call on a fresh dict
    # (lemma: G and G - e per trial)
    work("lemma_suite 20 trials", lambda s: lemma_suite(20, 1), {"shared": [(0, 40, 38)]}),
    work("lemma_suite 25 trials", lambda s: lemma_suite(25, 3), {"matrices": 44}),
    work("lemma_suite 25 trials, reduced graphs", lambda s: lemma_suite(25, 3),
         {"bounds.delete_edge": 25}),
    # one stack per chunk, of its distinct matrices
    work("lemma_suite 200 trials", lambda s: lemma_suite(200, 1),
         {"stacks": [314], "lone": 0, "stores": [314]}, jacobi=True),
    work("lemma_suite 200 trials, chunk 64", chunk_64(lambda s: lemma_suite(200, 1)),
         {"stacks": [108, 110, 108, 16], "lone": 0}),
    work("trace_suite 20 trials", lambda s: trace_suite(20, 1, s),
         {"shared": [(0, 32, 29), (1, 20, 20)]}),
    # 29 distinct family graphs (K_1 = empty(1) too), then the 5 random ones
    work("trace_suite 5 trials", lambda s: trace_suite(5, 2, s),
         {"matrices": 29 + 5, "shared": [(0, 32, 29), (1, 5, 5)]}),
    # the family graphs: 10 with n <= 12 in one stack and 19 alone; then a
    # stack of the distinct random graphs of each chunk
    work("trace_suite 100 trials", lambda s: trace_suite(100, 1, s),
         {"stacks": [10, 82], "lone": 19, "stores": [29, 82]}, jacobi=True),
    work("trace_suite 200 trials", lambda s: trace_suite(200, 1, s), {"stacks": [10, 159]}),
    work("trace_suite 200 trials, chunk 64", chunk_64(lambda s: trace_suite(200, 1, s)),
         {"stacks": [10, 57, 57, 53, 8], "lone": 19}),
    work("closed_forms_suite", closed_forms_suite, {"shared": [(0, 31, 31)]}),
    work("bounds_suite", bounds_suite, {"shared": [(0, 129, 127)]}),
    # verify all's suites one by one, each on a dict of its own
    work("lemma, trace, closed-forms and bounds suites, 100 trials",
         lambda s: [lemma_suite(100, 0), trace_suite(100, 0, {}), closed_forms_suite({}),
                    bounds_suite({})],
         {"matrices": 436,
          "shared": [(0, 200, 168), (1, 32, 29), (2, 100, 81), (3, 31, 31), (4, 129, 127)]}),
    # bounds adds K_1..K_50 and C_3..C_50 to the 31 graphs closed-forms
    # solved; C_3 = K_3 and C_5 = paley(5) are not solved again
    work("closed_forms_suite then bounds_suite", lambda s: [closed_forms_suite(s), bounds_suite(s)],
         {"matrices": 31 + 96, "shared": [(0, 31, 31), (0, 129, 96)], "stores": [127]}),
    # eigenvalues stacks the graphs with n <= 12 and solves each larger one
    # alone; one Graph is a list of one
    work("eigenvalues K3 C5 R3", lambda s: eigenvalues([complete(3), cycle(5), ring(3)]),
         {"solves": [[3, 5, 9]]}),
    work("eigenvalues C5 P13 K3, then C5 and P13",
         lambda s: [eigenvalues(graphs) for graphs in
                    ([cycle(5), paley(13), complete(3)], cycle(5), paley(13))],
         {"solves": [[5, 3], 13, [5], 13]}),
    work("eigenvalues P101 P97", lambda s: eigenvalues([paley(101), paley(97)]),
         {"solves": [101, 97]}),
    # the scalar loop sweeps a lone matrix, and a stack's last live one: K_2
    # converges in the first sweep, and C_12 then sweeps alone as the whole
    # 12 x 12 block; K_12 converges in one sweep too, and C_7 then sweeps
    # alone as a[1, :7, :7], whose rows are 12 entries apart
    work("P101", shared([paley(101)]), {"loops": ["scalar"]}, jacobi=True),
    work("P13, then C12", lambda s: [shared([paley(13)])({}), shared([cycle(12)])({})],
         {"solves": [13, [12]], "loops": ["scalar"]}, jacobi=True),
    work("K2 C12", shared([complete(2), cycle(12)]),
         {"stack sweeps": 1, "loops": ["stack", "scalar"]}, jacobi=True),
    work("K12 C7", shared([complete(12), cycle(7)]),
         {"stack sweeps": 1, "loops": ["stack", "scalar-strided"]}, jacobi=True),
    work("K2 C12 P5 R3 C7", shared([complete(2), cycle(12), paley(5), ring(3), cycle(7)]),
         {"solves": [[2, 12, 5, 9, 7]], "loops": ["stack", "scalar"]}, jacobi=True),
    # shared_spectrum solves each distinct matrix once per dict, the new
    # ones of a list in one stack
    work("shared_spectrum P13 twice", shared([paley(13)], [paley(13)]), {"solves": [13]}),
    work("shared_spectrum K3, then C3 C4 P5 C4 C5, C4 and none",
         shared([complete(3)], [cycle(3), cycle(4), paley(5), cycle(4), cycle(5)],
                iter([cycle(4)]), []),
         {"solves": [[3], [4, 5]], "shared": [(0, 1, 1), (0, 5, 2), (0, 1, 0), (0, 0, 0)]}),
    # equal graphs built under two names share a solve; C_6 and two
    # triangles, of equal n and m, do not
    work("shared_spectrum K3 C3 P5 C5 P13 R3, then C6 and two triangles",
         shared(*[[g] for g in (complete(3), cycle(3), paley(5), cycle(5), paley(13), ring(3))],
                [cycle(6), from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]),
         {"solves": [[3], [5], 13, [9], [6, 6]], "stores": [6]}),
    # a table row checks its parameter once, in closed mode and in numeric
    # mode, which computes each row in closed form first; its e0 is of
    # checked ints, so it is not checked again by the public e0
    *(work(f"ratio_table {family} {mode}",
           lambda s, family=family, params=params, mode=mode: list(
               ratio_table(family, params, mode == "closed")),
           {f"bounds.check_{family.partition('_')[0]}_parameter": params, "bounds.e0": 0})
      for family, params in (("paley", [13, 17]), (RING, [3, 4])) for mode in ("closed", "numeric")),
    # a closed ring table reads a one-shot iterator once, and computes its rows
    work("ratio_table ring_of_cliques closed, one-shot",
         lambda s: list(ratio_table(RING, iter([3, 4]), use_closed_form=True)), {ENERGY: [3, 4]}),
    work("paley_primes 5..10**5", lambda s: paley_primes(5, 10**5), {"graphcore.is_prime": 0}),
]


@pytest.mark.parametrize("call, pins, jacobi, raises", WORK)
def test_work(call, pins, jacobi, raises, recorder, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # a golden row runs in an empty directory
    if not jacobi:
        recorder.solver = lapack
    with pytest.raises(raises) if raises else contextlib.nullcontext():
        call({})
    counts = recorder.counts()
    seen = {name: counts[name] for name in pins}
    for name, want in pins.items():
        if isinstance(want, int) and isinstance(seen[name], list):
            seen[name] = len(seen[name])
    assert seen == pins
    recorder.check_invariants(jacobi)


def test_no_other_test_wraps_a_recorded_function():
    # each monkeypatch.setattr(obj, "name", value) or ("module.name", value) outside this file
    here = pathlib.Path(__file__).resolve()
    for path in set(here.parent.glob("*.py")) - {here}:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if not (getattr(func, "attr", None) == "setattr"
                    and getattr(func.value, "id", None) == "monkeypatch"):
                continue
            target, where = node.args[len(node.args) - 2], f"{path.name}:{node.lineno}"
            assert isinstance(target, ast.Constant), f"{where} patches a name it computes"
            name = target.value.rpartition(".")[2]
            assert name not in SOLVER + ARGUMENTS, f"{where} wraps {name}"
