"""In-process layer tracer for one graphenergy command.

Run as a script, it imports the package, wraps every public function of
`cli`, `finitefield`, `graphcore`, `spectral` and `bounds`, runs
`graphenergy.cli.main(argv)` and writes the collected counts to a JSON file:

    python3 perfbench/tracer.py OUT.json -- verify all --trials 100 --seed 1

The command's stdout and stderr and its exit code are those of the real
CLI. Nothing under `src/` is changed: the wrappers are bound in place of the
originals in every `graphenergy` module that holds them, including names a
module imported from another (`bounds.eigenvalues`) and builder objects
kept in module-level dicts (`cli._GEN_BUILDERS`), so no call goes around
the tracer.

Spans are aggregated as they close, per function name: calls, inclusive
seconds and self seconds (inclusive minus the time of spans opened inside
it). Jacobi calls are also kept one by one (size, seconds, a digest of the
input matrix), so that repeated solves of one matrix can be counted and
each distinct matrix timed once more with LAPACK `eigvalsh` as a floor.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "finitefield", "graphcore", "spectral", "bounds")
JACOBI = "spectral.jacobi_eigenvalues"
EDGE_COUNTS = {
    "graphcore.format_edge_list": lambda args, result: args[0].m,
    "graphcore.parse_edge_list": lambda args, result: result.m,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.top_s = 0.0  # time covered by spans opened while no span was open
        self.jacobi: list[tuple[int, float, str]] = []  # (n, seconds, matrix digest)
        self.matrices: dict[str, object] = {}  # digest -> float64 matrix
        self.edges: dict[str, int] = {}  # name -> edges formatted or parsed
        self._stack: list[float] = []  # child time accumulated per open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        solver = name == JACOBI
        edge_count = EDGE_COUNTS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            # Digesting the input happens before the solver's span opens, so
            # it shows as the caller's self time, part of the tracing overhead.
            key = self._matrix_key(args[0]) if solver else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += took
                stats[2] += took - child
                if stack:
                    stack[-1] += took
                else:
                    self.top_s += took
            if solver:
                self.jacobi.append((self.matrices[key].shape[0], took, key))
            elif edge_count:
                self.edges[name] = self.edges.get(name, 0) + edge_count(args, result)
            return result

        return span

    def _matrix_key(self, matrix) -> str:
        import numpy as np

        a = np.array(matrix, dtype=np.float64)
        digest = hashlib.blake2b(repr(a.shape).encode() + a.tobytes(), digest_size=16)
        key = digest.hexdigest()
        self.matrices.setdefault(key, a)
        return key

    def install(self) -> None:
        """Wrap the public functions of each layer and rebind every reference."""
        import importlib

        modules = {layer: importlib.import_module(f"graphenergy.{layer}") for layer in LAYERS}
        swap = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    swap[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "graphenergy" or mod_name.startswith("graphenergy.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in swap and swap[id(value)][0] is value:
                    setattr(mod, attr, swap[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in swap and swap[id(v)][0] is v:
                            value[k] = swap[id(v)][1]

    def lapack_floor(self) -> float:
        """Seconds LAPACK `eigvalsh` takes for the same solves, one thread.

        Each distinct matrix is timed once (best of three, after a warm-up
        call) and counted once per Jacobi call that solved it.
        """
        if not self.jacobi:
            return 0.0
        import numpy as np

        np.linalg.eigvalsh(np.eye(8))
        best = {}
        for key, a in self.matrices.items():
            times = []
            for _ in range(3):
                start = perf_counter()
                np.linalg.eigvalsh(a)
                times.append(perf_counter() - start)
            best[key] = min(times)
        return sum(best[key] for _, _, key in self.jacobi)


def main(argv: list[str]) -> int:
    out_path = argv[0]
    if argv[1:2] != ["--"]:
        raise SystemExit("usage: tracer.py OUT.json -- <graphenergy arguments>")
    start = perf_counter()
    import graphenergy.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = graphenergy.cli.main(argv[2:])
    sys.stdout.flush()
    post_start = perf_counter()
    lapack_s = tracer.lapack_floor()
    record = {
        "exit": code,
        "import_s": import_s,
        "top_s": tracer.top_s,
        "stats": tracer.stats,
        "jacobi": tracer.jacobi,
        "edges": tracer.edges,
        "lapack_s": lapack_s,
        # Time spent after the command is the tracer's, not the command's;
        # the parent subtracts it from the child's wall time.
        "post_s": perf_counter() - post_start,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
