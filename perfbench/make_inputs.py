"""Write a workload's input files; run in a fresh interpreter per set-up.

    python3 perfbench/make_inputs.py OUT_DIR SEED GRAPH...

Each GRAPH is `paley:<p>` or `ring-clique:<q>`. The graph is relabeled by a
SplitMix64 Fisher-Yates permutation of its vertices drawn from SEED, through
the public `permute`, and written as `OUT_DIR/<family>-<param>.txt`. With no
GRAPH the script only imports the package, which is the whole set-up of a
workload whose inputs are its command arguments.
"""

from __future__ import annotations

import os
import sys

from graphenergy import graphcore

BUILDERS = {"paley": graphcore.paley, "ring-clique": graphcore.ring_of_cliques}


def seeded_permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    stream = graphcore.splitmix64(seed)
    for i in range(n - 1, 0, -1):
        j = next(stream) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def main(argv: list[str]) -> None:
    out_dir, seed = argv[0], int(argv[1])
    for spec in argv[2:]:
        family, param = spec.split(":")
        g = BUILDERS[family](int(param))
        g = graphcore.permute(g, seeded_permutation(g.n, seed))
        graphcore.write_edge_list(g, os.path.join(out_dir, f"{family}-{param}.txt"))


if __name__ == "__main__":
    main(sys.argv[1:])
