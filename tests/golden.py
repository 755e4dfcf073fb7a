"""The golden table: every pinned command-line output, and one checker.

Each row is one `graphenergy` command and all that it prints: its exit
code, its stdout, its exact stderr and, for a command with `--out FILE`,
the file it writes. An expected stdout or file is exact text, or the
sha256 of its bytes where the row holds 64 hex digits; stderr is read as
ASCII, each other byte written as its \\x escape. Arguments are split as
a shell splits them, so `' 4'` is one argument. A row with `setup` first
runs that `gen ... --out FILE` command to write its input file. Rows
share nothing: each runs in an empty directory of its own, and must leave
in it no file but its setup's and its own `--out FILE`.

The tier says who runs a row. tests/test_cli.py runs the "tier1" rows
in-process through `cli.main`. Run as a script, this module runs every
row, "tier1" and "ci" alike, against the installed `graphenergy` console
script, each command with a 20 s timeout, and exits 1 if any row fails:

    python tests/golden.py

To pin an output, add its row here: "tier1" if it runs in well under a
second, "ci" otherwise.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple

TIMEOUT_S = 20
_DIGEST = re.compile("[0-9a-f]{64}")


class Row(NamedTuple):
    tier: str  # "tier1" or "ci"
    argv: str  # the arguments after `graphenergy`, quoted as in a shell
    code: int
    stdout: str
    stderr: str
    out: str | None = None  # what the file `--out` names holds
    setup: str | None = None  # the `gen` command that writes the input file


# sha256 digests that two rows share: one output, to stdout or to --out
P13 = "b43e5bafcd1671e9b9d7558f09083210cc76005dee982e39268869420d04ac88"
PALEY_5_1E6 = "81a43a5e97a3dd75fbcb49b988e03a82ceafe30786a677b4b828773a29955be4"
# the stderr of each row that gives `--` as an argument value
DASHES = "usage error: `--` is not an argument value\n"

ROWS = [
    # gen: the edge list to stdout and n, m, k to stderr, or to --out and stdout
    Row("tier1", "gen paley 13", 0, P13, "n 13\nm 39\nk 6\n"),
    Row("tier1", "gen paley 13 --out p13.txt", 0, "n 13\nm 39\nk 6\n", "", out=P13),
    Row(
        "tier1", "gen ring-clique 16 --out r16.txt", 0, "n 256\nm 2176\nk 17\n", "",
        out="52a2e427266a7e730d5f82bba18c06026d2e519a6784f78a09a1b06a1aec99df",
    ),
    Row(
        "tier1", "gen ring-clique 5", 0,
        "66da848d2cc1810b8ccaaef01b166e6c988ebaceccd3c08477bc67f98e790ab5", "n 25\nm 75\nk 6\n",
    ),
    Row(
        "tier1", "gen paley 101", 0,
        "cb5592028a36fabf90c36c6903c2daae552d3980f41b54d03f26c9cdf2d7849f", "n 101\nm 2525\nk 50\n",
    ),
    Row(
        "tier1", "gen complete 5", 0,
        "02f369096b911556d342f347851a6f997d3766501c956bed1b4e3ed810a8fc42", "n 5\nm 10\nk 4\n",
    ),
    Row(
        "tier1", "gen cycle 6", 0,
        "bfb5b0e7bc7ef780bd592500a43f482fa2055a92eb84ef0c44b8ef0ff96ac49a", "n 6\nm 6\nk 2\n",
    ),
    Row("tier1", "gen cycle 4", 0, "4 4\n0 1\n0 3\n1 2\n2 3\n", "n 4\nm 4\nk 2\n"),
    Row(
        "tier1", "gen ring-clique 3 --out r3.txt", 0, "n 9\nm 18\nk 4\n", "",
        out="dec2673a596945159aa37e62043bcf9aca76eff2b6a690cedd167cdfb08ed75a",
    ),
    Row("tier1", "gen paley 12", 1, "", "error: Paley parameter must be prime, got 12\n"),
    Row("tier1", "gen cycle 2", 1, "", "error: cycle needs n >= 3, got 2\n"),
    Row("tier1", "gen ring-clique 2", 1, "", "error: ring of cliques needs q >= 3, got 2\n"),
    # a closed-sweep benchmark output
    Row(
        "tier1", "gen paley 1009", 0,
        "709110df9dad8ad6e7dd56c915881fa8e16be15dfbce18704c7d87e0a240e14b",
        "n 1009\nm 254268\nk 504\n",
    ),
    # energy: a BLAS kernel whose rounding reaches a printed digit fails here
    Row(
        "tier1", "energy p13.txt", 0,
        "n 13\nm 39\nk 6\nenergy 27.6333076528\nspectral_radius 6\n"
        "e0 28.4499443206\nratio 0.971295667272\n",
        "", setup="gen paley 13 --out p13.txt",
    ),
    Row(
        "tier1", "energy k5.txt", 0,
        "n 5\nm 10\nk 4\nenergy 8\nspectral_radius 4\ne0 8\nratio 1\n",
        "", setup="gen complete 5 --out k5.txt",
    ),
    Row(
        "tier1", "energy missing.txt", 1, "",
        "error: [Errno 2] No such file or directory: 'missing.txt'\n",
    ),
    # a 256-vertex ring, solved alone by the scalar Jacobi loop
    Row(
        "ci", "energy r16.txt", 0,
        "n 256\nm 2176\nk 17\nenergy 585.718357644\nspectral_radius 17\n"
        "e0 1034.87278183\nratio 0.565981024842\n",
        "", setup="gen ring-clique 16 --out r16.txt",
    ),
    # the largest lone solve: the scalar loop's memoryviews and rot.dot(out=)
    Row(
        "ci", "energy p401.txt", 0,
        "n 401\nm 40100\nk 200\nenergy 4204.9968789\nspectral_radius 200\n"
        "e0 4209.98753115\nratio 0.998814568401\n",
        "", setup="gen paley 401 --out p401.txt",
    ),
    # ratio-table
    Row(
        "tier1", "ratio-table paley 5..20 --mode closed", 0,
        "family,param,n,k,m,energy,e0,ratio,closed_ratio,paper_bound\n"
        "paley,5,5,2,5,6.472135955,6.89897948557,0.938129468067,0.938129468067,0.527864045\n"
        "paley,13,13,6,39,27.6333076528,28.4499443206,0.971295667272,0.971295667272,"
        "0.643210827675\n"
        "paley,17,17,8,68,40.9848450049,41.941125497,0.977199455649,0.977199455649,"
        "0.67336836529\n",
        "",
    ),
    Row(
        "tier1", "ratio-table paley 5..401 --mode closed", 0,
        "6588fa7fb0a83b521b30c8e1b08543cfe93391bf71a6abfcfe7885c8413d7e21", "",
    ),
    # a window across 2**18 = 262144, sieved as one segment from its start
    Row(
        "tier1", "ratio-table paley 262000..263000 --mode closed", 0,
        "39b27a1111e41b6bf88d2bf98cbb8c45c3d08e99155b626d52945658e74dc44d", "",
    ),
    Row(
        "tier1", "ratio-table paley 5..60 --mode numeric", 0,
        "3583c1dfd12514d7d699f7fba5231c54b83bb4af71efb8a61fce37b9dab50e02", "",
    ),
    # the largest outputs, written line by line; a closed-sweep benchmark output
    Row("ci", "ratio-table paley 5..1000000 --mode closed", 0, PALEY_5_1E6, ""),
    Row(
        "ci", "ratio-table paley 5..1000000 --mode closed --out paley.csv", 0, "", "",
        out=PALEY_5_1E6,
    ),
    # every p >= 2**20 here, so each row's is_prime takes its numpy remainder stage
    Row(
        "ci", "ratio-table paley 2146435073..2147483647 --mode closed", 0,
        "e4ca038c96e26648d6845f1f24f118fceba67154aa073f7a2d5d1777baefb17e", "",
    ),
    # a window across p = 3329021, the last p whose e0 product k(p-1)(p-k) int64 holds
    Row(
        "tier1", "ratio-table paley 3320000..3340000 --mode closed", 0,
        "be87a7ad126dccf17204e02eb86997988db25a116965790b2e66ce5984c78a20", "",
    ),
    # the last valid p lies below the field cap 2**31; a window above it is empty
    Row(
        "tier1", "ratio-table paley 2147483000..2147484000 --mode closed", 0,
        "85d03ff5368697708fe19517e7b8243c51ef8d886c76d87996552246db5cf4ba", "",
    ),
    Row(
        "tier1", "ratio-table paley 2147483700..2147484000 --mode closed", 1, "",
        "error: no valid paley parameters in 2147483700..2147484000\n",
    ),
    Row("tier1", "ratio-table paley 14..16", 1, "", "error: no valid paley parameters in 14..16\n"),
    Row(
        "tier1", "ratio-table ring-clique 1..2", 1, "",
        "error: no valid ring-clique parameters in 1..2\n",
    ),
    Row(
        "tier1", "ratio-table paley 5-20", 1, "",
        "error: range must look like `lo..hi`, got '5-20'\n",
    ),
    # p = 4129, the first past the dense limit, is refused before the sieve
    # reads past its first window of 2**18 integers
    Row(
        "tier1", "ratio-table paley 5..100000000 --mode numeric", 1, "",
        "error: invalid paley parameter 4129: graph on 4129 vertices "
        "exceeds the dense-size limit of 4096 vertices\n",
    ),
    Row(
        "tier1", "ratio-table ring-clique 3..40 --mode closed", 0,
        "cf63e6777ba4597bc3d55f8a8ec550931f129fc58a766aef30c869d1a01620c4", "",
    ),
    Row(
        "tier1", "ratio-table ring-clique 3..6 --mode numeric", 0,
        "835e3acbff0f9b3983a5221e2ab84f242095d875264fcbc1dab9d6f4e39d0c57", "",
    ),
    # a closed-sweep benchmark output
    Row(
        "tier1", "ratio-table ring-clique 3..300 --mode closed", 0,
        "b09f0c928f30f26c762fd66c90ef2f191bd4ddced744cc86668df646eef83a8b", "",
    ),
    # a closed ring past the dense limit is refused before allocating
    Row(
        "tier1", "ratio-table ring-clique 100000..100000 --mode closed", 1, "",
        "error: invalid ring_of_cliques parameter 100000: "
        "closed-form ring spectrum needs q <= 4096, got 100000\n",
    ),
    # every q is checked before any row: computing the rows q = 3..4096 took minutes
    Row(
        "tier1", "ratio-table ring-clique 3..5000 --mode closed", 1, "",
        "error: invalid ring_of_cliques parameter 4097: "
        "closed-form ring spectrum needs q <= 4096, got 4097\n",
    ),
    # q = 64 has 4096 vertices and fits; q = 65 has 4225 and is refused before q = 64 is solved
    Row(
        "tier1", "ratio-table ring-clique 64..65 --mode numeric", 1, "",
        "error: invalid ring_of_cliques parameter 65: graph on 4225 vertices "
        "exceeds the dense-size limit of 4096 vertices\n",
    ),
    # verify
    Row("tier1", "verify lemma --trials 1000 --seed 1", 0, "lemma: 1000/1000 pass\n", ""),
    # 5000 random trials cross two chunk boundaries (2048 trials a chunk)
    Row("ci", "verify lemma --trials 5000 --seed 7", 0, "lemma: 5000/5000 pass\n", ""),
    Row("tier1", "verify trace --trials 3 --seed 9", 0, "trace: 35/35 pass\n", ""),
    Row("ci", "verify trace --trials 1000 --seed 3", 0, "trace: 1032/1032 pass\n", ""),
    Row("ci", "verify trace --trials 5000 --seed 7", 0, "trace: 5032/5032 pass\n", ""),
    # 21 valid primes up to 200 plus rings q = 3..12
    Row("tier1", "verify closed-forms", 0, "closed-forms: 31/31 pass\n", ""),
    Row("ci", "verify bounds", 0, "bounds: 129/129 pass\n", ""),
    Row(
        "ci", "verify all --trials 100 --seed 0", 0,
        "lemma: 100/100 pass\ntrace: 132/132 pass\nclosed-forms: 31/31 pass\nbounds: 129/129 pass\n",
        "",
    ),
    Row(
        "tier1", "verify lemma --trials 0", 1, "",
        "usage error: argument --trials: trials must be at least 1, got 0\n",
    ),
    # Integer arguments follow the edge-list rule. The first six are integers
    # to int() and to \d but not to that rule. The first echoes its
    # Arabic-Indic digits to stderr in UTF-8, shown here \x-escaped.
    Row(
        "tier1", "ratio-table paley \u0665..\u0661\u0667 --mode closed", 1, "",
        "error: range must look like `lo..hi`, got '\\xd9\\xa5..\\xd9\\xa1\\xd9\\xa7'\n",
    ),
    Row("tier1", "gen cycle 1_0", 1, "", "usage error: argument param: invalid int value: '1_0'\n"),
    Row("tier1", "gen cycle +4", 1, "", "usage error: argument param: invalid int value: '+4'\n"),
    Row("tier1", "gen cycle ' 4'", 1, "", "usage error: argument param: invalid int value: ' 4'\n"),
    Row(
        "tier1", "verify lemma --trials +2 --seed 1_0", 1, "",
        "usage error: argument --trials: invalid int value: '+2'\n",
    ),
    Row(
        "tier1", "verify lemma --seed 1_0", 1, "",
        "usage error: argument --seed: invalid int value: '1_0'\n",
    ),
    Row("tier1", "gen cycle x", 1, "", "usage error: argument param: invalid int value: 'x'\n"),
    Row(
        "tier1", "verify lemma --trials x", 1, "",
        "usage error: argument --trials: invalid int value: 'x'\n",
    ),
    Row(
        "tier1", "verify lemma --seed x", 1, "",
        "usage error: argument --seed: invalid int value: 'x'\n",
    ),
    Row(
        "tier1", "ratio-table paley 5..x", 1, "",
        "error: range must look like `lo..hi`, got '5..x'\n",
    ),
    # argparse versions differ on a `--` value, so the CLI refuses one before
    # argparse reads the arguments; `--out=--` must write no file named `--`
    Row("tier1", "verify lemma --seed=--", 1, "", DASHES),
    Row("tier1", "gen cycle -- --", 1, "", DASHES),
    Row("tier1", "gen paley 13 --out=--", 1, "", DASHES),
    Row("tier1", "energy -- --", 1, "", DASHES),
    Row("tier1", "gen cycle -- 5", 0, "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n", "n 5\nm 5\nk 2\n"),
    # an unknown flag, and no subcommand
    Row(
        "tier1", "gen paley 13 --frobnicate", 1, "",
        "usage error: unrecognized arguments: --frobnicate\n",
    ),
    Row("tier1", "", 1, "", "usage error: the following arguments are required: command\n"),
]


def _seen(want: str | None, got: bytes | None) -> str | None:
    # got in the form of want: its digest, or its text
    if want is None or got is None:
        return None
    if _DIGEST.fullmatch(want):
        return hashlib.sha256(got).hexdigest()
    return got.decode("ascii", "backslashreplace")


def _out_file(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def result(row: Row, run) -> Row | str:
    """What row's command does, as a Row to compare with row itself, or a str
    naming the files it left in the current directory beside those of its
    setup's `--out` and its own.

    run(argv) runs one command in the current directory and returns its exit
    code, stdout and stderr, the last two as bytes.
    """
    setup = shlex.split(row.setup or "")
    if setup:
        run(setup)
    argv = shlex.split(row.argv)
    code, out, err = run(argv)
    files, out_file = set(os.listdir()), _out_file(argv)
    stray = sorted(files - {_out_file(setup), out_file})
    if stray:
        return f"left stray files {stray}"
    written = pathlib.Path(out_file).read_bytes() if out_file in files else None
    return row._replace(
        code=code,
        stdout=_seen(row.stdout, out),
        stderr=err.decode("ascii", "backslashreplace"),
        out=_seen(row.out, written),
    )


def _installed(argv):
    proc = subprocess.run(["graphenergy", *argv], capture_output=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    home, failed = os.getcwd(), 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                got = result(row, _installed)
            except subprocess.TimeoutExpired as exc:
                got = f"no exit within {exc.timeout} s"
            finally:
                os.chdir(home)
        print("ok  " if got == row else "FAIL", row.argv, flush=True)
        if got != row:
            failed += 1
            print(f"  want {row}\n  got  {got}", flush=True)
    print(f"{len(ROWS) - failed}/{len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
