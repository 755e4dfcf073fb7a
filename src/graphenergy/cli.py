"""Command-line front end.

Subcommands: `gen` writes a family graph as an edge-list file, `energy`
reports on one edge-list file, `ratio-table` emits a CSV ratio sweep, and
`verify` runs the invariant suites. Exit codes: 0 success, 1 validation
error or failed verification, 2 eigensolver non-convergence.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import typing

from . import bounds, graphcore, spectral

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

CSV_HEADER = ",".join(bounds.RatioRow._fields)
# One %-format per CSV row. Every float the CLI prints is "%.12g": 12
# significant digits, trailing zeros trimmed, stable across runs.
_ROW_FORMAT = ",".join(
    "%.12g" if hint is float else "%s" for hint in typing.get_type_hints(bounds.RatioRow).values()
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route that through the
    # validation exit code instead (2 means numerical failure here).
    def error(self, message):
        raise _UsageError(message)


def _int(text: str) -> int:
    # argparse type: the edge-list integer rule, in argparse's own wording
    try:
        return graphcore.read_int(text, "argument")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _u64(text: str) -> int:
    value = _int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}")
    return value


def _positive(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"trials must be at least 1, got {text}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return graphcore.read_int(lo, "range bound"), graphcore.read_int(hi, "range bound")
    except ValueError:
        raise ValueError(f"range must look like `lo..hi`, got {text!r}") from None


def _emit(parts: typing.Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(parts)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(parts)


_FAMILY_NAMES = {
    "complete": "complete",
    "cycle": "cycle",
    "paley": "paley",
    "ring-clique": "ring_of_cliques",
}


def _cmd_gen(args) -> int:
    g = graphcore.FAMILIES[_FAMILY_NAMES[args.family]](args.param)
    text = graphcore.format_edge_list(g)  # sliced: a text stream encodes each write whole
    _emit((text[i : i + 2**16] for i in range(0, len(text), 2**16)), args.out)
    # without --out the edge list owns stdout; keep the summary out of it
    summary = sys.stderr if args.out is None else sys.stdout
    summary.write(f"n {g.n}\nm {g.m}\nk {g.regularity()}\n")
    return EXIT_OK


def _cmd_energy(args) -> int:
    g = graphcore.read_edge_list(args.input)
    report = bounds.energy_report(g)
    k = "not regular" if report.k is None else report.k
    values = [("energy", report.energy), ("spectral_radius", report.spectral_radius)]
    if report.ratio is not None:
        values += [("e0", report.e0), ("ratio", report.ratio)]
    _emit([f"n {g.n}\n", f"m {g.m}\n", f"k {k}\n", *("%s %.12g\n" % v for v in values)], None)
    return EXIT_OK


def _cmd_ratio_table(args) -> int:
    lo, hi = _parse_range(args.range)
    family = _FAMILY_NAMES[args.family]
    # read lazily: a refused parameter stops the Paley sieve where it stands
    params = graphcore.family_params(family, lo, hi)
    rows = bounds.ratio_table(family, params, use_closed_form=(args.mode == "closed"))
    # the first row before the header: a refused or empty table writes nothing
    first = next(rows, None)
    if first is None:
        raise ValueError(f"no valid {args.family} parameters in {lo}..{hi}")
    lines = (_ROW_FORMAT % row + "\n" for row in itertools.chain([first], rows))
    _emit(itertools.chain([CSV_HEADER + "\n"], lines), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # One spectrum per distinct family graph per run, shared by the suites
    # below; random trials are solved a chunk at a time and never stored.
    spectra = {}
    runners = {
        "lemma": lambda: bounds.lemma_suite(args.trials, args.seed),
        "trace": lambda: spectral.trace_suite(args.trials, args.seed, spectra),
        "closed-forms": lambda: spectral.closed_forms_suite(spectra),
        "bounds": lambda: bounds.bounds_suite(spectra),
    }
    names = list(runners) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        result = runners[name]()
        head = f"{result.name}: {result.passed}/{result.total} pass\n"
        _emit([head, *(f"  FAIL {failure}\n" for failure in result.failures)], None)
        all_ok = all_ok and result.ok
    return EXIT_OK if all_ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphenergy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family graph as an edge-list file")
    gen.add_argument("family", choices=sorted(_FAMILY_NAMES))
    gen.add_argument("param", type=_int, help="p, q, or n depending on the family")
    gen.add_argument("--out", default=None, help="output path (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    energy = sub.add_parser("energy", help="energy report for an edge-list file")
    energy.add_argument("input", help="edge-list file to read")
    energy.set_defaults(func=_cmd_energy)

    table = sub.add_parser("ratio-table", help="CSV ratio sweep over a parameter range")
    table.add_argument("family", choices=["paley", "ring-clique"])
    table.add_argument("range", help="inclusive parameter range, e.g. 5..100")
    table.add_argument("--mode", choices=["numeric", "closed"], default="numeric")
    table.add_argument("--out", default=None, help="output path (default: stdout)")
    table.set_defaults(func=_cmd_ratio_table)

    verify = sub.add_parser("verify", help="run invariant suites")
    verify.add_argument("suite", choices=["lemma", "trace", "closed-forms", "bounds", "all"])
    verify.add_argument("--trials", type=_positive, default=100)
    verify.add_argument("--seed", type=_u64, default=0)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    # argparse versions differ on a `--` value, `--seed=--` or a `--` after
    # the first: some store [] unchecked, some pass it to the type.
    values = argv[end + 1 :] + [t.partition("=")[2] for t in argv[:end] if t.startswith("--")]
    try:
        if "--" in values:
            raise _UsageError("`--` is not an argument value")
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except spectral.ConvergenceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


def main_entry() -> None:
    raise SystemExit(main())
