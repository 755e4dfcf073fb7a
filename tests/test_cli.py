"""Command-line behavior: formats, exit codes, and determinism."""

import collections
import contextlib
import hashlib
import io
import math
import pathlib
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphenergy import bounds, cli, graphcore, spectral
from graphenergy.graphcore import from_edge_list, write_edge_list

import golden


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_labeled(text):
    out = {}
    for line in text.splitlines():
        label, _, value = line.partition(" ")
        out[label] = value
    return out


# ---------------------------------------------------------------------------
# gen


def test_family_choices_are_pinned():
    def choices(*argv):
        # read from the refusal, which every argparse version words alike up to quotes
        with pytest.raises(cli._UsageError) as refused:
            cli.build_parser().parse_args(argv)
        return re.findall(r"[\w-]+", str(refused.value).partition("choose from")[2])

    assert choices("gen", "empty", "3") == ["complete", "cycle", "paley", "ring-clique"]
    assert choices("ratio-table", "cycle", "3..5") == ["paley", "ring-clique"]


def test_every_family_graph_is_built_through_the_family_table(capsys, monkeypatch, family_spectra):
    built = []
    for name, build in list(graphcore.FAMILIES.items()):

        def counting(param, name=name, build=build):
            built.append((name, param))
            return build(param)

        monkeypatch.setitem(graphcore.FAMILIES, name, counting)
    assert run(capsys, "gen", "cycle", "6")[0] == 0
    assert run(capsys, "ratio-table", "ring-clique", "3..4", "--mode", "numeric")[0] == 0
    assert built == [("cycle", 6), ("ring_of_cliques", 3), ("ring_of_cliques", 4)]
    built.clear()
    # the session store: the graphs are still built, for its keys, but are
    # solved only if no earlier test solved them
    assert spectral.closed_forms_suite(family_spectra).ok
    assert built == [("paley", p) for p in graphcore.paley_primes(5, 200)] + [
        ("ring_of_cliques", q) for q in range(3, 13)
    ]


# ---------------------------------------------------------------------------
# energy


def test_energy_non_regular_has_no_ratio_line(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    write_edge_list(from_edge_list(3, [(0, 1), (1, 2)]), path)
    code, out, _ = run(capsys, "energy", str(path))
    assert code == 0
    assert "k not regular" in out
    assert "ratio" not in out and "e0" not in out
    report = parse_labeled(out)
    assert float(report["energy"]) == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_energy_zero_regular_graph_has_no_ratio_line(tmp_path, capsys):
    path = tmp_path / "lone.txt"
    path.write_text("1 0\n")
    code, out, _ = run(capsys, "energy", str(path))
    assert code == 0
    report = parse_labeled(out)
    assert report["k"] == "0" and report["energy"] == "0"
    assert "ratio" not in out and "e0" not in out


def test_energy_zero_regular_graph_on_four_vertices(tmp_path, capsys):
    path = tmp_path / "empty4.txt"
    path.write_text("4 0\n")
    code, out, _ = run(capsys, "energy", str(path))
    assert code == 0
    assert out == "n 4\nm 0\nk 0\nenergy 0\nspectral_radius 0\n"


def test_energy_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n1 0\n")
    code, _, err = run(capsys, "energy", str(path))
    assert code == 1 and "u < v" in err


def test_energy_exit_2_on_solver_failure(tmp_path, capsys, monkeypatch):
    def explode(_):
        raise spectral.ConvergenceError("forced")

    monkeypatch.setattr("graphenergy.spectral.eigenvalues", explode)
    path = tmp_path / "k3.txt"
    write_edge_list(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]), path)
    code, _, err = run(capsys, "energy", str(path))
    assert code == 2 and "numerical failure" in err


# ---------------------------------------------------------------------------
# ratio-table


def test_ratio_row_is_an_immutable_tuple_of_the_csv_columns():
    row = list(bounds.ratio_table("paley", [13], use_closed_form=True))[0]
    with pytest.raises(AttributeError):
        row.energy = 0.0
    assert bounds.RatioRow._fields == tuple(
        "family,param,n,k,m,energy,e0,ratio,closed_ratio,paper_bound".split(",")
    )
    assert cli._ROW_FORMAT % row == (
        "paley,13,13,6,39,27.6333076528,28.4499443206,0.971295667272,0.971295667272,0.643210827675"
    )


def traced(call):
    """call()'s result, and the peak in bytes that tracemalloc saw as it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ratio_table_ring_numeric_refuses_a_wide_range_in_small_memory(capsys):
    argv = ["ratio-table", "ring-clique", "3..1000000", "--mode", "numeric"]
    (code, _, err), peak = traced(lambda: run(capsys, *argv))
    assert code == 1 and "parameter 65:" in err
    # A list of every q in the range would take about 38 MiB.
    assert peak < 2 * 2**20


def test_ratio_table_paley_numeric_refuses_a_wide_range_in_small_memory(capsys):
    row = golden_row("ratio-table paley 5..100000000 --mode numeric")
    (code, _, err), peak = traced(lambda: run(capsys, *row.argv.split()))
    assert (code, err) == (row.code, row.stderr)
    # Sieving the whole range before the first row would take about 110 MiB.
    assert peak < 2 * 2**20


def test_ratio_table_writes_each_row_as_it_is_formatted(tmp_path, capsys):
    path = tmp_path / "t"
    argv = ["ratio-table", "paley", "5..1000000", "--mode", "closed", "--out", str(path)]
    # untraced, since a first run leaves about 0.2 MiB of argparse and re caches
    assert cli.main([*argv[:2], "5..20", *argv[3:]]) == 0
    # a bound that does not grow with the table: a closed table holds one block
    # of rows (about 1.0 MiB); these 39,175 rows as a list took 13.3 MiB
    assert traced(lambda: cli.main(argv))[1] <= 2 * 2**20
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == golden.PALEY_5_1E6


def test_ratio_table_writes_file_deterministically(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "ratio-table", "paley", "5..60", "--mode", "closed", "--out", str(a))[0] == 0
    assert run(capsys, "ratio-table", "paley", "5..60", "--mode", "closed", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_ratio_table_numeric_and_closed_agree(capsys):
    _, numeric, _ = run(capsys, "ratio-table", "paley", "5..30")
    _, closed, _ = run(capsys, "ratio-table", "paley", "5..30", "--mode", "closed")
    for line_n, line_c in zip(numeric.splitlines()[1:], closed.splitlines()[1:]):
        ratio_n = float(line_n.split(",")[7])
        ratio_c = float(line_c.split(",")[7])
        assert ratio_n == pytest.approx(ratio_c, abs=1e-7)


# ---------------------------------------------------------------------------
# the golden table


def golden_row(argv):
    (row,) = [row for row in golden.ROWS if row.argv == argv]
    return row


def run_bytes(argv):
    """cli.main(argv): its exit code, and its stdout and stderr as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def check_row(row):
    """Checks a golden row against cli.main, run in the current directory."""
    assert golden.result(row, run_bytes) == row


@pytest.mark.parametrize(
    "row", [row for row in golden.ROWS if row.tier == "tier1"], ids=lambda row: row.argv
)
def test_output_matches_golden_digest(row, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    check_row(row)


def test_every_pinned_digest_lives_once_in_the_golden_table():
    root = pathlib.Path(__file__).resolve().parent.parent
    places = collections.defaultdict(list)
    for path in [*root.glob("tests/*.py"), *root.glob(".github/workflows/*.yml")]:
        for digest in re.findall(r"\b[0-9a-f]{64}\b", path.read_text(encoding="utf-8")):
            places[digest].append(path.name)
    pinned = {
        value
        for row in golden.ROWS
        for value in (row.stdout, row.out)
        if value is not None and re.fullmatch("[0-9a-f]{64}", value)
    }
    assert places == {digest: ["golden.py"] for digest in pinned}
    argvs = [row.argv for row in golden.ROWS]
    assert len(set(argvs)) == len(argvs)
    assert {row.tier for row in golden.ROWS} == {"tier1", "ci"}


# ---------------------------------------------------------------------------
# verify


def test_verify_usage_errors(capsys):
    # not a golden row: argparse versions quote the choice list differently
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1
    assert err.startswith("usage error: argument suite: invalid choice: 'nonsense'")


def test_verify_reports_failures_with_inputs(capsys, monkeypatch):
    # force a failure to check the failing-case report path
    from graphenergy import bounds

    real = bounds.edge_deletion_check

    def broken(whole, reduced):
        check = real(whole, reduced)
        return type(check)(lhs=check.lhs, rhs=check.rhs, holds=False)

    monkeypatch.setattr("graphenergy.bounds.edge_deletion_check", broken)
    code, out, _ = run(capsys, "verify", "lemma", "--trials", "2", "--seed", "0")
    assert code == 1
    # the graphs and edges pin the order in which the seed's stream is read
    assert out == (
        "lemma: 0/2 pass\n"
        "  FAIL trial 0: random_graph(n=3, m=1, seed=487617019471545679), edge=(1, 2), "
        "lhs=2.0, rhs=2.0\n"
        "  FAIL trial 1: random_graph(n=9, m=31, seed=3207296026000306913), edge=(0, 4), "
        "lhs=15.920074334524337, rhs=18.055251741299003\n"
    )


# ---------------------------------------------------------------------------
# integer arguments


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


INTEGER_TOKENS = (
    st.text()
    | st.integers(-10, 5000).map(str)
    | st.integers(-(2**70), 2**70).map(str)
    | st.lists(
        st.sampled_from(["-", "+", "0", "3", "9", "_", " ", "\n", "\u0663", "--", "-h", "=", "e"]),
        max_size=6,
    ).map("".join)
)


@given(INTEGER_TOKENS)
@example("--")  # a `--` value, refused before argparse reads the arguments
@example("-0")
@settings(deadline=None)
def test_cli_exit_code_is_0_exactly_for_plain_integers_in_range(t):
    # `--` and `--seed=` keep argparse from reading a token such as -h as an option
    plain = re.fullmatch("-?[0-9]+", t) is not None
    assert exit_code(["gen", "cycle", "--", t]) == (0 if plain and 3 <= int(t) <= 4096 else 1)
    seed_ok = plain and 0 <= int(t) < 2**64
    assert exit_code(["verify", "lemma", "--trials", "1", f"--seed={t}"]) == (0 if seed_ok else 1)


# ---------------------------------------------------------------------------
# general CLI behavior


def test_gen_writes_its_text_without_an_encoded_copy(tmp_path):
    import subprocess
    import sys

    # VmHWM, the peak resident size of a fresh interpreter's own memory:
    # ru_maxrss would also count the RSS of this process, which spawns it
    script = """if True:
        import sys
        from graphenergy import cli, graphcore
        def peak_kib():
            with open("/proc/self/status") as status:
                return next(int(s.split()[1]) for s in status if s.startswith("VmHWM:"))
        g = graphcore.paley(2017)
        text = graphcore.format_edge_list(g)
        graphcore.FAMILIES["paley"] = lambda p: g
        graphcore.format_edge_list = lambda graph: text
        before = peak_kib()
        cli.main(["gen", "paley", "2017", "--out", sys.argv[1]])
        print((peak_kib() - before) * 1024 / len(text))
    """
    path = tmp_path / "p2017.txt"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[:3] == ["n 2017", "m 1016568", "k 1008"]
    # one write of the whole text grows the peak by the text's length, its
    # encoded copy
    assert float(proc.stdout.splitlines()[3]) <= 0.25
    assert path.read_text().splitlines()[0] == "2017 1016568"


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "graphenergy", "gen", "paley", "13"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("13 39\n")
    assert "k 6" in proc.stderr
