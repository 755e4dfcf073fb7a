"""graphenergy benchmark: four CLI workloads, checked outputs, layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's `graphenergy` commands
(`python3 -m graphenergy`, the console script's module form, on `src/`) one
after another, each starting after the previous one exited, and repeats the
whole pass until `--seconds` have gone by. Every output is checked. The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` (a
command that exits non-zero or whose output check fails) and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: the median
pass wall time, checked items per second, set-up time (median of several
fresh-interpreter set-ups) and the largest child RSS. The times and the rate
are scaled for the host's speed while each child ran, as measured by a
reference kernel timed alongside it (see "host speed" below); the raw
figures are printed too. `--trace 1` alternates
an untraced pass with a traced one, in which each command runs under
`perfbench/tracer.py`, and reports the per-layer metrics, the tracing
overhead and the share of traced wall time outside every layer span.

Children get a pinned environment: one BLAS/OpenMP thread, a fixed hash
seed, `PYTHONPATH=src`, and run on one CPU, the lowest this process may use.
Machine metadata is printed before the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

THREADS = "1"  # BLAS/OpenMP threads in every process, never above nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7
RUN_LIMIT_S = 170.0  # children still running this long after start are killed

CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C",
    **{var: THREADS for var in THREAD_VARS},
}
os.environ.update({var: THREADS for var in THREAD_VARS})


# ---------------------------------------------------------------------------
# output checks: each returns (checked items, error message or None)

Check = Callable[[int, bytes, bytes], "tuple[int, str | None]"]


def check_verify(expected: dict[str, int]) -> Check:
    """`<suite>: N/N pass` per suite, in order, matched by prefix so that
    text appended to a line (a margin, say) does not fail the check."""

    def check(code, out, err):
        lines = out.decode("ascii", "replace").splitlines()
        want = [f"{suite}: {n}/{n} pass" for suite, n in expected.items()]
        if code != 0 or len(lines) != len(want):
            return 0, f"exit {code}, {len(lines)} lines: {lines[:6]!r}"
        for line, prefix in zip(lines, want):
            if not line.startswith(prefix):
                return 0, f"expected {prefix!r}, got {line!r}"
        return sum(expected.values()), None

    return check


def check_energy(family: str, param: int) -> Check:
    """n, m, k exactly; energy and ratio against the closed forms."""
    from graphenergy import bounds, tolerances

    if family == "paley":
        n, k, m = param, (param - 1) // 2, param * (param - 1) // 4
        energy = bounds.paley_energy_closed(param)
    else:
        n, k, m = param * param, param + 1, param * param * (param + 1) // 2
        energy = bounds.ring_clique_energy_closed(param)
    e0 = bounds.e0(n, k)
    # The entrywise spectrum tolerance summed over n eigenvalues, plus the
    # rounding of a value printed to 12 significant digits.
    tol = n * tolerances.CLOSED_SPECTRUM_TOL + 1e-11 * energy

    def check(code, out, err):
        try:
            fields = dict(line.split(" ", 1) for line in out.decode("ascii", "replace").splitlines())
            exact = (int(fields["n"]), int(fields["m"]), int(fields["k"])) == (n, m, k)
            got_energy, got_ratio = float(fields["energy"]), float(fields["ratio"])
        except (KeyError, ValueError):
            return 0, f"exit {code}, unreadable report {out[:300]!r}"
        if code != 0 or not exact:
            return 0, f"exit {code}, report {fields!r}, expected n {n} m {m} k {k}"
        if abs(got_energy - energy) > tol or abs(got_ratio - energy / e0) > tol / e0:
            return 0, f"energy {got_energy!r} ratio {got_ratio!r}, closed form {energy!r} (tol {tol:.2e})"
        return 1, None

    return check


def check_digest(sha256: str, stderr: bytes = b"") -> Check:
    """stdout byte-identical to the seed commit's (by digest); one item per
    line after the header: a CSV row or an edge line."""

    def check(code, out, err):
        digest = hashlib.sha256(out).hexdigest()
        if code != 0 or digest != sha256 or err != stderr:
            return 0, f"exit {code}, stdout sha256 {digest}, stderr {err[:200]!r}"
        return out.count(b"\n") - 1, None

    return check


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    graphs: tuple[str, ...]  # inputs the set-up writes, as make_inputs.py GRAPH
    commands: Callable[[int], list[Command]]  # seed -> commands of one pass
    spans: tuple[str, ...]  # layer spans a traced pass must fire


# Suite sizes at the default corpora: trace has 11 Paley primes <= 97,
# 8 rings, 6 complete, 5 cycles, 2 empty graphs plus the trials;
# closed-forms has 21 Paley primes <= 200 and 10 rings; bounds adds
# K_1..K_50 and C_3..C_50 to those 31.
def _verify_all(seed):
    sizes = {"lemma": 100, "trace": 32 + 100, "closed-forms": 31, "bounds": 129}
    args = ("verify", "all", "--trials", "100", "--seed", str(seed))
    return [Command(args, check_verify(sizes))]


def _lemma_small(seed):
    args = ("verify", "lemma", "--trials", "1000", "--seed", str(seed))
    return [Command(args, check_verify({"lemma": 1000}))]


def _energy_large(seed):
    return [
        Command(("energy", str(WORK / "paley-401.txt")), check_energy("paley", 401)),
        Command(("energy", str(WORK / "ring-clique-16.txt")), check_energy("ring-clique", 16)),
    ]


# Digests of the seed commit's stdout. The ring sweep stops at q = 300 on
# purpose: closed mode computes the O(q^2 log q) closed spectrum twice per
# row, and 3..2000 ran 83 s on the seed.
def _closed_sweep(seed):
    return [
        Command(
            ("ratio-table", "paley", "5..1000000", "--mode", "closed"),
            check_digest("81a43a5e97a3dd75fbcb49b988e03a82ceafe30786a677b4b828773a29955be4"),
        ),
        Command(
            ("ratio-table", "ring-clique", "3..300", "--mode", "closed"),
            check_digest("b09f0c928f30f26c762fd66c90ef2f191bd4ddced744cc86668df646eef83a8b"),
        ),
        Command(
            ("gen", "paley", "1009"),
            check_digest(
                "709110df9dad8ad6e7dd56c915881fa8e16be15dfbce18704c7d87e0a240e14b",
                stderr=b"n 1009\nm 254268\nk 504\n",
            ),
        ),
    ]


SUITE_SPANS = ("bounds.lemma_suite", "spectral.trace_suite", "spectral.closed_forms_suite", "bounds.bounds_suite")
WORKLOADS = {
    # Jacobi is ~99% of the time; 692 solves, about half of them repeats.
    "verify-all": Workload(
        (), _verify_all,
        ("cli.main", *SUITE_SPANS, "spectral.jacobi_eigenvalues", "graphcore.paley",
         "graphcore.ring_of_cliques", "graphcore.random_graph", "graphcore.delete_edge",
         "finitefield.is_prime", "spectral.paley_spectrum_closed",
         "spectral.ring_clique_spectrum_closed", "bounds.e0"),
    ),
    # 4,000 solves with n <= 12: per-call overhead, not O(n^3) work.
    "lemma-small": Workload(
        (), _lemma_small,
        ("cli.main", "bounds.lemma_suite", "bounds.edge_deletion_check", "graphcore.random_graph",
         "graphcore.delete_edge", "spectral.eigenvalues", "spectral.jacobi_eigenvalues"),
    ),
    # Two large solves of seed-relabeled inputs, plus parsing 42,276 edges.
    "energy-large": Workload(
        ("paley:401", "ring-clique:16"), _energy_large,
        ("cli.main", "graphcore.read_edge_list", "graphcore.parse_edge_list",
         "graphcore.from_edge_list", "spectral.eigenvalues", "spectral.jacobi_eigenvalues", "bounds.e0"),
    ),
    # No eigensolve: primality, closed forms, CSV and edge-list formatting.
    # The seed does not change its inputs.
    "closed-sweep": Workload(
        (), _closed_sweep,
        ("cli.main", "graphcore.paley_primes", "finitefield.is_prime",
         "graphcore.check_paley_parameter", "bounds.ratio_table", "bounds.paley_energy_closed",
         "bounds.ring_clique_energy_closed", "spectral.ring_clique_spectrum_closed",
         "graphcore.paley", "graphcore.format_edge_list"),
    ),
}


# ---------------------------------------------------------------------------
# running children


@dataclass
class Child:
    code: int
    start: float
    wall_s: float
    rss_mb: float
    cpu_s: float
    out: bytes
    err: bytes


def run_child(argv: list[str], deadline: float) -> Child:
    """Run one process to its end; wall time, RSS and CPU come from wait4."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT
        )
        timer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(
        code=proc.returncode,
        start=start,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        out=out_path.read_bytes(),
        err=err_path.read_bytes(),
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, cmd: Command, child: Child) -> int:
        items, error = cmd.check(child.code, child.out, child.err)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAIL graphenergy {' '.join(cmd.args)}: {error}")
        return items


# Stands in for the record of a traced command that died before writing one;
# the command is already counted as failed.
NO_RECORD = {"stats": {}, "jacobi": [], "edges": {}, "lapack_s": 0.0, "import_s": 0.0, "top_s": 0.0, "post_s": 0.0}


def run_pass(commands: list[Command], tally: Tally, deadline: float, traced: bool = False):
    """One pass through the commands; returns (children, traced records, items)."""
    children, records, items = [], [], 0
    record_path = WORK / "trace.json"
    for cmd in commands:
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(record_path), "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "graphenergy", *cmd.args]
        child = run_child(argv, deadline)
        items += tally.check(cmd, child)
        children.append(child)
        if traced:
            records.append(json.loads(record_path.read_text()) if record_path.exists() else NO_RECORD)
            record_path.unlink(missing_ok=True)
    return children, records, items


def set_up(workload: Workload, seed: int, reps: int, deadline: float) -> list[Child]:
    """Set-ups in fresh interpreters, after one untimed run that also fills
    the bytecode cache."""
    argv = [sys.executable, str(BENCH / "make_inputs.py"), str(WORK), str(seed), *workload.graphs]
    timed = []
    for rep in range(reps + 1):
        child = run_child(argv, deadline)
        if child.code != 0:
            raise RuntimeError(f"set-up failed with exit {child.code}: {child.err.decode()[-2000:]}")
        if rep:
            timed.append(child)
    return timed


# ---------------------------------------------------------------------------
# host speed
#
# The shared host's speed swings by up to 1.8x within seconds and drifts over
# minutes, so raw times of the same code spread past any usable bound. A
# thread of this process therefore times a short reference kernel every
# SAMPLE_PERIOD_S on the CPU the children are pinned to (it takes about 3% of
# that CPU from the child), and end-to-end times are reported scaled to a
# host on which the kernel takes REF_S:
#   scaled = measured * REF_S / kernel time while the children ran.
# The kernel time is a mean, since the program slows in proportion to the
# share of time the host is slow, with the slowest TRIM of the samples
# dropped: those are the ones the child or this process's main thread
# interrupted. The kernel is the benchmark's own code, never the program's,
# so a change to the program moves scaled times exactly as it moves raw ones.

# A fixed scale, about the kernel's trimmed mean on the baseline host (see
# BASELINE.md). Changing it rescales every result, so it never changes.
REF_S = 0.0008
SAMPLE_PERIOD_S = 0.03
TRIM = 0.2


def reference_kernel() -> float:
    """What the workloads do most: small numpy column updates driven from
    Python float arithmetic (the Jacobi rotations), and Python integer
    arithmetic (primality, formatting)."""
    a = np.arange(144, dtype=np.float64).reshape(12, 12) / 144.0
    acc = 0.0
    for i in range(100):
        p, q = i % 11, 11 - i % 11
        col = a[:, p].copy()
        a[:, p] = col - 0.001 * (a[:, q] + 0.5 * col)
        acc += math.sqrt(abs(float(a[p, q])) + 1.0)
    total = 0
    for i in range(5000):
        total += i * i % 7
    return acc + total


class SpeedSampler(threading.Thread):
    """Times the reference kernel every SAMPLE_PERIOD_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (end, seconds)
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(SAMPLE_PERIOD_S):
            start = perf_counter()
            reference_kernel()
            end = perf_counter()
            self.samples.append((end, end - start))

    def stop(self):
        self.done.set()
        self.join()

    def scale(self, children: list[Child]) -> float:
        """REF_S over the kernel time while these children ran, or over the
        whole run's if no sample fell inside them."""
        inside = [s for end, s in self.samples if any(c.start <= end <= c.start + c.wall_s for c in children)]
        return REF_S / trimmed_mean(inside or [s for _, s in self.samples])


def trimmed_mean(samples: list[float]) -> float:
    """Mean without the slowest TRIM of the samples."""
    kept = sorted(samples)[: max(1, round(len(samples) * (1 - TRIM)))]
    return statistics.fmean(kept)


# ---------------------------------------------------------------------------
# metrics


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"tail n/a ({n} samples, needs 11)"
    return f"p{100.0 * (n - 10) / n:.1f} {sorted(samples)[n - 11]:.6f}"


def layer_metrics(children: list[Child], records: list[dict], untraced: list[Child]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    stats: dict[str, list[float]] = {}
    for rec in records:
        for name, (calls, incl, self_s) in rec["stats"].items():
            total = stats.setdefault(name, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += incl
            total[2] += self_s
    zero = [0, 0.0, 0.0]

    def calls(name):
        return stats.get(name, zero)[0]

    def incl(*names):
        return sum(stats.get(name, zero)[1] for name in names)

    def self_s(name):
        return stats.get(name, zero)[2]

    def ratio(num, den):
        return num / den if den else 0.0

    jacobi = [tuple(call) for rec in records for call in rec["jacobi"]]
    jac_s = sum(t for _, t, _ in jacobi)
    lapack_s = sum(rec["lapack_s"] for rec in records)
    edges = {}
    for rec in records:
        for name, count in rec["edges"].items():
            edges[name] = edges.get(name, 0) + count
    builders = [f"graphcore.{b}" for b in ("paley", "ring_of_cliques", "complete", "cycle", "random_graph", "delete_edge")]
    traced_wall = sum(c.wall_s - r["post_s"] for c, r in zip(children, records))
    return {
        "spectral.jacobi.calls": len(jacobi),
        "spectral.jacobi.unique_frac": ratio(len({key for _, _, key in jacobi}), len(jacobi)),
        "spectral.jacobi.s": jac_s,
        "spectral.jacobi.s_small": sum(t for n, t, _ in jacobi if n <= 16),
        "spectral.jacobi.s_mid": sum(t for n, t, _ in jacobi if 16 < n <= 200),
        "spectral.jacobi.s_large": sum(t for n, t, _ in jacobi if n > 200),
        "spectral.jacobi.n3_per_s": ratio(sum(float(n) ** 3 for n, _, _ in jacobi), jac_s),
        "spectral.closed.s": incl("spectral.paley_spectrum_closed", "spectral.ring_clique_spectrum_closed"),
        "spectral.lapack_floor_s": lapack_s,
        "spectral.jacobi.vs_lapack": ratio(jac_s, lapack_s),
        "finitefield.is_prime.calls": calls("finitefield.is_prime"),
        "finitefield.is_prime.s": incl("finitefield.is_prime"),
        "graphcore.check_paley_parameter.calls": calls("graphcore.check_paley_parameter"),
        "graphcore.paley_primes.s": incl("graphcore.paley_primes"),
        "graphcore.build.calls": sum(calls(b) for b in builders),
        "graphcore.build.s": incl(*builders),
        "graphcore.format_edge_list.edges_per_s": ratio(
            edges.get("graphcore.format_edge_list", 0), incl("graphcore.format_edge_list")
        ),
        "graphcore.parse_edge_list.edges_per_s": ratio(
            edges.get("graphcore.parse_edge_list", 0), incl("graphcore.parse_edge_list")
        ),
        "bounds.lemma_suite.self_s": self_s("bounds.lemma_suite"),
        "bounds.bounds_suite.self_s": self_s("bounds.bounds_suite"),
        "spectral.trace_suite.self_s": self_s("spectral.trace_suite"),
        "spectral.closed_forms_suite.self_s": self_s("spectral.closed_forms_suite"),
        "bounds.ratio_table.self_s": self_s("bounds.ratio_table"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.import_s": sum(rec["import_s"] for rec in records),
        "cli.cpu_s": sum(c.cpu_s for c in untraced),
        "trace.overhead_s": traced_wall - sum(c.wall_s for c in untraced),
        "trace.uncovered_frac": ratio(traced_wall - sum(rec["top_s"] for rec in records), traced_wall),
    }


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']} {blas.get('openblas configuration', '')}".strip()
    except (TypeError, KeyError):
        blas_text = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": int(THREADS),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    if not (SRC / "graphenergy" / "cli.py").is_file():
        print(f"no graphenergy sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))

    print("machine " + json.dumps(machine()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    # One CPU for this process, its threads and every child, so that the
    # speed sampler times the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    tally = Tally()
    try:
        if args.trace:
            metrics, missing = traced_run(workload, commands, args, tally, deadline)
        else:
            metrics, missing = untraced_run(workload, commands, args, tally, deadline), []
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 2
    for name in missing:
        print(f"FAIL expected span {name} never fired")
    print(f"error_frac {tally.failed / tally.attempted:.6g} frac ({tally.failed}/{tally.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.9g} {units[name]}")
    result = {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def untraced_run(workload, commands, args, tally, deadline) -> dict[str, float]:
    reference_kernel()  # warm-up: first-call costs
    sampler = SpeedSampler()
    sampler.start()
    try:
        setups = [(c.wall_s, sampler.scale([c])) for c in set_up(workload, args.seed, SETUP_REPS, deadline)]
        walls, scaled, rates, rss = [], [], [], []
        start = perf_counter()
        while not walls or perf_counter() - start < args.seconds:
            children, _, items = run_pass(commands, tally, deadline)
            wall, scale = sum(c.wall_s for c in children), sampler.scale(children)
            walls.append(wall)
            scaled.append(wall * scale)
            rates.append(items / wall / scale)
            rss.append(max(c.rss_mb for c in children))
            print(f"pass {len(walls)} wall_s {wall:.6f} scaled {scaled[-1]:.6f} items {items} "
                  f"peak_rss_mb {rss[-1]:.1f}")
    finally:
        sampler.stop()
    kernel = [s for _, s in sampler.samples]
    print(f"reference kernel samples {len(kernel)}: trimmed mean {trimmed_mean(kernel):.6f} s, "
          f"median {statistics.median(kernel):.6f} s, {tail(kernel)}")
    print(f"raw wall_s samples {len(walls)}: median {statistics.median(walls):.6f}, {tail(walls)}")
    print(f"scaled wall_s samples {len(scaled)}: median {statistics.median(scaled):.6f}, {tail(scaled)}")
    setup_scaled = [wall * scale for wall, scale in setups]
    print(f"raw setup_s samples {len(setups)}: median {statistics.median(w for w, _ in setups):.6f}")
    print(f"scaled setup_s samples {len(setups)}: median {statistics.median(setup_scaled):.6f}, {tail(setup_scaled)}")
    return {
        "wall_s": statistics.median(scaled),
        "items_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": max(rss),
    }


def traced_run(workload, commands, args, tally, deadline):
    set_up(workload, args.seed, 0, deadline)
    passes = []
    start = perf_counter()
    # A pair is started only if one more is expected to end within the
    # budget: a traced verify-all pair alone takes about 20 s.
    while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
        untraced, _, _ = run_pass(commands, tally, deadline)
        children, records, _ = run_pass(commands, tally, deadline, traced=True)
        passes.append(layer_metrics(children, records, untraced))
        print(f"pass {len(passes)} untraced wall_s {sum(c.wall_s for c in untraced):.6f} "
              f"traced wall_s {sum(c.wall_s for c in children):.6f}")
    fired = set()
    for rec in records:
        fired.update(name for name, (calls, _, _) in rec["stats"].items() if calls)
    missing = [name for name in workload.spans if name not in fired]
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    return metrics, missing


if __name__ == "__main__":
    sys.exit(main())
