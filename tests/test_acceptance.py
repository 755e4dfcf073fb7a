"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The per-criterion lines bypass pytest's capture, so a plain
`pytest tests/test_acceptance.py` shows them; `-v` adds the per-test
verdicts. Session fixtures (conftest.py) share the expensive eigensolver
runs between criteria.
"""

import math

import numpy as np

from graphenergy import cli
from graphenergy.bounds import (
    bounds_suite,
    e0,
    paley_energy_closed,
    paley_ratio_closed,
    paley_ratio_lower,
    ring_clique_energy_closed,
    ring_clique_energy_upper,
)
from graphenergy.graphcore import cycle, paley_primes
from graphenergy.spectral import (
    energy,
    paley_spectrum_closed,
    ring_clique_spectrum_closed,
)

SPECTRUM_TOL = 1e-7
ENERGY_TOL = 1e-6
RATIO_TOL = 1e-5
BOUND_TOL = 1e-8


def _report(capsys, criterion: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
              + (f" -- {detail}" if detail and not ok else ""))
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_paley_spectrum_exactness(paley_spectra_200, capsys):
    bad = []
    for p, vals in paley_spectra_200.items():
        dev = float(np.abs(vals - paley_spectrum_closed(p)).max())
        if dev > SPECTRUM_TOL:
            bad.append(f"p={p} dev={dev:.3e}")
    _report(capsys, "1: paley spectra match closed form for p <= 200", not bad, "; ".join(bad))


def test_criterion_2_paley_energy(paley_spectra_200, capsys):
    dev13 = abs(float(np.abs(paley_spectra_200[13]).sum()) - 6 * (1 + math.sqrt(13)))
    energy5 = float(np.abs(paley_spectra_200[5]).sum())
    dev5 = abs(energy5 - 2 * (1 + math.sqrt(5)))
    dev5_cycle = abs(energy5 - energy(cycle(5)))
    ok = dev13 <= ENERGY_TOL and dev5 <= ENERGY_TOL and dev5_cycle <= ENERGY_TOL
    _report(
        capsys,
        "2: paley energies at p=13 (27.63331) and p=5 (6.47214, the 5-cycle)",
        ok,
        f"dev13={dev13:.3e} dev5={dev5:.3e} dev5_cycle={dev5_cycle:.3e}",
    )


def test_criterion_3_paley_ratio_trend(paley_spectra_200, paley_spectrum_401, capsys):
    problems = []

    ratio13 = float(np.abs(paley_spectra_200[13]).sum()) / e0(13, 6)
    if abs(ratio13 - 0.971286) > RATIO_TOL:
        problems.append(f"eigensolver ratio at 13 = {ratio13!r}")

    primes = paley_primes(5, 10**4)
    closed = [paley_ratio_closed(p) for p in primes]
    if not all(b > a for a, b in zip(closed, closed[1:])):
        problems.append("closed ratio not strictly increasing on primes <= 10^4")
    if not paley_ratio_closed(401) > 0.998:
        problems.append(f"closed ratio at 401 = {paley_ratio_closed(401)!r}")

    for p in primes:
        if not paley_energy_closed(p) > p**1.5 / 2.0:
            problems.append(f"energy chain fails at {p}")
            break
    for p, r in zip(primes, closed):
        if not r > paley_ratio_lower(p):
            problems.append(f"ratio chain fails at {p}")
            break

    ratio401 = float(np.abs(paley_spectrum_401).sum()) / e0(401, 200)
    if not ratio401 > 0.998:
        problems.append(f"eigensolver ratio at 401 = {ratio401!r}")
    if abs(ratio401 - paley_ratio_closed(401)) > SPECTRUM_TOL:
        problems.append(f"eigensolver/closed ratio mismatch at 401: {ratio401!r}")

    _report(capsys, "3: paley ratio trend toward 1 with proof-chain bounds",
            not problems, "; ".join(problems))


def test_criterion_4_ring_of_cliques_small_case(ring_spectra_12, capsys):
    vals = ring_spectra_12[3]
    en = float(np.abs(vals).sum())
    ratio = en / e0(9, 4)
    expected_ratio = 16.0 / (4.0 + math.sqrt(160.0))
    problems = []
    if abs(en - 16.0) > BOUND_TOL:
        problems.append(f"energy={en!r}")
    if abs(ratio - 0.961013) > RATIO_TOL or abs(ratio - expected_ratio) > RATIO_TOL:
        problems.append(f"ratio={ratio!r}")
    if abs(float(vals.sum())) > 1e-8:
        problems.append(f"trace={float(vals.sum()):.3e}")
    if abs(float((vals**2).sum()) - 36.0) > 1e-6:
        problems.append(f"sum of squares={float((vals**2).sum())!r}")
    _report(capsys, "4: ring of cliques q=3 exact energy 16 and ratio 0.961013",
            not problems, "; ".join(problems))


def test_criterion_5_ring_bound_and_trend(ring_spectra_12, capsys):
    problems = []
    for q, vals in ring_spectra_12.items():
        if float(np.abs(vals).sum()) > ring_clique_energy_upper(q) + BOUND_TOL:
            problems.append(f"eigensolver energy exceeds 4q^2-2q at q={q}")
    ratios = {}
    for q in range(3, 201):
        en = ring_clique_energy_closed(q)
        ratios[q] = en / e0(q * q, q + 1)
        if en > ring_clique_energy_upper(q) + BOUND_TOL:
            problems.append(f"closed energy exceeds 4q^2-2q at q={q}")
    if not ratios[100] < 0.3:
        problems.append(f"ratio at q=100 is {ratios[100]!r}")
    if not all(ratios[q + 1] < ratios[q] for q in range(20, 200)):
        problems.append("closed ratio not strictly decreasing on 20..200")
    _report(capsys, "5: ring energy bound 4q^2-2q and ratio trend toward 0",
            not problems, "; ".join(problems))


def test_criterion_6_lemma_property_suite(capsys):
    code = cli.main(["verify", "lemma", "--trials", "200", "--seed", "42"])
    out = capsys.readouterr().out
    ok = code == 0 and "lemma: 200/200 pass" in out
    _report(capsys, "6: verify lemma --trials 200 --seed 42 passes 200/200", ok, out.strip())


def test_criterion_7_ring_closed_form_oracle(ring_spectra_12, capsys):
    bad = []
    for q, vals in ring_spectra_12.items():
        dev = float(np.abs(vals - ring_clique_spectrum_closed(q)).max())
        if dev > SPECTRUM_TOL:
            bad.append(f"q={q} dev={dev:.3e}")
    _report(capsys, "7: ring spectra match the product closed form for q = 3..12",
            not bad, "; ".join(bad))


def test_criterion_8_bound_sanity_over_corpus(family_spectra, capsys):
    # Reuses the Paley and ring spectra that criteria 1-7 solved, if any.
    result = bounds_suite(family_spectra)
    # 21 Paley primes <= 200, rings q = 3..12, K_1..K_50 and C_3..C_50
    _report(
        capsys,
        "8: energy <= e0 over the regular corpus, equality exactly for K_n",
        result.ok and result.total == 129,
        f"{result.total} cases; " + "; ".join(result.failures[:5]),
    )


def test_criterion_9_ratio_table_determinism(tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code1 = cli.main(["ratio-table", "paley", "5..401", "--mode", "closed", "--out", str(first)])
    code2 = cli.main(["ratio-table", "paley", "5..401", "--mode", "closed", "--out", str(second)])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    _report(capsys, "9: ratio-table paley 5..401 closed is byte-identical across runs", ok)
