"""Dense symmetric eigendecomposition and graph-spectrum quantities.

The eigensolver is a cyclic Jacobi iteration written here rather than taken
from a library: it is simple, unconditionally stable for symmetric input,
and accurate on the heavily degenerate spectra of the graph families this
package studies. Closed-form spectra for those families, graph energy and
the invariant-checking suites live here too.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import tolerances as tol
from .graphcore import (
    Graph,
    check_paley_parameter,
    check_ring_parameter,
    family_corpus,
    paley,
    paley_primes,
    random_graph,
    ring_of_cliques,
    splitmix64,
)

__all__ = [
    "ConvergenceError",
    "SuiteResult",
    "closed_forms_suite",
    "eigenvalues",
    "energy",
    "jacobi_eigenvalues",
    "paley_spectrum_closed",
    "ring_clique_spectrum_closed",
    "shared_spectrum",
    "spectrum_energy",
    "trace_suite",
]


class ConvergenceError(RuntimeError):
    """The Jacobi iteration did not reach its tolerance within the sweep cap."""


def _off_norm(a: np.ndarray) -> float:
    # Summing off-diagonal squares directly avoids the catastrophic
    # cancellation of total - diagonal, whose error floor (eps * 2m) would
    # swamp a converged off-norm.
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float((off * off).sum()))


def _jacobi_sweep(a: np.ndarray, skip: float) -> None:
    """One cyclic sweep of Givens rotations, in place.

    Entries with |a_pq| < skip are left alone. Updates use the correction
    form x - s*(y + half*x) rather than the direct c*x - s*y: for tiny
    angles c rounds to 1.0 and the direct form stops contracting the
    off-diagonal mass.
    """
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if abs(apq) < skip:
                continue
            app = a[p, p]
            aqq = a[q, q]
            tau = (aqq - app) / (2.0 * apq)
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            half = s / (1.0 + c)  # tan of half the rotation angle
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            new_p = col_p - s * (col_q + half * col_p)
            new_q = col_q + s * (col_p - half * col_q)
            a[:, p] = new_p
            a[p, :] = new_p
            a[:, q] = new_q
            a[q, :] = new_q
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted descending.

    Threshold-cyclic Jacobi on a private float64 copy: each sweep visits
    every index pair but rotates only entries at or above off(A)/n, where
    off(A) is the off-diagonal Frobenius norm at the start of the sweep.
    The threshold tightens as the iteration converges; without it, sweeps
    spend most rotations stirring below-average entries of exactly
    degenerate spectra and the tail converges impractically slowly.

    An exact power-of-two scaling first brings max|a| into [1, 2) (a 0/1
    adjacency matrix is left as is) and is undone on the eigenvalues.
    Converged once off(A) < JACOBI_OFF_TOL_PER_N * n after scaling. Raises
    ConvergenceError if that does not happen within JACOBI_MAX_SWEEPS
    sweeps -- a partial result is never returned.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no inf or NaN)")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    amax = max(a.max(), -a.min())
    shift = 1 - math.frexp(amax)[1] if amax else 0
    np.ldexp(a, shift, out=a)
    threshold = tol.JACOBI_OFF_TOL_PER_N * n
    for sweep in range(tol.JACOBI_MAX_SWEEPS + 1):
        off = _off_norm(a)
        if off < threshold:
            break
        if sweep == tol.JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"off-diagonal norm {off:.3e} still above {threshold:.3e} "
                f"after {sweep} sweeps (n={n})"
            )
        _jacobi_sweep(a, off / n)
    return np.ldexp(np.sort(np.diagonal(a))[::-1], -shift)


def eigenvalues(g: Graph) -> np.ndarray:
    """Adjacency spectrum of g, sorted descending."""
    if g.n < 1:
        raise ValueError("spectrum needs at least one vertex")
    return jacobi_eigenvalues(g.adjacency)


def shared_spectrum(spectra: dict, label: str, g: Graph) -> np.ndarray:
    """eigenvalues(g), solved the first time `label` is seen in `spectra`
    and stored there read-only; later calls return the stored array.

    `spectra` is the caller's own mapping from corpus label (`paley(13)`)
    to spectrum, so suites that share one solve each graph once.
    """
    vals = spectra.get(label)
    if vals is None:
        vals = eigenvalues(g)
        vals.setflags(write=False)
        spectra[label] = vals
    return vals


def spectrum_energy(vals) -> float:
    """Energy of a spectrum: the sum of its absolute values."""
    return float(np.abs(vals).sum())


def energy(g: Graph) -> float:
    """Graph energy: the sum of absolute adjacency eigenvalues."""
    return spectrum_energy(eigenvalues(g))


def paley_spectrum_closed(p) -> np.ndarray:
    """Closed-form Paley spectrum, sorted descending.

    (p-1)/2 once, and (-1 +- sqrt(p))/2 each with multiplicity (p-1)/2.
    """
    value = check_paley_parameter(p)
    half = (value - 1) // 2
    root = math.sqrt(value)
    return np.concatenate(
        [
            [float(half)],
            np.full(half, (-1.0 + root) / 2.0),
            np.full(half, (-1.0 - root) / 2.0),
        ]
    )


def ring_clique_spectrum_closed(q: int) -> np.ndarray:
    """Closed-form ring-of-cliques spectrum, sorted descending.

    The graph is the Cartesian product of the cycle C_q and the clique K_q,
    so its eigenvalues are all pairwise sums: 2cos(2 pi r / q) + (q - 1)
    once per r, and 2cos(2 pi r / q) - 1 with multiplicity q - 1 per r.
    The identification is validated against the eigensolver by
    closed_forms_suite and the test suite before anything relies on it.
    """
    q = check_ring_parameter(q)
    ring = 2.0 * np.cos(2.0 * np.pi * np.arange(q) / q)
    vals = np.concatenate([ring + (q - 1.0), np.repeat(ring - 1.0, q - 1)])
    return np.sort(vals)[::-1].copy()


class SuiteResult:
    """Pass/fail tally of one verification suite."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.passed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, case: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(case)

    @property
    def total(self) -> int:
        return self.passed + len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        return f"SuiteResult({self.name}: {self.passed}/{self.total} pass)"


def _random_graphs(trials: int, stream):
    """`trials` random graphs with n <= 12, labeled, drawn from `stream`."""
    for _ in range(trials):
        n = 1 + next(stream) % 12
        m = next(stream) % (n * (n - 1) // 2 + 1)
        s = next(stream)
        yield f"random_graph(n={n}, m={m}, seed={s})", random_graph(n, m, s)


def trace_suite(trials: int, seed: int, spectra: dict) -> SuiteResult:
    """Check the two trace identities, sum(l) = 0 and sum(l^2) = 2m, over
    the 32 family graphs with n <= 100 and `trials` seeded random graphs.
    Spectra are looked up in and stored into `spectra` (see shared_spectrum)."""
    result = SuiteResult("trace")
    randoms = _random_graphs(trials, splitmix64(seed))
    families = family_corpus(97, 10, (1, 2, 3, 5, 10, 25), (3, 4, 5, 10, 25), (1, 4))
    for label, g in itertools.chain(families, randoms):
        vals = shared_spectrum(spectra, label, g)
        trace = float(vals.sum())
        sumsq = float((vals * vals).sum())
        ok = abs(trace) <= tol.TRACE_TOL and abs(sumsq - 2 * g.m) <= tol.TRACE_SQ_TOL
        result.check(ok, f"{label}: sum(l)={trace:.3e}, sum(l^2)-2m={sumsq - 2 * g.m:.3e}")
    return result


def closed_forms_suite(spectra: dict) -> SuiteResult:
    """Check the eigensolver against both closed-form spectra, entrywise, on
    the Paley graphs with p <= 200 and the rings of cliques with q <= 12.
    Spectra are looked up in and stored into `spectra` (see shared_spectrum)."""
    result = SuiteResult("closed-forms")
    cases = itertools.chain(
        ((paley, paley_spectrum_closed, p) for p in paley_primes(5, 200)),
        ((ring_of_cliques, ring_clique_spectrum_closed, q) for q in range(3, 13)),
    )
    for build, closed, param in cases:
        label = f"{build.__name__}({param})"
        vals = shared_spectrum(spectra, label, build(param))
        dev = float(np.abs(vals - closed(param)).max())
        result.check(dev <= tol.CLOSED_SPECTRUM_TOL, f"{label}: max deviation {dev:.3e}")
    return result
