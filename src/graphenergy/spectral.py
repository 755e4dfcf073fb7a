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
import numbers

import numpy as np

from . import tolerances as tol
from .finitefield import check_integer
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
    "trace_suite",
]


class ConvergenceError(RuntimeError):
    """The Jacobi iteration did not reach its tolerance within the sweep cap."""


def _off_norms(a: np.ndarray, sizes: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix a[i], i in `live`, summed
    over its own sizes[i] x sizes[i] block."""
    # Summing off-diagonal squares directly avoids the catastrophic
    # cancellation of total - diagonal, whose error floor (eps * 2m) would
    # swamp a converged off-norm. Each sum runs over one n*n block, so it
    # adds in the same order for a matrix alone and in a stack.
    off = np.empty(live.size)
    live_sizes = sizes[live]
    for n in set(live_sizes.tolist()):
        sel = live_sizes == n
        sq = a[live[sel], :n, :n].reshape(-1, n * n)
        sq[:, :: n + 1] = 0.0
        sq *= sq
        off[sel] = np.sqrt(sq.sum(axis=1))
    return off


def _rotation(app, aqq, apq, sqrt):
    """tan t, sin s and tan of half the angle of the Jacobi rotation that
    zeroes a_pq; elementwise on floats with math.sqrt or on arrays with np.sqrt."""
    tau = (aqq - app) / (2.0 * apq)
    # t takes the sign of tau, counting tau = -0.0 as positive
    t = ((tau >= 0.0) * 2.0 - 1.0) / (abs(tau) + sqrt(1.0 + tau * tau))
    c = 1.0 / sqrt(1.0 + t * t)
    s = t * c
    return t, s, s / (1.0 + c)


def _rotate(row_p, row_q, s, half):
    """Rows p and q after the rotation, in the correction form x - s*(y + half*x)
    rather than the direct c*x - s*y: for tiny angles c rounds to 1.0 and the
    direct form stops contracting the off-diagonal mass."""
    return row_p - s * (row_q + half * row_p), row_q + s * (row_p - half * row_q)


def _jacobi_sweep(a: np.ndarray, skip: float) -> None:
    """One cyclic sweep of rotations over matrix a, in place; entries with
    |a_pq| < skip are left alone."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a.item(p, q)
            if abs(apq) < skip:
                continue
            app, aqq = a.item(p, p), a.item(q, q)
            t, s, half = _rotation(app, aqq, apq, math.sqrt)
            # views of rows p, q: a stays exactly symmetric, so they equal the columns
            new_p, new_q = _rotate(a[p], a[q], s, half)
            a[:, p] = new_p
            a[p, :] = new_p
            a[:, q] = new_q
            a[q, :] = new_q
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0


def _stack_sweep(a: np.ndarray, live: np.ndarray, skip: np.ndarray) -> None:
    """_jacobi_sweep on each matrix a[i], i in `live`, with its own skip: each
    pair (p, q) rotates at once every live matrix whose |a_pq| >= skip."""
    n = a.shape[1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[live, p, q]
            hit = np.abs(apq) >= skip
            if not hit.any():
                continue
            idx, apq = live[hit], apq[hit]
            app, aqq = a[idx, p, p], a[idx, q, q]
            t, s, half = _rotation(app, aqq, apq, np.sqrt)
            new_p, new_q = _rotate(a[idx, p], a[idx, q], s[:, None], half[:, None])
            a[idx, :, p] = new_p
            a[idx, p] = new_p
            a[idx, :, q] = new_q
            a[idx, q] = new_q
            a[idx, p, p] = app - t * apq
            a[idx, q, q] = aqq + t * apq
            a[idx, p, q] = 0.0
            a[idx, q, p] = 0.0


def jacobi_eigenvalues(matrix, sizes=None):
    """All eigenvalues of a real symmetric matrix, sorted descending; given a
    (b, N, N) stack and b integer `sizes`, a list of b spectra, matrix i
    being the stack's leading sizes[i] x sizes[i] block.

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
    sweeps -- a partial result is never returned. Entries other than real
    numbers (bool, int or float, or numbers.Real in an object array) are
    refused with ValueError: complex, text, bytes, datetimes, timedeltas.

    A stack runs every matrix's own scaling, thresholds and convergence
    test, one pair (p, q) at a time across the stack, so each spectrum is
    bit for bit the one the matrix gets alone. Entries outside a matrix's
    block must be zero.
    """
    a = np.asarray(matrix)
    if a.dtype == object:
        for x in a.flat:
            if not (np.asarray(x).dtype.kind in "biuf" or isinstance(x, numbers.Real)):
                kind = type(x).__name__
                raise ValueError(f"matrix entries must be real numbers, got a {kind} entry")
    elif a.dtype.kind not in "biuf":
        raise ValueError(f"matrix entries must be real numbers, got dtype {a.dtype}")
    a = np.array(a, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, or a stack of square ones, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no inf or NaN)")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValueError("matrix must be symmetric")
    if a.ndim == 2:
        if sizes is not None:
            raise ValueError("sizes applies only to a stack of matrices")
        return _solve(a[None], np.array([a.shape[0]]))[0]
    b, n = a.shape[:2]
    if np.shape(sizes) != (b,) or (b and np.asarray(sizes).dtype.kind not in "iu"):
        raise ValueError(f"a stack of {b} matrices needs {b} integer sizes, got {sizes!r}")
    if b and not 0 <= np.min(sizes) <= np.max(sizes) <= n:
        raise ValueError(f"sizes must be in 0..{n}, got {sizes!r}")
    sizes = np.asarray(sizes, dtype=np.int64)
    outside = np.arange(n) >= sizes[:, None]
    if np.any(a, where=outside[:, :, None] | outside[:, None, :]):
        raise ValueError("entries outside each matrix's sizes[i] x sizes[i] block must be zero")
    return _solve(a, sizes)


def _solve(a: np.ndarray, sizes: np.ndarray) -> list:
    """The spectra of the (b, N, N) stack a, scaled and swept in place. A
    sweep with one matrix left unconverged runs the scalar loop on its block."""
    amax = np.maximum(a.max(axis=(1, 2), initial=0.0), -a.min(axis=(1, 2), initial=0.0))
    shift = np.where(amax > 0.0, 1 - np.frexp(amax)[1], 0)
    np.ldexp(a, shift[:, None, None], out=a)
    threshold = tol.JACOBI_OFF_TOL_PER_N * sizes
    live = np.flatnonzero(sizes)
    for count in range(tol.JACOBI_MAX_SWEEPS + 1):
        off = _off_norms(a, sizes, live)
        keep = off >= threshold[live]
        live, off = live[keep], off[keep]
        if not live.size:
            break
        if count == tol.JACOBI_MAX_SWEEPS:
            i = live[0]
            where = f"matrix {i} of the stack: " if len(a) > 1 else ""
            raise ConvergenceError(
                f"{where}off-diagonal norm {off[0]:.3e} still above {threshold[i]:.3e} "
                f"after {count} sweeps (n={sizes[i]})"
            )
        skip = off / sizes[live]
        if live.size == 1:
            i, n = live[0], sizes[live[0]]
            _jacobi_sweep(a[i, :n, :n], float(skip[0]))
        else:
            _stack_sweep(a, live, skip)
    return [np.ldexp(np.sort(np.diagonal(m)[:n])[::-1], -s) for m, n, s in zip(a, sizes, shift)]


def eigenvalues(g):
    """Adjacency spectrum of g, sorted descending. Given a list of graphs,
    the list of their spectra, solved as one zero-padded Jacobi stack."""
    if isinstance(g, Graph):
        if g.n < 1:
            raise ValueError("spectrum needs at least one vertex")
        return jacobi_eigenvalues(g.adjacency)
    graphs = list(g)
    if not graphs:
        return []
    sizes = np.array([h.n for h in graphs])
    if sizes.min() < 1:
        raise ValueError("spectrum needs at least one vertex")
    n = sizes.max()
    stack = np.zeros((len(graphs), n, n), dtype=bool)
    for block, h in zip(stack, graphs):
        block[: h.n, : h.n] = h.adjacency
    return jacobi_eigenvalues(stack, sizes)


def shared_spectrum(spectra: dict, g):
    """eigenvalues(g), solved the first time g's adjacency matrix is seen in
    `spectra` and stored there read-only; later calls return the stored array.
    Given a list of graphs, the list of their spectra: the matrices not yet
    in `spectra` are solved together, as one stack.

    `spectra` is the caller's own dict, keyed by the bytes of the boolean
    matrix. They fix n and every entry, so suites that share the dict solve
    each distinct graph once, even under two names (K_3 and C_3).
    """
    single = isinstance(g, Graph)
    graphs = [g] if single else list(g)
    keys = [h.adjacency.tobytes() for h in graphs]
    new = {key: h for key, h in zip(keys, graphs) if key not in spectra}
    if new:
        solved = [eigenvalues(g)] if single else eigenvalues(list(new.values()))
        for key, vals in zip(new, solved):
            vals.setflags(write=False)
            spectra[key] = vals
    return spectra[keys[0]] if single else [spectra[key] for key in keys]


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


def random_graphs(trials: int, stream, min_n: int, min_m: int):
    """`trials` labeled random graphs, n in min_n..12 and m in min_m..n(n-1)/2,
    drawn from `stream` lazily, so a caller may draw from it between yields."""
    for _ in range(trials):
        n = min_n + next(stream) % (13 - min_n)
        m = min_m + next(stream) % (n * (n - 1) // 2 + 1 - min_m)
        s = next(stream)
        yield f"random_graph(n={n}, m={m}, seed={s})", random_graph(n, m, s)


def trace_suite(trials: int, seed: int, spectra: dict) -> SuiteResult:
    """Check the two trace identities, sum(l) = 0 and sum(l^2) = 2m, over
    the 32 family graphs with n <= 100 and `trials` seeded random graphs.
    Each distinct graph is solved once per `spectra` dict (see shared_spectrum):
    the random graphs as one stack, the family graphs one by one."""
    trials = check_integer(trials, "trials")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    result = SuiteResult("trace")
    randoms = list(random_graphs(trials, splitmix64(seed), 1, 0))
    shared_spectrum(spectra, [g for _, g in randoms])
    families = family_corpus(97, 10, (1, 2, 3, 5, 10, 25), (3, 4, 5, 10, 25), (1, 4))
    for label, g in itertools.chain(families, randoms):
        vals = shared_spectrum(spectra, g)
        trace = float(vals.sum())
        sumsq = float((vals * vals).sum())
        ok = abs(trace) <= tol.TRACE_TOL and abs(sumsq - 2 * g.m) <= tol.TRACE_SQ_TOL
        result.check(ok, f"{label}: sum(l)={trace:.3e}, sum(l^2)-2m={sumsq - 2 * g.m:.3e}")
    return result


def closed_forms_suite(spectra: dict) -> SuiteResult:
    """Check the eigensolver against both closed-form spectra, entrywise, on
    the Paley graphs with p <= 200 and the rings of cliques with q <= 12.
    Each distinct graph is solved once per `spectra` dict (see shared_spectrum)."""
    result = SuiteResult("closed-forms")
    cases = itertools.chain(
        ((paley, paley_spectrum_closed, p) for p in paley_primes(5, 200)),
        ((ring_of_cliques, ring_clique_spectrum_closed, q) for q in range(3, 13)),
    )
    for build, closed, param in cases:
        label = f"{build.__name__}({param})"
        vals = shared_spectrum(spectra, build(param))
        dev = float(np.abs(vals - closed(param)).max())
        result.check(dev <= tol.CLOSED_SPECTRUM_TOL, f"{label}: max deviation {dev:.3e}")
    return result
