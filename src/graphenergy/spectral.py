"""Dense symmetric eigendecomposition and graph-spectrum quantities.

The eigensolver is a cyclic Jacobi iteration written here rather than taken
from a library: it is simple, unconditionally stable for symmetric input,
and accurate on the heavily degenerate spectra of the graph families this
package studies. Closed-form spectra for those families, graph energy and
two of the four invariant-checking suites, trace_suite and
closed_forms_suite, live here too; lemma_suite and bounds_suite are in
bounds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import tolerances as tol
from .finitefield import check_integer
from .graphcore import (
    Graph,
    check_paley_parameter,
    check_ring_parameter,
    family_corpus,
    random_graph,
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


def _jacobi_sweep(a: np.ndarray, skip: float) -> None:
    """One cyclic sweep of rotations over matrix a, in place; entries with
    |a_pq| < skip are left alone. Each rotation updates rows p and q in
    place as one 2 x n block, blk - S @ blk with one BLAS product. Since a
    stays exactly symmetric, the columns follow from the rows: row q is
    copied to column q after each rotation, and row p to column p once,
    after the last rotation of pivot row p. That is exact: while row p is
    open, column p is read only as the block's entry a_qp, which feeds only
    the new a_pp and a_qp, both overwritten by the pivot update, and rows
    above p are not read again in the sweep. BLAS may fuse multiply-adds,
    so the last ulp can depend on the BLAS build.

    Every scalar is read and written as a Python float through a memoryview
    of the same buffer (one per row of a, one flat one of the 2 x 2 S), so
    each read sees the live value. numpy's scalar path costs about twice as
    much per access (a.item(p, q) 0.08 us against 0.03 us, a store into S
    0.07 us against 0.03 us), and a paley(401) solve makes about 1.2M pair
    reads and 1.2M more scalar accesses in its rotations. The product is
    rot.dot(blk, out=prod) and the update two contiguous row subtracts,
    cheaper calls than matmul and the strided blk -= prod for the same
    arithmetic."""
    n = a.shape[0]
    rot = np.empty((2, 2))
    prod = np.empty((2, n))
    prod_p, prod_q = prod
    rot_flat = memoryview(rot).cast("B").cast("d")
    rows = list(a)
    views = [memoryview(row) for row in rows]
    for p in range(n - 1):
        row_p, view_p = rows[p], views[p]
        rotated = False
        for q, apq in enumerate(view_p[p + 1 :], p + 1):
            if abs(apq) < skip:
                continue
            row_q, view_q = rows[q], views[q]
            app, aqq = view_p[p], view_q[q]
            t, s, half = _rotation(app, aqq, apq, math.sqrt)
            # the correction form blk - S @ blk, not the direct (I - S) @ blk:
            # for tiny angles c rounds to 1.0 and the direct form stops
            # contracting the off-diagonal mass
            rot_flat[0] = rot_flat[3] = s * half
            rot_flat[1] = s
            rot_flat[2] = -s
            rot.dot(a[p : q + 1 : q - p], out=prod)  # rows p and q, a view
            np.subtract(row_p, prod_p, out=row_p)
            np.subtract(row_q, prod_q, out=row_q)
            view_p[p] = app - t * apq
            view_q[q] = aqq + t * apq
            view_p[q] = view_q[p] = 0.0
            a[:, q] = row_q
            rotated = True
        if rotated:
            a[:, p] = row_p.copy()


def _stack_sweep(a: np.ndarray, live: np.ndarray, skip: np.ndarray) -> None:
    """_jacobi_sweep on each matrix a[i], i in `live`, with its own skip: each
    pair (p, q) rotates at once every live matrix whose |a_pq| >= skip. The
    batched product runs one 2 x 2 by 2 x N gemm per matrix, as a lone solve
    does. Both columns are written after every pair: deferring column p, as
    the scalar loop does, measured no faster here."""
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
            pq = slice(p, q + 1, q - p)
            blk = a[idx, pq]
            rot = np.empty((idx.size, 2, 2))
            rot[:, 0, 0] = rot[:, 1, 1] = s * half
            rot[:, 0, 1] = s
            rot[:, 1, 0] = -s
            new = blk - rot @ blk
            new[:, 0, p] = app - t * apq
            new[:, 1, q] = aqq + t * apq
            new[:, 0, q] = new[:, 1, p] = 0.0
            a[idx, pq] = new
            a[idx, :, p] = new[:, 0]
            a[idx, :, q] = new[:, 1]


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
    sweeps -- a partial result is never returned, and ValueError if an
    eigenvalue lies beyond the float64 range. An array whose dtype is not
    bool, integer or float (complex, text, bytes, datetime, timedelta or
    object) is refused with ValueError.

    A stack runs every matrix's own scaling, thresholds and convergence
    test, one pair (p, q) at a time across the stack, so each spectrum is
    bit for bit the one the matrix gets alone with the same BLAS. Entries
    outside a matrix's block must be zero.
    """
    a = np.asarray(matrix)
    if a.dtype.kind not in "biuf":
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
    top = np.abs(np.diagonal(a, axis1=1, axis2=2)).max(axis=1, initial=0.0)
    if np.any(np.frexp(top)[1] - shift > np.finfo(np.float64).maxexp):
        raise ValueError("the spectrum exceeds the float64 range")
    return [np.ldexp(np.sort(np.diagonal(m)[:n])[::-1], -s) for m, n, s in zip(a, sizes, shift)]


# Graphs up to this order share one zero-padded Jacobi stack; larger ones are
# solved alone. On one core of a 2-CPU Xeon host (CPU time, 3 runs each), the
# 1400 distinct random graphs of `verify lemma --trials 1000 --seed 1`
# (n <= 12) solve 8-10x faster stacked (0.17-0.21 s against 1.7-1.9 s), and
# family graphs 4-7x slower (the 31 closed-forms graphs, n = 5..197: 1.4-2.2 s
# alone, 8.0-10.2 s stacked; paley(13), ring_of_cliques(4) and paley(17):
# 0.005 s alone, 0.022 s stacked). The random suites draw no graph above n = 12.
_STACK_MAX_N = 12


def eigenvalues(graphs):
    """Adjacency spectra, sorted descending, of a list of graphs, in input
    order; of one Graph g, eigenvalues([g])[0]. The graphs with n <= 12 are
    solved as one zero-padded Jacobi stack, each larger graph alone."""
    single = isinstance(graphs, Graph)
    graphs = [graphs] if single else list(graphs)
    if any(g.n < 1 for g in graphs):
        raise ValueError("spectrum needs at least one vertex")
    small = [g for g in graphs if g.n <= _STACK_MAX_N]
    n = max((g.n for g in small), default=0)
    stack = np.zeros((len(small), n, n), dtype=bool)
    for block, g in zip(stack, small):
        block[: g.n, : g.n] = g.adjacency
    stacked = iter(jacobi_eigenvalues(stack, [g.n for g in small]) if small else [])
    vals = [
        next(stacked) if g.n <= _STACK_MAX_N else jacobi_eigenvalues(g.adjacency)
        for g in graphs
    ]
    return vals[0] if single else vals


def shared_spectrum(spectra: dict, graphs) -> list:
    """eigenvalues(graphs), each distinct matrix solved once per `spectra`, the
    caller's own dict keyed by the bytes of the boolean matrix: they fix n and
    every entry, so K_3 and C_3 share one solve. The matrices not yet in the
    dict go to one eigenvalues call and are stored there read-only."""
    graphs = list(graphs)
    keys = [g.adjacency.tobytes() for g in graphs]
    new = {key: g for key, g in zip(keys, graphs) if key not in spectra}
    for key, vals in zip(new, eigenvalues(new.values())):
        vals.setflags(write=False)
        spectra[key] = vals
    return [spectra[key] for key in keys]


def spectrum_energy(vals) -> float:
    """Energy of a spectrum: the sum of its absolute values."""
    return float(np.abs(vals).sum())


def energy(g: Graph) -> float:
    """Graph energy: the sum of absolute adjacency eigenvalues."""
    return spectrum_energy(eigenvalues(g))


def paley_spectrum_closed(p) -> np.ndarray:
    """Closed-form Paley spectrum, sorted descending.

    (p-1)/2 once, and (-1 +- sqrt(p))/2 each with multiplicity (p-1)/2.
    p above tolerances.MAX_DENSE_N**2 is refused before anything is allocated:
    its p values would outnumber the entries of the largest dense matrix.
    """
    value = check_paley_parameter(p)
    if value > tol.MAX_DENSE_N**2:
        raise ValueError(f"closed-form Paley spectrum needs p <= {tol.MAX_DENSE_N**2}, got {value}")
    half = (value - 1) // 2
    root = math.sqrt(value)
    return np.concatenate(
        [
            [float(half)],
            np.full(half, (-1.0 + root) / 2.0),
            np.full(half, (-1.0 - root) / 2.0),
        ]
    )


def check_closed_ring_size(q) -> int:
    """q as an int, refusing an invalid ring parameter, then a q above
    tolerances.MAX_DENSE_N: its closed spectrum's q^2 values would outnumber
    the entries of the largest dense matrix."""
    q = check_ring_parameter(q)
    if q > tol.MAX_DENSE_N:
        raise ValueError(f"closed-form ring spectrum needs q <= {tol.MAX_DENSE_N}, got {q}")
    return q


def ring_clique_spectrum_closed(q: int) -> np.ndarray:
    """Closed-form ring-of-cliques spectrum, sorted descending.

    The graph is the Cartesian product of the cycle C_q and the clique K_q,
    so its eigenvalues are all pairwise sums: 2cos(2 pi r / q) + (q - 1)
    once per r, and 2cos(2 pi r / q) - 1 with multiplicity q - 1 per r.
    The identification is validated against the eigensolver by
    closed_forms_suite and the test suite before anything relies on it.
    q above tolerances.MAX_DENSE_N is refused by check_closed_ring_size
    before anything is allocated.

    Adding a constant keeps the descending ring values in order, so both
    blocks come out sorted and only the q ring values are sorted. The blocks
    meet in exact arithmetic at q = 3 and q = 4; where rounding leaves the
    top block's least value below the bottom block's greatest (q = 3), the
    q^2 values are sorted whole.
    """
    q = check_closed_ring_size(q)
    ring = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(q) / q))[::-1]
    top, bottom = ring + (q - 1.0), ring - 1.0
    vals = np.concatenate([top, np.repeat(bottom, q - 1)])
    if top[-1] < bottom[0]:
        return np.sort(vals)[::-1].copy()
    return vals


_CLOSED_SPECTRA = {"paley": paley_spectrum_closed, "ring_of_cliques": ring_clique_spectrum_closed}


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


# Random trials drawn, solved and checked at a time, so that a suite holds one
# chunk's graphs and stack at a time; 1000 lemma trials are still one stack.
_TRIAL_CHUNK = 2048


def random_graphs(trials: int, stream, min_n: int, min_m: int):
    """`trials` labeled random graphs, n in min_n..12 and m in min_m..n(n-1)/2,
    each drawn from `stream` as it is read, so a caller may draw from it between two graphs."""
    for _ in range(trials):
        n = min_n + next(stream) % (13 - min_n)
        m = min_m + next(stream) % (n * (n - 1) // 2 + 1 - min_m)
        s = next(stream)
        yield f"random_graph(n={n}, m={m}, seed={s})", random_graph(n, m, s)


def trial_chunks(items):
    """Lists of at most _TRIAL_CHUNK consecutive items of `items`, read lazily."""
    items = iter(items)
    while chunk := list(itertools.islice(items, _TRIAL_CHUNK)):
        yield chunk


def trace_suite(trials: int, seed: int, spectra: dict) -> SuiteResult:
    """Check the two trace identities, sum(l) = 0 and sum(l^2) = 2m, over the
    32 family graphs with n <= 100, solved in one shared_spectrum call on
    `spectra`, and `trials` random_graphs, one trial_chunks chunk per fresh dict."""
    trials = check_integer(trials, "trials")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    stream = splitmix64(seed)  # refuses a bad seed before any solve
    result = SuiteResult("trace")

    def check(store, cases):
        for (label, g), vals in zip(cases, shared_spectrum(store, [g for _, g in cases])):
            trace = float(vals.sum())
            sumsq = float((vals * vals).sum())
            ok = abs(trace) <= tol.TRACE_TOL and abs(sumsq - 2 * g.m) <= tol.TRACE_SQ_TOL
            result.check(ok, f"{label}: sum(l)={trace:.3e}, sum(l^2)-2m={sumsq - 2 * g.m:.3e}")

    corpus = family_corpus(97, 10, (1, 2, 3, 5, 10, 25), (3, 4, 5, 10, 25), (1, 4))
    check(spectra, [(f"{family}({param})", g) for family, param, g in corpus])
    for chunk in trial_chunks(random_graphs(trials, stream, 1, 0)):
        check({}, chunk)
    return result


def closed_forms_suite(spectra: dict) -> SuiteResult:
    """Check the eigensolver against both closed-form spectra, entrywise, on
    the Paley graphs with p <= 200 and the rings of cliques with q <= 12,
    all solved in one shared_spectrum call on `spectra`."""
    result = SuiteResult("closed-forms")
    cases = list(family_corpus(200, 12, (), ()))
    for (family, param, _), vals in zip(cases, shared_spectrum(spectra, [g for *_, g in cases])):
        dev = float(np.abs(vals - _CLOSED_SPECTRA[family](param)).max())
        result.check(dev <= tol.CLOSED_SPECTRUM_TOL, f"{family}({param}): max deviation {dev:.3e}")
    return result
