import numpy as np
import pytest

from graphenergy import graphcore, spectral


@pytest.fixture(scope="session")
def family_spectra():
    """One matrix -> spectrum dict for the session, filled by shared_spectrum."""
    return {}


@pytest.fixture(scope="session")
def paley_spectra_200(family_spectra):
    """Eigensolver spectra for every valid Paley prime up to 200."""
    primes = graphcore.paley_primes(5, 200)
    graphs = [graphcore.paley(p) for p in primes]
    return dict(zip(primes, spectral.shared_spectrum(family_spectra, graphs)))


@pytest.fixture(scope="session")
def ring_spectra_12(family_spectra):
    """Eigensolver spectra for the ring of cliques, q = 3..12."""
    graphs = [graphcore.ring_of_cliques(q) for q in range(3, 13)]
    return dict(zip(range(3, 13), spectral.shared_spectrum(family_spectra, graphs)))


@pytest.fixture(scope="session")
def paley_spectrum_401():
    return spectral.eigenvalues(graphcore.paley(401))


@pytest.fixture
def solve_counter(monkeypatch):
    """Replace the Jacobi solver with LAPACK for speed; the returned list
    gets the order of every matrix solved, each matrix of a stack counted."""
    calls = []

    def lapack(matrix, sizes=None):
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim == 2:
            calls.append(a.shape[0])
            return np.linalg.eigvalsh(a)[::-1]
        calls.extend(int(n) for n in sizes)
        return [np.linalg.eigvalsh(m[:n, :n])[::-1] for m, n in zip(a, sizes)]

    monkeypatch.setattr("graphenergy.spectral.jacobi_eigenvalues", lapack)
    return calls


@pytest.fixture
def solver_calls(monkeypatch):
    """Record every call of the Jacobi solver, which still runs: None for a
    lone matrix, the list of sizes for a stack."""
    calls = []
    real = spectral.jacobi_eigenvalues

    def recording(matrix, sizes=None):
        calls.append(None if sizes is None else [int(n) for n in sizes])
        return real(matrix, sizes)

    monkeypatch.setattr("graphenergy.spectral.jacobi_eigenvalues", recording)
    return calls


@pytest.fixture
def stores(monkeypatch):
    """Record each dict handed to spectral.shared_spectrum, in order of first use."""
    seen = []
    real = spectral.shared_spectrum

    def recording(spectra, graphs):
        if not any(spectra is s for s in seen):
            seen.append(spectra)
        return real(spectra, graphs)

    monkeypatch.setattr(spectral, "shared_spectrum", recording)
    return seen
