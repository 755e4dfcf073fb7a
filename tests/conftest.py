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
