"""The public surface: what `graphenergy` exports, and that nothing is stale."""

import importlib
import pkgutil
import re
from pathlib import Path

import graphenergy

PUBLIC = [
    "ConvergenceError",
    "EdgeDeletionCheck",
    "EnergyReport",
    "Graph",
    "RatioRow",
    "SuiteResult",
    "bounds_suite",
    "check_paley_parameter",
    "closed_forms_suite",
    "complete",
    "cycle",
    "delete_edge",
    "e0",
    "edge_deletion_check",
    "eigenvalues",
    "empty",
    "energy",
    "energy_report",
    "format_edge_list",
    "from_edge_list",
    "is_prime",
    "jacobi_eigenvalues",
    "lemma_suite",
    "paley",
    "paley_energy_closed",
    "paley_primes",
    "paley_ratio_closed",
    "paley_ratio_lower",
    "paley_spectrum_closed",
    "parse_edge_list",
    "permute",
    "random_graph",
    "ratio_table",
    "read_edge_list",
    "ring_clique_energy_closed",
    "ring_clique_energy_upper",
    "ring_clique_ratio_upper",
    "ring_clique_spectrum_closed",
    "ring_of_cliques",
    "splitmix64",
    "trace_suite",
    "write_edge_list",
]


def test_package_exports_exactly_the_public_names():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 42
    assert graphenergy.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(graphenergy, name) is not None, name


def test_package_exports_the_union_of_its_modules_all():
    from graphenergy import bounds, finitefield, graphcore, spectral

    modules = (bounds, finitefield, graphcore, spectral)
    assert graphenergy.__all__ == sorted(name for mod in modules for name in mod.__all__)


def test_every_submodule_export_is_defined_in_its_module():
    modules = [
        importlib.import_module(f"graphenergy.{info.name}")
        for info in pkgutil.iter_modules(graphenergy.__path__)
        if info.name != "__main__"
    ]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert {mod.__name__ for mod in exporting} >= {
        "graphenergy.bounds",
        "graphenergy.finitefield",
        "graphenergy.graphcore",
        "graphenergy.spectral",
    }
    for mod in exporting:
        for name in mod.__all__:
            assert name in vars(mod), f"{mod.__name__}.__all__ names undefined {name!r}"
            home = getattr(vars(mod)[name], "__module__", mod.__name__)
            assert home == mod.__name__, f"{mod.__name__}.__all__ re-exports {name!r} from {home}"


def test_readme_library_example_runs():
    # CI runs this test against the installed package too
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (example,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    exec(example, {})
