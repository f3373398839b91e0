"""Kochen-Specker inequality laboratory.

Pauli sign-group algebra, quantum expectation engines, classical bound
oracles, finite hidden-variable models, and a CLI tying them together.

The public names and the submodules resolve lazily (PEP 562):
``import kslab`` loads no submodule, and the first access to a name
imports the one module that defines it, so numpy loads only with a name
that needs it.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "certificates": (
        "ContradictionCertificate",
        "ghz_certificate",
        "peres_mermin_certificate",
    ),
    "errors": ("VerificationError",),
    "experiment": (
        "evaluate_experiment",
        "ingest_correlators",
        "required_words",
    ),
    "fine_model": (
        "FiniteHVModel",
        "apply_spectrally",
        "build_model",
        "check_D",
        "check_FUNC",
        "check_JD",
        "check_PROD",
        "check_indicator_pullback",
        "check_measure_lemma",
        "indicator_matrix",
        "random_commuting_family",
        "random_measure_space",
        "run_fine_suite",
        "spectrum_subsets",
    ),
    "hv_oracle": (
        "ENUMERATION_CAP",
        "Assignment",
        "BoundReport",
        "HvknReport",
        "bruteforce_report",
        "g_value",
        "halfgroup_sums",
        "verify_hvkn",
    ),
    "inequalities": (
        "InequalityReport",
        "decide_violation",
        "multipartite_bound",
        "multipartite_report",
        "scan",
        "scan_to_csv",
        "scan_to_json",
        "two_partite_report",
    ),
    "pauli": (
        "IdentityReport",
        "LambdaIndex",
        "PauliString",
        "commutes",
        "lambda_element",
        "pauli_mul",
        "verify_sum_identities",
    ),
    "states": (
        "DenseState",
        "GhzSuperposition",
        "ProductState",
        "WernerState",
        "bell_fidelity",
        "expectation",
        "f_value",
        "maximally_mixed",
        "parse_state_spec",
        "pi_vector",
        "random_density",
        "read_dense_state",
        "to_density_matrix",
        "write_dense_state",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as ``kslab.pauli``
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
