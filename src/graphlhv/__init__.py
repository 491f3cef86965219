"""Communication-assisted local-hidden-variable models on graph states.

The library predicts Pauli-measurement outcomes on graph states two
independent ways (stabilizer structure and dense state vectors), simulates a
one-round nearest-neighbor protocol that reproduces every global prediction,
verifies submeasurements against the oracle, and certifies two impossibility
results (bounded communication distance; site invariance) as inconsistent
GF(2) parity systems.

Importing the package loads none of its modules: each exported name, and each
module as an attribute, is imported on first access (PEP 562), so a command
pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# the names each module exports, in the order `from graphlhv import *` binds them
_EXPORTS = {
    "graphs": (
        "CLOCKWISE_2X3", "Graph", "GraphFormatError", "UnsupportedSizeError",
        "automorphism_orbits", "automorphisms", "ball", "chain", "complete_bipartite",
        "graph_from_json", "grid", "is_chain", "named_graph", "orbits", "padded_ring", "ring",
        "star",
    ),
    "pauli": (
        "Measurement", "PhasedPauli", "generator", "generator_product", "is_submeasurement",
        "multiply",
    ),
    "oracle": (
        "Verdict", "classify", "enumerate_stabilizer_measurements", "stabilizer_word",
        "statevector_verdict",
    ),
    "lhv": (
        "NO_COMMUNICATION", "SYMMETRIC_RULES", "STANDARD_RULES", "CommunicationState",
        "FlipProtocol", "FlipRules", "ProtocolOutputs", "all_assignments",
        "communication_round", "derive_xy", "product_report", "run",
    ),
    "nogo": (
        "CertainSubmeasurement", "ContextVariable", "DistanceCertificate", "Equation",
        "GF2Solution", "OrbitVariable", "ParityConstraintSystem", "SubmeasurementReport",
        "certify_distance", "distance_bound", "distance_constraint_system",
        "embedded_grid_counterexample", "find_certain_submeasurements", "gf2_solve",
        "measurement_view", "site_invariance_system", "verify_all_submeasurements",
    ),
    "chain_protocol": (
        "ChainBroadcast", "ChainReport", "NotStabilizerShaped", "Sentence", "Word",
        "compare_readings", "decompose", "decomposition_sign", "flip_sites_for",
        "verify_chain_exhaustive",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name: str) -> object:
    """Import a module, or the module that defines an exported name, on first
    access; a name is then kept in this module's globals, so later lookups are
    plain attribute reads."""
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value
