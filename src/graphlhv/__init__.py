"""Communication-assisted local-hidden-variable models on graph states.

The library predicts Pauli-measurement outcomes on graph states two
independent ways (stabilizer structure and dense state vectors), simulates a
one-round nearest-neighbor protocol that reproduces every global prediction,
verifies submeasurements against the oracle, and certifies two impossibility
results (bounded communication distance; site invariance) as inconsistent
GF(2) parity systems.
"""

from .graphs import (
    CLOCKWISE_2X3,
    Graph,
    GraphFormatError,
    UnsupportedSizeError,
    automorphism_orbits,
    automorphisms,
    ball,
    chain,
    complete_bipartite,
    graph_from_json,
    grid,
    is_chain,
    named_graph,
    orbits,
    padded_ring,
    ring,
    star,
)
from .pauli import (
    Measurement,
    PhasedPauli,
    generator,
    generator_product,
    is_submeasurement,
    multiply,
)
from .oracle import (
    Verdict,
    classify,
    enumerate_stabilizer_measurements,
    stabilizer_word,
    statevector_verdict,
)
from .lhv import (
    NO_COMMUNICATION,
    SYMMETRIC_RULES,
    STANDARD_RULES,
    CommunicationState,
    FlipProtocol,
    FlipRules,
    ProtocolOutputs,
    all_assignments,
    communication_round,
    derive_xy,
    product_report,
    run,
)
from .nogo import (
    CertainSubmeasurement,
    ContextVariable,
    DistanceCertificate,
    Equation,
    GF2Solution,
    OrbitVariable,
    ParityConstraintSystem,
    SubmeasurementReport,
    certify_distance,
    distance_bound,
    distance_constraint_system,
    embedded_grid_counterexample,
    find_certain_submeasurements,
    gf2_solve,
    measurement_view,
    site_invariance_system,
    verify_all_submeasurements,
)
from .chain_protocol import (
    ChainBroadcast,
    ChainReport,
    NotStabilizerShaped,
    Sentence,
    Word,
    compare_readings,
    decompose,
    decomposition_sign,
    flip_sites_for,
    verify_chain_exhaustive,
)

__version__ = "0.1.0"
