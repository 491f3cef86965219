"""The package's lazy surface: every export resolves on first access to its
defining module's object, and `from graphlhv import *` binds the same names
as when every module was imported eagerly."""

import importlib
import subprocess
import sys

import pytest

import graphlhv

# what `from graphlhv import *` bound when the package imported every module
_STAR_NAMES = sorted("""
    CLOCKWISE_2X3 CertainSubmeasurement ChainBroadcast ChainReport CommunicationState
    ContextVariable DistanceCertificate Equation FlipProtocol FlipRules GF2Solution Graph
    GraphFormatError Measurement NO_COMMUNICATION NotStabilizerShaped OrbitVariable
    ParityConstraintSystem PhasedPauli ProtocolOutputs STANDARD_RULES SYMMETRIC_RULES Sentence
    SubmeasurementReport UnsupportedSizeError Verdict Word all_assignments automorphism_orbits
    automorphisms ball certify_distance chain chain_protocol classify communication_round
    compare_readings complete_bipartite decompose decomposition_sign derive_xy distance_bound
    distance_constraint_system embedded_grid_counterexample enumerate_stabilizer_measurements
    find_certain_submeasurements flip_sites_for generator generator_product gf2_solve
    graph_from_json graphs grid is_chain is_submeasurement lhv measurement_view multiply
    named_graph nogo oracle orbits padded_ring pauli product_report ring run
    site_invariance_system stabilizer_word star statevector_verdict verify_all_submeasurements
    verify_chain_exhaustive
""".split())
_MODULES = ("graphs", "pauli", "oracle", "lhv", "nogo", "chain_protocol")


def test_star_import_binds_the_former_names():
    namespace = {}
    exec("from graphlhv import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(graphlhv.__all__) == _STAR_NAMES


def test_every_export_is_its_defining_modules_object():
    for name in graphlhv.__all__:
        value = getattr(graphlhv, name)
        if name in _MODULES:
            assert value is importlib.import_module(f"graphlhv.{name}"), name
            continue
        home = importlib.import_module(f"graphlhv.{graphlhv._HOME[name]}")
        assert value is getattr(home, name), name
        # the home defines the name rather than importing it
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_modules_resolve_as_attributes_in_a_fresh_interpreter():
    probe = (
        "import graphlhv, sys\n"
        "before = sorted(k for k in sys.modules if k.startswith('graphlhv.'))\n"
        "print(before, graphlhv.nogo.__name__, graphlhv.cli.__name__, graphlhv.Graph.__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[] graphlhv.nogo graphlhv.cli Graph\n"), proc.stderr


def test_an_unknown_name_is_named_in_the_error():
    with pytest.raises(AttributeError, match="module 'graphlhv' has no attribute 'no_such_name'"):
        graphlhv.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from graphlhv import no_such_name  # noqa: F401
