"""`gf2_solve` against brute force over every assignment.

The solver is one forward elimination (`nogo._eliminate`) over the equations'
rows with the sign bit on top; these properties check its verdict, witness
and certificate on small systems, empty and repeated equations included,
without sharing any of its code.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from graphlhv.nogo import Equation, ParityConstraintSystem, gf2_solve  # noqa: E402


@st.composite
def parity_systems(draw):
    nvars = draw(st.integers(0, 8))
    variables = tuple(f"v{i}" for i in range(nvars))
    # a row may be empty (no variable at all); whole equations may repeat
    rows = draw(st.lists(
        st.tuples(st.integers(0, (1 << nvars) - 1), st.sampled_from((1, -1))), max_size=12
    ))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    equations = tuple(Equation(row, sign, f"e{i}") for i, (row, sign) in enumerate(rows))
    return ParityConstraintSystem(variables, equations)


def _satisfies(equations, values):
    # values: one bit per variable, in order, the bit 1 standing for the value -1
    return all(
        (-1) ** sum(b for i, b in enumerate(values) if eq.row >> i & 1) == eq.sign
        for eq in equations
    )


def _solvable(system, count):
    equations = system.equations[:count]
    return any(
        _satisfies(equations, bits)
        for bits in itertools.product((0, 1), repeat=len(system.variables))
    )


@settings(max_examples=300, deadline=None)
@given(parity_systems())
def test_gf2_solve_matches_brute_force(system):
    sol = gf2_solve(system)
    assert sol.consistent == _solvable(system, len(system.equations))
    if sol.consistent:
        assert sol.certificate is None
        nvars = len(system.variables)
        assert 0 <= sol.witness < 1 << nvars  # one bit per variable, bit i for variables[i]
        assert _satisfies(system.equations, [sol.witness >> i & 1 for i in range(nvars)])
        return
    assert sol.witness is None
    cert = sol.certificate
    assert list(cert) == sorted(set(cert))
    row, sign = 0, 1
    for i in cert:
        row ^= system.equations[i].row
        sign *= system.equations[i].sign
    assert (row, sign) == (0, -1)
    # the certificate ends at the first equation that makes the prefix unsolvable
    first = next(k for k in range(1, len(system.equations) + 1) if not _solvable(system, k))
    assert cert[-1] == first - 1
