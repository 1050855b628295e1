"""The float solve against the discrete problem solved in 40-digit decimal."""

import pytest

import hermvi as hv

from oracles import solve_decimal

#: Uniform meshes of 1 to 1024 elements; 256 and 512 are the 257- and 513-node rows of the reference table.
DYADIC = [2**k for k in range(11)]


@pytest.mark.parametrize("n", DYADIC)
def test_decimal_oracle_agrees_with_float_solve(paper, solve_cache, n):
    # on these meshes the band's entries barely round, so the float solve is
    # the discrete optimum to about 1e-5 (ROADMAP item 1 has the meshes where it is not)
    sol = solve_cache(n).solution
    oracle = solve_decimal(paper, sol.mesh, sol.active_nodes)
    assert oracle.active_nodes == sol.active_nodes and oracle.iterations == 1
    ours, theirs = hv.error_norms(sol, paper), hv.error_norms(oracle.rounded(sol.mesh), paper)
    for name in ("l2", "linf", "h1"):
        assert abs(getattr(ours, name) - getattr(theirs, name)) <= 5e-5 * getattr(theirs, name), name
