"""Property: the lock-step SA engine equals per-seed scalar SA on every backend.

:class:`~repro.batched.engine.BatchedSimulatedAnnealer` runs the HyCiM sweep
kernels with every incumbent counted feasible.  On integer-valued QUBOs --
with or without a linear inequality filter, from feasible or infeasible
starts -- each replica must reproduce the scalar
:class:`~repro.annealing.sa.SimulatedAnnealer` run with the same seed and
filter exactly: best energy, best configuration and all three proposal
counters, on the ``reference``, ``fused`` and ``packed`` backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedSimulatedAnnealer
from repro.batched.kernels import batched_inequality_verdicts
from repro.core.constraints import InequalityConstraint
from repro.core.qubo import QUBOModel
from repro.dynamics.schedule import GeometricSchedule


@st.composite
def sa_case(draw):
    """A random integer QUBO, replica starts, seeds and an optional
    inequality whose bound may leave some starts infeasible."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    matrix = rng.integers(-30, 31, size=(n, n)).astype(float)
    offset = float(draw(st.integers(-20, 20)))
    starts = rng.integers(0, 2, size=(m, n)).astype(float)
    constraint = None
    if draw(st.booleans()):
        weights = rng.integers(0, 10, size=n).astype(float)
        bound = float(rng.integers(0, int(weights.sum()) + 1))
        constraint = InequalityConstraint(weights, bound)
    seeds = [draw(st.integers(0, 2**32 - 1)) for _ in range(m)]
    return (QUBOModel(matrix, offset), starts, constraint, seeds,
            draw(st.integers(1, 40)), draw(st.integers(1, 3)))


@pytest.mark.parametrize("backend", ["reference", "fused", "packed"])
@given(case=sa_case())
@settings(max_examples=40, deadline=None)
def test_batched_sa_equals_scalar_sa_per_seed(backend, case):
    qubo, starts, constraint, seeds, iterations, moves = case
    annealer = SimulatedAnnealer(
        schedule=GeometricSchedule(8.0, 0.1), num_iterations=iterations,
        moves_per_iteration=moves)
    if constraint is None:
        filters = {}
        accept_filter = None
    else:
        accept_filter = constraint.is_satisfied
        filters = dict(
            accept_filter=accept_filter,
            accept_filter_batch=lambda batch: batched_inequality_verdicts(
                constraint.weight_vector, constraint.bound, batch),
            feasibility_constraints=[constraint])
    batched = BatchedSimulatedAnnealer(annealer).anneal(
        qubo, starts, [np.random.default_rng(seed) for seed in seeds],
        kernel=backend, **filters)
    for k, seed in enumerate(seeds):
        scalar = annealer.anneal(qubo, initial=starts[k],
                                 accept_filter=accept_filter,
                                 rng=np.random.default_rng(seed))
        result = batched[k]
        assert result.best_energy == scalar.best_energy
        np.testing.assert_array_equal(result.best_configuration,
                                      scalar.best_configuration)
        assert result.num_feasible_evaluations == \
            scalar.num_feasible_evaluations
        assert result.num_infeasible_skipped == scalar.num_infeasible_skipped
        assert result.num_accepted_moves == scalar.num_accepted_moves
        assert result.metadata.get("kernel", "reference") == backend
