"""Kernel-backend plumbing: params, run keys, fallbacks and failure modes.

``params["kernel"]`` travels from :func:`repro.runtime.run_trials` through
the batched trial functions into the engines; these tests pin the runtime
contract around it: per-seed results are backend-invariant, the default
backend canonicalises *out* of store run keys (old keys stay valid), scalar
solvers refuse the param instead of ignoring it, and the ``"auto"`` /
explicit backends fall back / fail the way :mod:`repro.kernels.base`
documents.
"""

import numpy as np
import pytest

from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedSimulatedAnnealer
from repro.dynamics.driver import LoopDriver
from repro.dynamics.schedule import GeometricSchedule
from repro.kernels import (
    KernelUnsupportedError,
    canonical_kernel_param,
    make_hycim_kernel,
    resolve_kernel_backend,
)
from repro.kernels.reference import ReferenceHyCiMKernel
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials
from repro.store import CampaignStore

from test_backend_parity import sa_kernel_args


@pytest.fixture(scope="module")
def problem():
    return generate_qkp_instance(num_items=20, density=0.5, seed=412,
                                 name="kernel_plumbing_qkp")


PARAMS = {"num_iterations": 60, "use_hardware": False}


class TestBackendNames:
    def test_default_resolution(self):
        assert resolve_kernel_backend(None) == "reference"
        assert resolve_kernel_backend("auto") == "auto"
        assert resolve_kernel_backend("fused") == "fused"

    def test_unknown_backend_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel_backend("fsued")

    def test_default_canonicalises_to_none(self):
        assert canonical_kernel_param(None) is None
        assert canonical_kernel_param("reference") is None
        assert canonical_kernel_param("fused") == "fused"
        assert canonical_kernel_param("auto") == "auto"


class TestRunTrialsParity:
    def test_fused_param_matches_default_per_seed(self, problem):
        default = run_trials(problem, "hycim", num_trials=4, params=PARAMS,
                             backend="vectorized", master_seed=6)
        fused = run_trials(problem, "hycim", num_trials=4,
                           params=dict(PARAMS, kernel="fused"),
                           backend="vectorized", master_seed=6)
        np.testing.assert_array_equal(default.best_energies,
                                      fused.best_energies)
        for a, b in zip(default.results, fused.results):
            assert a.trial_seed == b.trial_seed
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)
            assert a.num_accepted_moves == b.num_accepted_moves

    def test_kernel_param_routes_serial_backend_to_engine(self, problem):
        # Requesting a kernel forces the lock-step engine even on the
        # "serial" backend -- per-seed results still match the scalar path.
        serial = run_trials(problem, "hycim", num_trials=3, params=PARAMS,
                            backend="serial", master_seed=6)
        routed = run_trials(problem, "hycim", num_trials=3,
                            params=dict(PARAMS, kernel="fused"),
                            backend="serial", master_seed=6)
        np.testing.assert_array_equal(serial.best_energies,
                                      routed.best_energies)

    def test_scalar_only_solver_refuses_kernel_param(self, problem):
        with pytest.raises(ValueError, match="cannot honour"):
            run_trials(problem, "greedy", num_trials=1,
                       params={"kernel": "fused"})


class TestRunKeyStability:
    def test_explicit_reference_addresses_the_default_run(self, problem,
                                                          tmp_path):
        store = CampaignStore(tmp_path / "store")
        cold = run_trials(problem, "hycim", num_trials=3, params=PARAMS,
                          master_seed=6, store=store)
        assert cold.num_loaded_from_store == 0
        # Spelling out the default backend must hit the same persisted run.
        warm = run_trials(problem, "hycim", num_trials=3,
                          params=dict(PARAMS, kernel="reference"),
                          master_seed=6, store=store)
        assert warm.num_loaded_from_store == 3
        np.testing.assert_array_equal(cold.best_energies, warm.best_energies)

    def test_non_default_backend_addresses_its_own_run(self, problem,
                                                       tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_trials(problem, "hycim", num_trials=2, params=PARAMS,
                   master_seed=6, store=store)
        fused = run_trials(problem, "hycim", num_trials=2,
                           params=dict(PARAMS, kernel="fused"),
                           master_seed=6, store=store)
        # A fused run is only tolerance-equal on float data, so it must not
        # silently resolve to the reference run's shards.
        assert fused.num_loaded_from_store == 0


def _kernel_args(problem, *, single_flip=True, generic_filter=False):
    matrix = problem.to_qubo().matrix
    generators = [np.random.default_rng([9, k]) for k in range(3)]
    driver = LoopDriver(GeometricSchedule(10.0, 0.1), 10, generators)
    return sa_kernel_args(matrix, np.zeros((3, problem.num_variables)),
                          driver, generators,
                          constraints=None if generic_filter else (),
                          single_flip=single_flip)


class TestConstructionFallbacks:
    def test_auto_falls_back_to_reference_on_unsupported(self, problem):
        # An opaque per-row filter is not expressible incrementally: "auto"
        # lands on the reference kernel instead of raising.
        kernel = make_hycim_kernel("auto",
                                   **_kernel_args(problem, generic_filter=True))
        assert isinstance(kernel, ReferenceHyCiMKernel)
        assert kernel.backend == "reference"

    def test_explicit_fused_raises_on_unsupported(self, problem):
        with pytest.raises(KernelUnsupportedError, match="accept_filter"):
            make_hycim_kernel("fused",
                              **_kernel_args(problem, generic_filter=True))

    def test_explicit_fused_raises_on_generic_moves(self, problem):
        with pytest.raises(KernelUnsupportedError, match="single-flip"):
            make_hycim_kernel("fused",
                              **_kernel_args(problem, single_flip=False))

    def test_numba_is_an_unknown_backend(self, problem):
        with pytest.raises(ValueError,
                           match="unknown kernel backend 'numba'") as error:
            make_hycim_kernel("numba", **_kernel_args(problem))
        for name in ("reference", "fused", "packed", "auto"):
            assert repr(name) in str(error.value)

    def test_auto_never_fails_for_support_reasons(self, problem):
        # The QKP matrix is integer-valued, so auto lands on the fastest
        # backend, packed, on every host.
        kernel = make_hycim_kernel("auto", **_kernel_args(problem))
        assert kernel.backend == "packed"

    def test_auto_falls_back_to_fused_on_float_matrices(self, problem):
        # Non-integer coefficients void the popcount exactness guarantee:
        # packed refuses them, so auto lands on fused.
        args = _kernel_args(problem)
        args["matrix"] = args["matrix"] + 0.25
        kernel = make_hycim_kernel("auto", **args)
        assert kernel.backend == "fused"

    def test_explicit_packed_raises_on_float_matrices(self, problem):
        args = _kernel_args(problem)
        args["matrix"] = args["matrix"] + 0.25
        with pytest.raises(KernelUnsupportedError, match="integer-valued"):
            make_hycim_kernel("packed", **args)


class TestSAFilterRouting:
    """The SA engine hands its filter hooks to the HyCiM kernel factory:
    only a filter with a linear form reaches the fused/packed backends."""

    @staticmethod
    def _anneal(problem, **filters):
        qubo = problem.to_qubo()
        generators = [np.random.default_rng([5, k]) for k in range(3)]
        annealer = SimulatedAnnealer(num_iterations=20)
        results = BatchedSimulatedAnnealer(annealer).anneal(
            qubo, np.zeros((3, problem.num_variables)), generators,
            kernel="auto", **filters)
        return [r.metadata.get("kernel", "reference") for r in results]

    def test_no_filter_runs_packed(self, problem):
        assert self._anneal(problem) == ["packed"] * 3

    def test_linear_batch_filter_runs_packed(self, problem):
        assert self._anneal(
            problem, accept_filter_batch=problem.is_feasible_batch,
            feasibility_constraints=problem.linear_feasibility_constraints(),
        ) == ["packed"] * 3

    def test_opaque_filters_fall_back_to_reference(self, problem):
        assert self._anneal(problem, accept_filter=problem.is_feasible) == \
            ["reference"] * 3
        assert self._anneal(
            problem, accept_filter_batch=problem.is_feasible_batch) == \
            ["reference"] * 3


class TestAutoResolution:
    """``auto`` resolves from the run's configuration and data alone, so a
    run key picks the same kernel on every host (the engines record the
    resolved backend in each result's metadata; the reference backend is
    recorded by omission)."""

    @pytest.mark.parametrize("solver,params", [
        ("hycim", PARAMS),
        ("sa", {"num_iterations": 60}),
    ], ids=["hycim", "sa"])
    def test_auto_runs_packed_on_integer_software_runs(self, problem,
                                                       solver, params):
        batch = run_trials(problem, solver, num_trials=3,
                           params=dict(params, kernel="auto"),
                           backend="vectorized", master_seed=6)
        assert [r.metadata.get("kernel") for r in batch.results] == \
            ["packed"] * 3

    def test_auto_runs_reference_in_hardware_mode(self, problem):
        batch = run_trials(problem, "hycim", num_trials=3,
                           params=dict(PARAMS, use_hardware=True,
                                       kernel="auto"),
                           backend="vectorized", master_seed=6)
        assert all("kernel" not in r.metadata for r in batch.results)
