"""The benchmark's workloads and the closed-loop call each one makes.

Every workload is one ``repro.runtime.run_trials`` call, issued by a single
caller that waits for it (a closed loop).  Instances come from the workload
seed through the repository's own generators; the knapsack capacity is
fixed at half the total weight (the MD-QKP generator's own tightness) so
that the instance's difficulty, filter rejection rate and objective scale do
not swing with the seed.  ``README.md`` next to this file records why each
workload exists and what each layer metric is predicted to do on it.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import runtime
from repro.analysis.metrics import success_rate
from repro.cim.crossbar import CrossbarConfig
from repro.cim.energy_model import hycim_run_cost
from repro.core.quantization import quantization_report
from repro.exact.local_search import reference_qkp_value
from repro.problems.base import CombinatorialProblem
from repro.problems.families import get_family
from repro.problems.generators import generate_qkp_instance
from repro.problems.multidim_knapsack import generate_mdqkp_instance
from repro.runtime.aggregate import aggregate_trials, statistics_fingerprint
from repro.store import CampaignStore

#: Capacity as a share of the items' total weight.
TIGHTNESS = 0.5
#: Restarts of the best-known-value search (greedy + local search).
REFERENCE_RESTARTS = 10


def _qkp(num_items: int, max_weight: int) -> Callable[[int], CombinatorialProblem]:
    def make(seed: int) -> CombinatorialProblem:
        problem = generate_qkp_instance(num_items=num_items, density=0.5,
                                        max_profit=100, max_weight=max_weight,
                                        seed=seed)
        # The generator draws the capacity last, so fixing it leaves the
        # profits and weights of this seed unchanged.
        return dataclasses.replace(
            problem, capacity=float(math.floor(TIGHTNESS * problem.weights.sum())))
    return make


def _mdqkp(seed: int) -> CombinatorialProblem:
    return generate_mdqkp_instance(num_items=500, num_constraints=5,
                                   tightness=TIGHTNESS, seed=seed)


def _family_params(family: str, problem: CombinatorialProblem,
                   **overrides: Any) -> Dict[str, Any]:
    """The family's own move generator and geometric schedule, overridden."""
    return {**get_family(family).solver_params(problem), **overrides}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: an instance recipe and the call made on it."""

    name: str
    family: str
    make_problem: Callable[[int], CombinatorialProblem]
    #: Solver params for ``(problem, seed)``.
    params: Callable[[CombinatorialProblem, int], Dict[str, Any]]
    num_trials: int
    backend: str
    uses_store: bool = False
    options: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def pool_workers(self) -> int:
        return int(self.options.get("num_workers", 0)) if self.backend == "process" else 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="qkp_hw", family="qkp",
            make_problem=_qkp(num_items=100, max_weight=50),
            params=lambda problem, seed: _family_params(
                "qkp", problem, use_hardware=True, filter_rows=16,
                # Seeded: an unseeded config draws read and ADC noise from
                # fresh entropy, and no two calls would agree.
                crossbar_config=CrossbarConfig(current_noise_sigma=0.02,
                                               adc_bits=8, seed=seed),
                num_iterations=1000, kernel="auto"),
            num_trials=32, backend="vectorized"),
        Workload(
            name="mdqkp_sw", family="mdqkp",
            make_problem=_mdqkp,
            params=lambda problem, seed: _family_params(
                "mdqkp", problem, use_hardware=False, move_generator="single_flip",
                num_iterations=10, moves_per_iteration=problem.num_variables,
                kernel="auto"),
            num_trials=64, backend="vectorized"),
        Workload(
            name="campaign_store", family="qkp",
            make_problem=_qkp(num_items=30, max_weight=20),
            params=lambda problem, seed: _family_params(
                "qkp", problem, use_hardware=False, num_iterations=500),
            num_trials=128, backend="process", uses_store=True,
            options={"num_workers": 2, "chunk_size": 16}),
    )
}


@dataclasses.dataclass
class Case:
    """A workload bound to the instance of one seed (built untimed)."""

    workload: Workload
    seed: int
    problem: CombinatorialProblem
    params: Dict[str, Any]
    #: Best-known (QKP) or greedy (MD-QKP) value; ``None`` in traced runs.
    reference: Optional[float] = None

    def call_kwargs(self, short: bool) -> Dict[str, Any]:
        params = dict(self.params)
        if short:
            # Set-up: the same call cut to one iteration of one move.
            params.update(num_iterations=1, moves_per_iteration=1)
        return dict(solver="hycim", num_trials=self.workload.num_trials,
                    params=params, backend=self.workload.backend,
                    master_seed=self.seed, **self.workload.options)


def mdqkp_greedy_value(problem: CombinatorialProblem) -> float:
    """Greedy MD-QKP reference: keep adding the item that fits with the
    largest marginal profit per unit of summed capacity share."""
    weights, capacities = problem.weights, problem.capacities
    diagonal = np.diag(problem.profits)
    pairwise = problem.profits - np.diag(diagonal)
    share = (weights / capacities[:, None]).sum(axis=0)
    x = np.zeros(problem.num_variables)
    load = np.zeros(len(capacities))
    field = np.zeros(problem.num_variables)
    while True:
        gain = diagonal + field
        fits = (x == 0) & (gain > 0) & np.all(
            load[:, None] + weights <= capacities[:, None] + 1e-9, axis=0)
        if not fits.any():
            return problem.objective(x)
        best = int(np.argmax(np.where(fits, gain / share, -np.inf)))
        x[best] = 1.0
        load += weights[:, best]
        field += pairwise[:, best]


def prepare(name: str, seed: int, with_reference: bool = True) -> Case:
    """Generate the seed's instance and its reference value: the best-known
    value (greedy + local search) for QKP, the greedy value for MD-QKP."""
    workload = WORKLOADS[name]
    problem = workload.make_problem(seed)
    reference = None
    if with_reference:
        reference = (reference_qkp_value(problem, num_restarts=REFERENCE_RESTARTS,
                                         seed=seed)
                     if workload.family == "qkp" else mdqkp_greedy_value(problem))
    return Case(workload, seed, problem, workload.params(problem, seed),
                reference)


@dataclasses.dataclass
class Iteration:
    """One closed-loop call (and, on the store workload, its resume)."""

    batch: Any
    call_s: float
    wall_s: float
    resumed: Any = None
    resume_s: Optional[float] = None
    store_dir: Optional[Path] = None


def run_iteration(case: Case, directory: Path, short: bool = False,
                  resume: bool = True) -> Iteration:
    """Issue the workload's call; the store workload then resumes it.

    Telemetry is off (``telemetry=None``) except on the store workload,
    which records a sidecar plus worker shards (``telemetry=True``).
    """
    kwargs = case.call_kwargs(short)
    began = time.perf_counter()
    if not case.workload.uses_store:
        start = time.perf_counter()
        batch = runtime.run_trials(case.problem, telemetry=None, **kwargs)
        call_s = time.perf_counter() - start
        return Iteration(batch, call_s, time.perf_counter() - began)
    store_dir = Path(tempfile.mkdtemp(dir=directory, prefix="store-"))
    store = CampaignStore(store_dir)
    start = time.perf_counter()
    batch = runtime.run_trials(case.problem, store=store, telemetry=True, **kwargs)
    call_s = time.perf_counter() - start
    resumed = resume_s = None
    if resume:
        start = time.perf_counter()
        reopened = CampaignStore(store_dir)
        resumed = runtime.run_trials(case.problem, store=reopened,
                                     telemetry=True, **kwargs)
        reopened.load_telemetry(resumed.run_key)
        resume_s = time.perf_counter() - start
    return Iteration(batch, call_s, time.perf_counter() - began, resumed,
                     resume_s, store_dir)


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #
def check_results(case: Case, results: List[Any]) -> List[str]:
    """One message per trial that fails an output check."""
    problem = case.problem
    software = not case.params["use_hardware"]
    failures = []
    for index, result in enumerate(results):
        x = result.best_configuration
        if not result.feasible:
            if result.best_objective != 0.0:
                failures.append(f"trial {index}: infeasible but objective "
                                f"{result.best_objective!r}")
            continue
        if not problem.is_feasible(x):
            failures.append(f"trial {index}: flagged feasible, is not")
        elif result.best_objective != problem.objective(x):
            failures.append(f"trial {index}: best_objective "
                            f"{result.best_objective!r} != objective "
                            f"{problem.objective(x)!r}")
        elif software and result.best_energy != -result.best_objective:
            failures.append(f"trial {index}: best_energy {result.best_energy!r}"
                            f" != -best_objective {result.best_objective!r}")
    return failures


def fingerprint(case: Case, batch: Any) -> tuple:
    return statistics_fingerprint(aggregate_trials(batch, reference=case.reference))


def check_iteration(case: Case, iteration: Iteration,
                    expected: Optional[tuple]) -> List[str]:
    """Trial checks, per-seed determinism and (store) resume parity.

    Returns one message per failed trial; ``expected`` is the fingerprint of
    the first iteration of this run, which every later one must repeat.
    """
    batch = iteration.batch
    failures = check_results(case, batch.results)
    count = batch.num_trials
    if expected is not None and fingerprint(case, batch) != expected:
        failures += ["statistics differ from the first call of this seed"] * count
    if iteration.resumed is not None:
        resumed = iteration.resumed
        failures += check_results(case, resumed.results)
        if resumed.num_loaded_from_store != count:
            failures += [f"resume loaded {resumed.num_loaded_from_store} of "
                         f"{count} trials"] * count
        elif fingerprint(case, resumed) != fingerprint(case, batch):
            failures += ["resumed statistics differ from the fresh batch"] * count
    return failures


def trials_checked(iteration: Iteration) -> int:
    resumed = iteration.resumed.num_trials if iteration.resumed is not None else 0
    return iteration.batch.num_trials + resumed


class Tally:
    """Trials attempted and failed; failures are printed, never masked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, case: Case, directory: Path, **options) -> Optional[Iteration]:
        """:func:`run_iteration`; a call that raises fails all its trials."""
        try:
            return run_iteration(case, directory, **options)
        except Exception:  # the closed loop keeps going; the count shows it
            traceback.print_exc()
            self.attempted += case.workload.num_trials
            self.failed += case.workload.num_trials
            return None

    def check(self, case: Case, iteration: Iteration,
              expected: Optional[tuple] = None) -> None:
        failures = check_iteration(case, iteration, expected)
        self.attempted += trials_checked(iteration)
        self.failed += len(failures)
        for message in sorted(set(failures)):
            print(f"CHECK FAILED: {message}", file=sys.stderr)

    def call(self, case: Case, directory: Path, expected: Optional[tuple] = None,
             **options) -> Optional[Iteration]:
        """One checked call; its store, if any, is removed afterwards."""
        iteration = self.run(case, directory, **options)
        if iteration is not None:
            self.check(case, iteration, expected)
            discard_store(iteration)
        return iteration


def discard_store(iteration: Iteration) -> None:
    if iteration.store_dir is not None:
        shutil.rmtree(iteration.store_dir, ignore_errors=True)


# --------------------------------------------------------------------- #
# Simulated statistics (deterministic per seed)
# --------------------------------------------------------------------- #
def simulated_statistics(case: Case, batch: Any) -> Dict[str, Any]:
    """Quality, modeled chip cost and the kernel ``auto`` picked."""
    results = batch.results
    objectives = np.array([float(r.best_objective) for r in results])
    report = quantization_report(case.problem.to_inequality_qubo())
    costs = [hycim_run_cost(result, report) for result in results]
    stats: Dict[str, Any] = {
        "objective_mean": float(objectives.mean()),
        "objective_ratio": float(objectives.mean()) / case.reference,
        # pJ -> uJ and ns -> us.
        "chip_energy_uj": float(np.mean([c.energy for c in costs])) * 1e-6,
        "chip_latency_us": float(np.mean([c.latency for c in costs])) * 1e-3,
        "proposals": int(sum(r.num_iterations for r in results)),
        "kernel": _kernel(results[0].metadata or {}),
    }
    if case.workload.family == "qkp":
        stats["success_rate"] = success_rate(objectives, case.reference)
        stats["best_known_hit"] = float(np.mean(objectives >= case.reference))
    return stats


def accept_fraction(results: List[Any]) -> float:
    """Accepted moves over proposals that passed the feasibility check."""
    feasible = sum(r.num_feasible_evaluations for r in results)
    return sum(r.num_accepted_moves for r in results) / max(feasible, 1)


def _kernel(metadata: Dict[str, Any]) -> str:
    """The sweep kernel that ran, as the executor stamps it in a store."""
    if "kernel" in metadata:
        return str(metadata["kernel"])
    return "reference" if metadata.get("vectorized") else "scalar"


def tts99(call_s: float, num_trials: int, hit: float) -> float:
    """Time to solution at 99% confidence from the best-known hit rate."""
    if hit <= 0.0:
        return math.inf
    per_trial = call_s / num_trials
    if hit >= 0.99:
        return per_trial
    return per_trial * math.log(0.01) / math.log(1.0 - hit)


# --------------------------------------------------------------------- #
# Peak memory, in a fresh interpreter
# --------------------------------------------------------------------- #
def peak_memory_mb(name: str, seed: int, directory: str) -> float:
    """Body of the fresh interpreter: one call, then peak resident memory.

    The calling process's peak plus, on the process backend, the largest
    pool worker's peak once per worker (pages a forked worker shares with
    its parent count in both).
    """
    case = prepare(name, seed, with_reference=False)
    run_iteration(case, Path(directory), resume=False)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * case.workload.pool_workers) / 1024.0
