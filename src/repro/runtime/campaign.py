"""Batched campaigns: (instance x solver x params) sweeps with early stopping.

A campaign is the runtime's unit of large-scale evaluation: it runs every
registered solver configuration against every problem instance, ``num_trials``
replica seeds per cell, and aggregates each cell into the paper's summary
statistics.  Master seeds are spawned hierarchically (per instance, then per
solver) from the campaign seed, so

* appending instances or solvers to the grid leaves every existing cell's
  seed -- and therefore its results -- unchanged, and
* the whole campaign is reproducible from a single integer.

When a reference value is available for an instance, each cell early-stops as
soon as a trial reaches ``threshold * reference`` (the paper's success bar) --
at production scale this is what keeps a thousand-trial sweep from burning
budget on instances a solver cracks in its first trial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.problems.base import CombinatorialProblem
from repro.runtime.aggregate import (
    TrialStatistics,
    aggregate_trials,
    race_key,
    statistics_fingerprint,
    success_bar,
)
from repro.runtime.executor import TrialBatch, run_trials
from repro.runtime.registry import (
    DETERMINISTIC_SOLVERS,
    SolverSpec,
    SpecLike,
    as_solver_spec,
)
from repro.telemetry.recorder import resolve_recorder, use_recorder

ReferenceProvider = Union[
    Mapping[str, float], Callable[[CombinatorialProblem], float], None
]


def expand_param_grid(solver: str, grid: Mapping[str, Sequence[Any]],
                      base_params: Optional[Mapping[str, Any]] = None,
                      label: Optional[str] = None) -> List[SolverSpec]:
    """Cartesian product of a parameter grid as labelled solver specs.

    ``expand_param_grid("hycim", {"num_iterations": (100, 1000)})`` yields two
    specs labelled ``hycim[num_iterations=100]`` and
    ``hycim[num_iterations=1000]``.
    """
    if not grid:
        return [SolverSpec(solver, dict(base_params or {}), label=label)]
    keys = list(grid)
    specs: List[SolverSpec] = []
    for combination in itertools.product(*(grid[key] for key in keys)):
        params = dict(base_params or {})
        params.update(zip(keys, combination))
        tag = ",".join(f"{key}={value}" for key, value in zip(keys, combination))
        specs.append(SolverSpec(solver, params,
                                label=f"{label or solver}[{tag}]"))
    return specs


@dataclass(frozen=True)
class CampaignRecord:
    """One campaign cell: a solver's trial batch on one instance."""

    problem_name: str
    spec: SolverSpec
    batch: TrialBatch
    statistics: TrialStatistics
    reference: Optional[float]
    maximize: bool = True


@dataclass
class CampaignResult:
    """All cells of a campaign plus convenience views."""

    records: List[CampaignRecord]
    master_seed: int
    backend: str

    @property
    def statistics(self) -> List[TrialStatistics]:
        return [record.statistics for record in self.records]

    def for_solver(self, label: str) -> List[CampaignRecord]:
        """Cells of the solver with the given display name."""
        return [r for r in self.records if r.spec.display_name == label]

    def for_instance(self, name: str) -> List[CampaignRecord]:
        """Cells of one problem instance."""
        return [r for r in self.records if r.problem_name == name]

    def mean_success_by_solver(self) -> Dict[str, float]:
        """Per-solver average success rate over *complete* cells.

        Early-stopped cells carry no unbiased rate and are excluded, which
        under ``early_stop=True`` skews this average towards cells where the
        solver struggled (the easy wins stopped early).  For an
        early-stopping campaign report :meth:`solved_fraction_by_solver`
        instead, or re-run with ``early_stop=False`` for true rates.
        """
        rates: Dict[str, List[float]] = {}
        for record in self.records:
            rate = record.statistics.success_rate_value
            if rate is not None:
                rates.setdefault(record.spec.display_name, []).append(rate)
        return {label: float(np.mean(values)) for label, values in rates.items()}

    def solved_fraction_by_solver(self) -> Dict[str, float]:
        """Per-solver fraction of instances where any trial hit the bar.

        Well-defined for early-stopping campaigns: a cell counts as solved
        exactly when some executed trial reached the success bar (which is
        what triggers the early stop), i.e. its ``time_to_solution`` is set.
        """
        solved: Dict[str, List[bool]] = {}
        for record in self.records:
            if record.reference is None:
                continue
            solved.setdefault(record.spec.display_name, []).append(
                record.statistics.time_to_solution is not None)
        return {label: float(np.mean(flags)) for label, flags in solved.items()}

    def best_record(self, problem_name: str) -> CampaignRecord:
        """The cell holding the best feasible result for an instance.

        Compared with :func:`repro.runtime.aggregate.race_key` (feasibility,
        then native objective), since internal energies are not comparable
        across solvers.
        """
        cells = self.for_instance(problem_name)
        if not cells:
            raise KeyError(f"no campaign cell for instance {problem_name!r}")
        return min(cells,
                   key=lambda r: race_key(r.batch.best_result, r.maximize))

    def fingerprint(self) -> List[tuple]:
        """Deterministic content of the whole campaign, one tuple per cell.

        Built from :func:`repro.runtime.aggregate.statistics_fingerprint`
        plus each cell's reference and direction; an interrupted campaign
        resumed from a :class:`repro.store.CampaignStore` produces a
        fingerprint bitwise identical to the uninterrupted run's.
        """
        return [
            (record.problem_name, record.spec.display_name, record.reference,
             record.maximize, statistics_fingerprint(record.statistics))
            for record in self.records
        ]


def _resolve_reference(problem: CombinatorialProblem,
                       references: ReferenceProvider) -> Optional[float]:
    if references is None:
        return None
    if callable(references):
        return float(references(problem))
    name = getattr(problem, "name", None)
    if name is not None and name in references:
        return float(references[name])
    return None


def run_campaign(
    problems: Sequence[CombinatorialProblem],
    solvers: Sequence[SpecLike],
    num_trials: int = 10,
    backend: str = "serial",
    master_seed: int = 0,
    num_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    references: ReferenceProvider = None,
    threshold: float = 0.95,
    early_stop: bool = True,
    chips: Optional[int] = None,
    dynamics: Optional[Any] = None,
    store: Optional[Any] = None,
    resume: bool = True,
    telemetry: Optional[Any] = None,
) -> CampaignResult:
    """Sweep every solver spec over every instance and aggregate each cell.

    Parameters
    ----------
    problems:
        Problem instances (their ``name`` labels the rows).
    solvers:
        Solver specs -- names, ``(name, params)`` pairs, dicts or
        :class:`SolverSpec` objects, e.g. from :func:`expand_param_grid`.
    num_trials:
        Replica seeds per cell.  Deterministic solvers (greedy, DP, brute
        force) always run a single trial.
    backend / num_workers / chunk_size:
        Executor knobs, passed through to :func:`run_trials` per cell.
    references:
        Best-known objective per instance: a ``{name: value}`` mapping or a
        ``problem -> value`` callable.  Enables success rates and early
        stopping.
    threshold:
        Success bar as a fraction of the reference (paper: 0.95).
    early_stop:
        Stop a cell's remaining trials once one trial reaches the bar.
    chips:
        Batch-of-chips knob for the paper's variability ablations: cells
        whose spec carries a non-``None`` ``variability`` param run this
        many trials -- one freshly sampled simulated chip per trial -- as a
        single lock-step sweep on the vectorized backend (one chunk, one
        slice of the hardware stack's device axis per chip).  Cells without
        variability keep ``num_trials`` and ``backend`` unchanged, so one
        campaign can mix ideal-device cells with Monte-Carlo-over-chips
        cells.
    dynamics:
        Optional :class:`repro.dynamics.Dynamics` bundle applied to every
        cell (see :func:`repro.runtime.run_trials`); with e.g.
        :class:`repro.dynamics.ParallelTempering` each cell's ``num_trials``
        replicas anneal as one temperature ladder with replica exchange.  A
        cell whose spec already carries a ``dynamics`` param keeps its own.
    store / resume:
        Optional :class:`repro.store.CampaignStore` checkpointing.  Every
        cell's trials are persisted as they complete and the finished cell is
        logged to the store's campaign log; with ``resume=True`` (default) a
        re-run of an interrupted campaign skips persisted trials, and its
        :meth:`CampaignResult.fingerprint` is bitwise identical to the
        uninterrupted run's.  Hierarchical seeding makes each cell's master
        seed -- and so its store run key -- independent of execution order.
    telemetry:
        Observability sink (see :func:`repro.runtime.run_trials`).  A
        recorder instance wraps the whole sweep in a ``campaign`` span and
        captures every cell's run; ``telemetry=True`` (requires ``store``)
        makes each cell persist its own JSONL sidecar under its run key;
        ``None`` reports to the ambient recorder (telemetry off by default);
        ``False`` turns recording off for the whole sweep, even under an
        ambient recorder.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    if chips is not None and chips < 1:
        raise ValueError("chips must be positive")
    specs = [as_solver_spec(spec) for spec in solvers]
    if not specs:
        raise ValueError("campaign needs at least one solver spec")
    if not problems:
        raise ValueError("campaign needs at least one problem instance")

    # An explicit recorder becomes ambient for the whole sweep, so the
    # campaign span wraps every cell's run span; telemetry=True stays True
    # per cell (each cell persists its own sidecar under its run key).
    recorder = resolve_recorder(telemetry)
    cell_telemetry = True if telemetry is True else None

    # Hierarchical spawn: one child sequence per problem, then one per spec.
    # SeedSequence.spawn children are a stable prefix -- appending instances
    # or solvers to the grid leaves every existing cell's seed unchanged.
    problem_seeds = np.random.SeedSequence(master_seed).spawn(len(problems))
    records: List[CampaignRecord] = []
    with use_recorder(recorder), recorder.span(
            "campaign", problems=len(problems), solvers=len(specs),
            backend=backend):
        for problem, problem_seq in zip(problems, problem_seeds):
            reference = _resolve_reference(problem, references)
            maximize = getattr(problem, "is_maximization", True)
            target = None
            if early_stop and reference is not None:
                target = success_bar(reference, threshold, maximize)
            spec_seeds = problem_seq.spawn(len(specs))
            for spec, spec_seq in zip(specs, spec_seeds):
                cell_master = int(spec_seq.generate_state(1, np.uint64)[0])
                trials = (1 if spec.solver in DETERMINISTIC_SOLVERS
                          else num_trials)
                cell_backend, cell_chunk = backend, chunk_size
                if (chips is not None
                        and spec.solver not in DETERMINISTIC_SOLVERS
                        and spec.params.get("variability") is not None):
                    # Monte-Carlo over simulated chips: one trial per chip,
                    # all chips advanced as one device-axis batch.
                    trials, cell_backend, cell_chunk = (chips, "vectorized",
                                                        chips)
                batch = run_trials(
                    problem,
                    solver=spec,
                    num_trials=trials,
                    backend=cell_backend,
                    master_seed=cell_master,
                    num_workers=num_workers,
                    chunk_size=cell_chunk,
                    target_objective=target,
                    dynamics=(None if spec.params.get("dynamics") is not None
                              else dynamics),
                    store=store,
                    resume=resume,
                    telemetry=cell_telemetry,
                )
                record = CampaignRecord(
                    problem_name=batch.problem_name,
                    spec=spec,
                    batch=batch,
                    statistics=aggregate_trials(batch, reference=reference,
                                                threshold=threshold,
                                                maximize=maximize),
                    reference=reference,
                    maximize=maximize,
                )
                if store is not None:
                    store.append_campaign_record(record, run_key=batch.run_key)
                records.append(record)
                if recorder.enabled:
                    recorder.counter("cells_completed")
    return CampaignResult(records=records, master_seed=master_seed,
                          backend=backend)
