"""Portfolio execution: several solvers racing on one problem instance.

A portfolio runs a set of solver configurations -- typically a cheap
deterministic heuristic (greedy), a strong reference (local search) and the
HyCiM annealer -- on the *same* instance and returns the best feasible answer
found, together with per-solver statistics.  This is the serving-path shape
of the runtime: a request brings one problem, the portfolio fans trials out
over all cores, and the best answer wins regardless of which solver produced
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.annealing.result import SolveResult
from repro.problems.base import CombinatorialProblem
from repro.runtime.aggregate import TrialStatistics, aggregate_trials, race_key
from repro.runtime.executor import TrialBatch, concatenate_batches, run_trials
from repro.runtime.registry import DETERMINISTIC_SOLVERS, SpecLike, as_solver_spec
from repro.telemetry.recorder import resolve_recorder, use_recorder

#: Default portfolio: fast greedy seed, local-search reference, HyCiM anneal.
DEFAULT_PORTFOLIO: Sequence[SpecLike] = ("greedy", "local_search", "hycim")


@dataclass
class PortfolioResult:
    """Outcome of one portfolio race on one instance.

    ``allocation`` maps member labels to the trials they actually executed;
    for a non-adaptive race it simply mirrors the per-member batch sizes,
    while an adaptive race shows where the reallocated budget went.
    """

    problem_name: str
    batches: Dict[str, TrialBatch]
    statistics: Dict[str, TrialStatistics]
    winner: str
    best_result: SolveResult
    maximize: bool = True
    allocation: Optional[Dict[str, int]] = None

    def ranking(self) -> List[str]:
        """Solver labels ordered best-first (feasible, then best objective)."""
        return sorted(
            self.batches,
            key=lambda label: race_key(self.batches[label].best_result,
                                        self.maximize),
        )


def run_portfolio(
    problem: CombinatorialProblem,
    solvers: Sequence[SpecLike] = DEFAULT_PORTFOLIO,
    num_trials: int = 8,
    params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    backend: str = "serial",
    master_seed: int = 0,
    num_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    reference: Optional[float] = None,
    threshold: float = 0.95,
    adaptive: bool = False,
    explore_trials: Optional[int] = None,
    store: Optional[Any] = None,
    resume: bool = True,
    telemetry: Optional[Any] = None,
) -> PortfolioResult:
    """Race several solvers on ``problem`` and return the best feasible answer.

    Parameters
    ----------
    problem:
        The instance to solve.
    solvers:
        Portfolio members (registry names, specs, dicts, ...).
    num_trials:
        Replica seeds per stochastic member; deterministic members (greedy,
        DP, brute force) run once.
    params:
        Optional per-member parameter overrides keyed by display name, e.g.
        ``{"hycim": {"num_iterations": 500}}``.
    backend / num_workers / chunk_size:
        Executor knobs (see :func:`repro.runtime.executor.run_trials`).
    master_seed:
        Campaign-style master seed; each member gets an independently spawned
        sub-seed, so adding a member never perturbs the others.
    reference / threshold:
        Optional best-known value enabling success-rate statistics.
    adaptive / explore_trials:
        With ``adaptive=True`` the race becomes a two-stage budget
        allocation: every stochastic member first runs ``explore_trials``
        exploration trials (default: half its ``num_trials`` share, at least
        one), then the member with the best exploration success rate
        receives the *entire* remaining trial budget of all stochastic
        members.  Requires ``reference`` (success rates are undefined
        without one).  Fully seed-deterministic: exploration seeds are the
        members' usual spawned sub-seeds, the exploitation batch runs on a
        further spawned child of the winner's sequence, and ties break in
        member order.
    store / resume:
        Optional :class:`repro.store.CampaignStore` checkpointing, passed
        through to every member's :func:`run_trials` (each member is its own
        persisted run).
    telemetry:
        Observability sink (see :func:`repro.runtime.run_trials`).  A
        recorder instance wraps the race in a ``portfolio`` span and captures
        every member's run; ``telemetry=True`` (requires ``store``) persists
        one JSONL sidecar per member run; ``None`` reports to the ambient
        recorder (telemetry off by default); ``False`` turns recording off
        for the whole race, even under an ambient recorder.
    """
    specs = [as_solver_spec(spec) for spec in solvers]
    if not specs:
        raise ValueError("portfolio needs at least one solver")
    labels = [spec.display_name for spec in specs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"portfolio members need unique labels, got {labels}")
    if adaptive and reference is None:
        raise ValueError("adaptive portfolios need a reference value to "
                         "compare member success rates")

    explore = num_trials
    if adaptive:
        explore = explore_trials if explore_trials is not None \
            else max(1, num_trials // 2)
        if not 1 <= explore <= num_trials:
            raise ValueError("explore_trials must be in [1, num_trials]")

    # An explicit recorder becomes ambient for the race, so the portfolio
    # span wraps every member's run span; telemetry=True stays True per
    # member (each member run persists its own sidecar).
    recorder = resolve_recorder(telemetry)
    member_telemetry = True if telemetry is True else None

    maximize = getattr(problem, "is_maximization", True)
    member_seeds = np.random.SeedSequence(master_seed).spawn(len(specs))
    batches: Dict[str, TrialBatch] = {}
    statistics: Dict[str, TrialStatistics] = {}
    stochastic_labels: List[str] = []
    with use_recorder(recorder), recorder.span(
            "portfolio", members=len(specs), adaptive=adaptive,
            backend=backend):
        for spec, seed_seq in zip(specs, member_seeds):
            overrides = (params or {}).get(spec.display_name)
            if overrides:
                spec = spec.with_params(**dict(overrides))
            deterministic = spec.solver in DETERMINISTIC_SOLVERS
            trials = 1 if deterministic else explore
            if not deterministic:
                stochastic_labels.append(spec.display_name)
            batch = run_trials(
                problem,
                solver=spec,
                num_trials=trials,
                backend=backend,
                master_seed=int(seed_seq.generate_state(1, np.uint64)[0]),
                num_workers=num_workers,
                chunk_size=chunk_size,
                store=store,
                resume=resume,
                telemetry=member_telemetry,
            )
            batches[spec.display_name] = batch
            statistics[spec.display_name] = aggregate_trials(
                batch, reference=reference, threshold=threshold,
                maximize=maximize)

        remaining = ((num_trials - explore) * len(stochastic_labels)
                     if adaptive else 0)
        if adaptive and remaining > 0 and stochastic_labels:
            # Reallocate the held-back budget to the best explorer.  max()
            # keeps the first maximum, so ties resolve in member order.
            favourite = max(
                stochastic_labels,
                key=lambda label: statistics[label].success_rate_value)
            exploit_seq = member_seeds[labels.index(favourite)].spawn(1)[0]
            exploit = run_trials(
                problem,
                solver=batches[favourite].spec,
                num_trials=remaining,
                backend=backend,
                master_seed=int(exploit_seq.generate_state(1, np.uint64)[0]),
                num_workers=num_workers,
                chunk_size=chunk_size,
                store=store,
                resume=resume,
                telemetry=member_telemetry,
            )
            batches[favourite] = concatenate_batches(batches[favourite],
                                                     exploit)
            statistics[favourite] = aggregate_trials(batches[favourite],
                                                     reference=reference,
                                                     threshold=threshold,
                                                     maximize=maximize)

    winner = min(
        batches,
        key=lambda label: race_key(batches[label].best_result, maximize),
    )
    return PortfolioResult(
        problem_name=getattr(problem, "name", problem.__class__.__name__),
        batches=batches,
        statistics=statistics,
        winner=winner,
        best_result=batches[winner].best_result,
        maximize=maximize,
        allocation={label: batch.num_trials
                    for label, batch in batches.items()},
    )
