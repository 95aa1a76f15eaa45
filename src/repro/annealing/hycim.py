"""The HyCiM hybrid solver (paper Sec. 3, Fig. 3 and Fig. 6(b)).

One solver instance owns the three HyCiM components for a problem:

1. the **inequality-QUBO form** of the problem (Sec. 3.2), obtained from the
   problem's :meth:`to_inequality_qubo`;
2. one **CiM inequality filter** per inequality constraint (Sec. 3.3);
3. a **CiM crossbar** programmed with the QUBO matrix (Sec. 3.4).

Each SA iteration follows the paper's flow exactly: the SA logic proposes a
new configuration, the inequality filter decides feasibility *before* any
QUBO computation, infeasible candidates are bounced straight back to the SA
logic, and feasible ones are evaluated on the crossbar and subjected to the
Metropolis acceptance rule.

``use_hardware=False`` replaces the filter and crossbar with exact arithmetic
(software mode), which is useful for isolating algorithmic effects from
analog non-idealities; the default is hardware simulation with ideal devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro.annealing.result import SolveResult
from repro.annealing.sa import _METROPOLIS
from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.dynamics.moves import MoveGenerator, SingleFlipMove
from repro.dynamics.schedule import GeometricSchedule, TemperatureSchedule
from repro.cim.inequality_filter import InequalityFilter
from repro.core.constraints import InequalityConstraint
from repro.core.transformation import InequalityQUBO
from repro.fefet.variability import VariabilityModel
from repro.problems.base import CombinatorialProblem
from repro.telemetry.probes import SweepProbe
from repro.telemetry.recorder import current_recorder

ProblemOrModel = Union[CombinatorialProblem, InequalityQUBO]


@dataclass
class HyCiMSolver:
    """Hybrid CiM QUBO solver for COPs with inequality constraints.

    Parameters
    ----------
    problem:
        A :class:`~repro.problems.base.CombinatorialProblem` (converted with
        its ``to_inequality_qubo``) or an :class:`InequalityQUBO` directly.
    use_hardware:
        Simulate the CiM filter and crossbar (default) or use exact software
        arithmetic for both.
    num_iterations:
        SA iterations per run (paper evaluation: 1000).
    moves_per_iteration:
        Candidate proposals per SA iteration.  The paper's hardware annealer
        updates at the granularity of full configuration sweeps, so the
        evaluation experiments set this to the number of problem variables;
        the default of 1 makes each iteration a single proposal.
    schedule:
        Annealing temperature schedule.
    move_generator:
        Candidate generator; defaults to single bit flips.
    filter_rows:
        Rows of the inequality filter arrays (paper: 16).
    crossbar_config:
        Crossbar non-ideality configuration (ideal 7-bit cells by default).
    variability:
        FeFET device variability shared by filter arrays.
    matchline_noise_sigma:
        Filter matchline readout noise (volts).
    record_history:
        Record the incumbent energy after every iteration (Fig. 7(f)).
    seed:
        RNG seed for the SA logic.
    defer_hardware:
        Skip building the shared CiM filter(s)/crossbar even though
        ``use_hardware`` is set.  Intended for the batched engine's
        batch-of-chips mode, where per-replica *device-axis* hardware
        replaces the shared components and building them here would be dead
        work; :meth:`solve` on a deferred solver runs software arithmetic.
    """

    problem: ProblemOrModel
    use_hardware: bool = True
    num_iterations: int = 1000
    moves_per_iteration: int = 1
    schedule: TemperatureSchedule = field(default_factory=GeometricSchedule)
    move_generator: MoveGenerator = field(default_factory=SingleFlipMove)
    filter_rows: int = 16
    crossbar_config: Optional[CrossbarConfig] = None
    variability: Optional[VariabilityModel] = None
    matchline_noise_sigma: float = 0.0
    record_history: bool = False
    seed: Optional[int] = None
    defer_hardware: bool = False

    def __post_init__(self) -> None:
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be positive")
        if self.moves_per_iteration < 1:
            raise ValueError("moves_per_iteration must be positive")
        if isinstance(self.problem, InequalityQUBO):
            self._model = self.problem
            self._native_problem: Optional[CombinatorialProblem] = None
        elif isinstance(self.problem, CombinatorialProblem):
            self._model = self.problem.to_inequality_qubo()
            self._native_problem = self.problem
        else:
            raise TypeError(
                "problem must be a CombinatorialProblem or an InequalityQUBO, "
                f"got {type(self.problem).__name__}"
            )
        self._build_hardware()

    # ------------------------------------------------------------------ #
    # Hardware construction
    # ------------------------------------------------------------------ #
    def _build_hardware(self) -> None:
        """Instantiate the CiM filter(s) and crossbar when hardware mode is on."""
        self._filters: Dict[int, InequalityFilter] = {}
        self._crossbar: Optional[FeFETCrossbar] = None
        if not self.use_hardware or self.defer_hardware:
            return
        for index, constraint in enumerate(self._model.constraints):
            if isinstance(constraint, InequalityConstraint):
                self._filters[index] = InequalityFilter(
                    constraint,
                    num_rows=self.filter_rows,
                    variability=self.variability,
                    matchline_noise_sigma=self.matchline_noise_sigma,
                )
        config = self.crossbar_config or CrossbarConfig(seed=self.seed)
        self._crossbar = FeFETCrossbar.from_qubo(self._model.qubo, config=config)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> InequalityQUBO:
        """The inequality-QUBO form the solver operates on."""
        return self._model

    @property
    def inequality_filters(self) -> Dict[int, InequalityFilter]:
        """Constraint-index -> hardware filter map (empty in software mode)."""
        return dict(self._filters)

    @property
    def crossbar(self) -> Optional[FeFETCrossbar]:
        """The CiM crossbar (``None`` in software mode)."""
        return self._crossbar

    # ------------------------------------------------------------------ #
    # Evaluation primitives
    # ------------------------------------------------------------------ #
    def _is_feasible(self, x: np.ndarray, rng: np.random.Generator) -> bool:
        """Inequality constraints via the CiM filter; equalities in SA logic."""
        for index, constraint in enumerate(self._model.constraints):
            hardware_filter = self._filters.get(index)
            if hardware_filter is not None:
                if not hardware_filter.is_feasible(x, rng=rng):
                    return False
            elif not constraint.is_satisfied(x):
                return False
        return True

    def _qubo_energy(self, x: np.ndarray) -> float:
        """QUBO value of a *feasible* configuration (crossbar or exact)."""
        if self._crossbar is not None:
            return self._crossbar.compute_energy(x)
        return self._model.qubo.energy(x)

    def _native_objective(self, x: np.ndarray) -> Optional[float]:
        if self._native_problem is None:
            return None
        return self._native_problem.objective(x)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, initial: Optional[np.ndarray] = None,
              rng: Optional[np.random.Generator] = None) -> SolveResult:
        """Run one simulated-annealing descent and return the best solution.

        Parameters
        ----------
        initial:
            Starting configuration (may be infeasible -- its Eq. (6) energy is
            then 0, so the solver escapes as soon as a feasible candidate with
            negative QUBO value appears).  Random when omitted.
        rng:
            External random generator (overrides ``seed``).
        """
        generator = rng or np.random.default_rng(self.seed)
        n = self._model.num_variables
        if initial is None:
            current = generator.integers(0, 2, size=n).astype(float)
        else:
            current = np.asarray(initial, dtype=float).copy()
            if current.shape[0] != n:
                raise ValueError(f"initial configuration length {current.shape[0]} != {n}")

        current_feasible = self._is_feasible(current, generator)
        current_energy = self._qubo_energy(current) if current_feasible else 0.0

        best = current.copy()
        best_energy = current_energy
        best_feasible = current_feasible

        # Validated once, computed once (see repro.dynamics.schedule): the
        # hot loop indexes the table, bit-identical to temperature() calls.
        temperatures = self.schedule.temperatures(self.num_iterations)
        history = []
        num_feasible = 0
        num_skipped = 0
        num_accepted = 0
        probe = SweepProbe(current_recorder(), "HyCiM", self.num_iterations)

        for iteration in range(self.num_iterations):
            temperature = temperatures[iteration]
            for _ in range(self.moves_per_iteration):
                candidate = self.move_generator.propose(current, generator)

                # Step 1: inequality evaluation on the CiM filter (Fig. 6(b)).
                if not self._is_feasible(candidate, generator):
                    num_skipped += 1
                    # Under Eq. (6) every infeasible configuration has energy
                    # 0, so while the incumbent is itself infeasible the walk
                    # may drift freely (delta = 0) without touching the
                    # crossbar; once a feasible incumbent exists, infeasible
                    # candidates are simply bounced back to the SA logic.
                    if not current_feasible:
                        current = candidate
                        current_energy = 0.0
                    continue
                num_feasible += 1

                # Step 2: QUBO computation on the CiM crossbar.
                candidate_energy = self._qubo_energy(candidate)

                # Step 3: Metropolis acceptance in the SA logic.
                delta = candidate_energy - current_energy
                if _METROPOLIS.accept_scalar(delta, temperature, generator):
                    current = candidate
                    current_energy = candidate_energy
                    current_feasible = True
                    num_accepted += 1
                    if candidate_energy < best_energy or not best_feasible:
                        best = candidate.copy()
                        best_energy = candidate_energy
                        best_feasible = True

            if probe.every:
                probe.maybe(iteration, temperature=temperature,
                            energy=current_energy, best_energy=best_energy,
                            num_feasible=num_feasible,
                            num_skipped=num_skipped,
                            num_accepted=num_accepted,
                            feasible=current_feasible)

            if self.record_history:
                history.append(best_energy)

        objective = self._native_objective(best) if best_feasible else (
            0.0 if self._native_problem is not None else None
        )
        return SolveResult(
            best_configuration=best,
            best_energy=float(best_energy),
            best_objective=objective,
            feasible=best_feasible,
            energy_history=history,
            num_iterations=self.num_iterations * self.moves_per_iteration,
            num_feasible_evaluations=num_feasible,
            num_infeasible_skipped=num_skipped,
            num_accepted_moves=num_accepted,
            solver_name="HyCiM",
            metadata={
                "use_hardware": self.use_hardware,
                "seed": self.seed,
                "num_constraints": self._model.num_constraints,
            },
        )
