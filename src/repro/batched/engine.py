"""Lock-step multi-replica annealing engines (vectorised over replicas).

The paper's evaluation protocol runs many independent SA replicas per
instance; the scalar solvers (:class:`~repro.annealing.sa.SimulatedAnnealer`,
:class:`~repro.annealing.hycim.HyCiMSolver`) advance one configuration at a
time through Python-level loops, so the crossbar -- which in hardware
evaluates a whole array in one shot -- is simulated one candidate at a time.
The engines in this module advance ``M`` replicas per instance in lock-step:
every iteration proposes one move per replica, checks feasibility for all
replicas with one batched filter evaluation, evaluates all feasible
candidates with one batched QUBO computation (crossbar MVM in hardware mode,
one BLAS product in software mode) and applies the Metropolis rule per
replica.

**Scalar parity.**  Each replica owns its own :class:`numpy.random.Generator`
and the engines consume those streams in exactly the order the scalar solvers
do (one move draw per proposal, one uniform draw per feasible candidate), so
for fixed per-replica seeds the vectorised trajectories -- energies,
accept/reject decisions, final configurations -- are *identical* to ``M``
independent scalar runs in software mode (bit-for-bit on the integer-valued
paper benchmarks) and match within floating-point tolerance in ideal-hardware
mode, where the batched crossbar/filter arithmetic may associate sums
differently.  Hardware non-idealities that draw from a *shared* device RNG
(crossbar read noise on a shared chip) keep per-replica streams intact but
are only reproducible at batch granularity.

**Batch-of-chips.**  Per-trial device resampling -- the paper's Monte-Carlo
over simulated chips -- runs through the hardware stack's device axis
(ARCHITECTURE.md): :class:`BatchedHyCiMSolver` accepts one
:class:`~repro.fefet.variability.VariabilityModel` per replica and builds
device-axis filters and a device-axis crossbar, so replica ``k`` anneals on
chip ``k``'s sampled non-idealities while all chips advance per NumPy
operation.  Chip ``k``'s devices, noise and ADC codes are functions of chip
``k``'s seeds alone, which keeps per-seed results identical to ``M``
independent scalar trials that each rebuild their own hardware.

The engines are deliberately *not* new solvers: they borrow the model,
hardware, schedule and move generator from a scalar solver instance, so any
configuration accepted by the scalar path runs vectorised unchanged.

**Dynamics.**  The control loop itself -- temperature table, acceptance
decisions, inter-replica exchange, RNG topology -- is owned by
:class:`~repro.dynamics.driver.LoopDriver`; the engines contain no
Metropolis or cooling code.  Passing a
:class:`~repro.dynamics.Dynamics` bundle to :meth:`anneal` /
:meth:`solve_batch` turns the lock-step batch into a temperature ladder
with replica exchange (parallel tempering) and/or switches all replicas to
one chip-faithful shared RNG stream; the default dynamics reproduce the
scalar trajectories bit for bit.

**Kernels.**  The inner sweep itself -- propose, delta, filter, accept,
state update, best tracking -- lives in :mod:`repro.kernels`; the engines
build a :class:`~repro.kernels.SweepKernel` and drive it block-wise, with
:meth:`LoopDriver.block_length` placing block boundaries exactly where an
exchange round or telemetry probe is due.  Both engines build the same
HyCiM sweep; :class:`BatchedSimulatedAnnealer` runs it with every incumbent
counted feasible.  ``kernel="reference"`` (the default) is the original
loop body moved verbatim; ``kernel="fused"`` / ``"packed"`` are the
incremental kernels (same RNG draws, different arithmetic -- exact on
integer data); see :mod:`repro.kernels.base` for the backend matrix.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.annealing.hycim import HyCiMSolver
from repro.annealing.result import SolveResult
from repro.annealing.sa import SimulatedAnnealer
from repro.batched.kernels import (
    as_replica_matrix,
    batched_energies,
    batched_inequality_verdicts,
)
from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.cim.inequality_filter import InequalityFilter
from repro.core.constraints import InequalityConstraint
from repro.core.qubo import QUBOModel
from repro.dynamics.driver import LoopDriver
from repro.dynamics.dynamics import Dynamics
from repro.dynamics.moves import SingleFlipMove
from repro.fefet.variability import VariabilityModel
# NOTE: repro.kernels is imported lazily inside anneal()/solve_batch():
# its reference backend imports repro.batched.kernels, so a module-scope
# import here would make the package import order significant.

__all__ = ["BatchedHyCiMSolver", "BatchedSimulatedAnnealer"]

#: Per-row feasibility predicate (scalar fallback).
RowFilter = Callable[[np.ndarray], bool]
#: Vectorised feasibility predicate over an ``(M, n)`` batch.
BatchFilter = Callable[[np.ndarray], np.ndarray]


def _check_replica_generators(rngs: Sequence[np.random.Generator],
                              num_replicas: int) -> List[np.random.Generator]:
    generators = list(rngs)
    if len(generators) != num_replicas:
        raise ValueError(
            f"need one Generator per replica: got {len(generators)} for "
            f"{num_replicas} replicas"
        )
    return generators


def _drive_kernel(driver: LoopDriver, kernel, total_iterations: int,
                  record_history: bool, histories: List[List[float]],
                  solver_name: str,
                  feasible_mask: Optional[np.ndarray] = None) -> None:
    """Advance a sweep kernel block-wise to the end of the run.

    Block boundaries come from :meth:`LoopDriver.block_length`, so exchange
    rounds and telemetry probes fire at exactly the iterations the old
    per-iteration loop fired them at; a per-iteration energy history forces
    blocks of one.  Calling :meth:`maybe_exchange` at a non-exchange
    boundary is a no-op, as in the per-iteration convention.
    ``feasible_mask`` is the kernel's incumbent-feasibility array (updated
    in place) when probes should report ``feasible_replicas``.
    """
    limit = 1 if record_history else None
    num_replicas = kernel.current_energy.shape[0]
    iteration = 0
    while iteration < total_iterations:
        block = driver.block_length(iteration, limit)
        kernel.run_block(iteration, block)
        iteration += block
        boundary = iteration - 1
        driver.maybe_exchange(boundary, kernel.current_energy,
                              kernel.swap_arrays())
        if driver.probing:
            driver.maybe_probe(
                boundary, solver=solver_name,
                best_energy=kernel.best_energy,
                current_energy=kernel.current_energy,
                num_accepted=kernel.num_accepted,
                num_feasible=kernel.num_feasible,
                num_skipped=kernel.num_skipped,
                feasible_mask=feasible_mask,
                final=iteration == total_iterations)
        if record_history:
            for k in range(num_replicas):
                histories[k].append(float(kernel.best_energy[k]))
    kernel.finalize()


def _sa_feasibility(accept_filter: Optional[RowFilter],
                    accept_filter_batch: Optional[BatchFilter],
                    feasibility_constraints):
    """SA's filter hooks as a HyCiM kernel's ``(feasible_batch, constraints)``.

    The precedence is the scalar annealer's: the batch filter, else the row
    filter, else every candidate passes.  ``constraints`` is the filter's
    linear form for the fused/packed backends: ``()`` without a filter, and
    ``None`` for an opaque one, which those backends report as unsupported
    (``"auto"`` then falls back to the reference backend).
    """
    if accept_filter_batch is not None:
        return (lambda batch: np.asarray(accept_filter_batch(batch),
                                         dtype=bool),
                feasibility_constraints)
    if accept_filter is not None:
        return (lambda batch: np.array([bool(accept_filter(row))
                                        for row in batch], dtype=bool),
                None)
    return (lambda batch: np.ones(batch.shape[0], dtype=bool)), ()


class BatchedSimulatedAnnealer:
    """``M`` lock-step replicas of a :class:`SimulatedAnnealer`.

    Parameters
    ----------
    annealer:
        The scalar annealer whose schedule, move generator and iteration
        budget the replicas share.  Single-flip moves take the fast path
        (vectorised incremental deltas); other move generators are proposed
        per replica but still evaluated in batch.
    """

    def __init__(self, annealer: SimulatedAnnealer) -> None:
        self.annealer = annealer

    def anneal(
        self,
        qubo: QUBOModel,
        initials: np.ndarray,
        rngs: Sequence[np.random.Generator],
        accept_filter: Optional[RowFilter] = None,
        accept_filter_batch: Optional[BatchFilter] = None,
        dynamics: Optional[Dynamics] = None,
        exchange_rng: Optional[np.random.Generator] = None,
        shared_rng: Optional[np.random.Generator] = None,
        kernel: Optional[str] = None,
        feasibility_constraints: Optional[Sequence[InequalityConstraint]] = None,
    ) -> List[SolveResult]:
        """Run one SA descent per replica, in lock-step.

        Parameters
        ----------
        qubo:
            The QUBO model to minimise (shared by all replicas); a
            :class:`~repro.core.sparse.SparseQUBOModel` runs through the
            sparse-aware kernels unchanged.
        initials:
            ``(M, n)`` matrix of starting configurations, one replica per row.
        rngs:
            One independent :class:`~numpy.random.Generator` per replica
            (e.g. seeded from :func:`repro.runtime.derive_trial_seeds`); in
            shared-RNG mode the entries alias the group's shared stream.
        accept_filter:
            Per-row feasibility predicate, semantically identical to the
            scalar annealer's ``accept_filter`` hook.
        accept_filter_batch:
            Optional vectorised form evaluating a whole candidate batch at
            once (e.g. :meth:`CombinatorialProblem.is_feasible_batch`); must
            agree with ``accept_filter`` row-wise.  Preferred when given.
        dynamics:
            Optional :class:`~repro.dynamics.Dynamics` bundle (temperature
            ladder, exchange policy, RNG topology).  ``None`` -- or a
            default bundle -- reproduces the scalar trajectories exactly.
        exchange_rng / shared_rng:
            The dedicated auxiliary streams coupled dynamics need (see
            :func:`repro.dynamics.exchange_stream` /
            :func:`repro.dynamics.shared_stream`).
        kernel:
            Sweep-kernel backend (``"reference"``/``"fused"``/``"packed"``/
            ``"auto"``; see :mod:`repro.kernels.base`).  ``None`` means the
            reference backend, whose trajectories this docstring describes.
        feasibility_constraints:
            The linear-inequality form of ``accept_filter_batch``, when one
            exists -- what lets the fused kernels track feasibility as
            incremental constraint loads instead of calling the opaque
            filter.  Ignored by the reference backend.
        """
        cfg = self.annealer
        n = qubo.num_variables
        current = as_replica_matrix(initials, n).copy()
        num_replicas = current.shape[0]
        generators = _check_replica_generators(rngs, num_replicas)
        matrix = qubo.matrix

        current_energy = batched_energies(matrix, current, qubo.offset)
        single_flip = isinstance(cfg.move_generator, SingleFlipMove)
        driver = LoopDriver(cfg.schedule, cfg.num_iterations, generators,
                            dynamics=dynamics, exchange_rng=exchange_rng,
                            shared_rng=shared_rng)
        # SA is the HyCiM sweep with every incumbent counted feasible: no
        # replica ever drifts and the best-so-far rule reduces to ``<``.
        feasible_batch, constraints = _sa_feasibility(
            accept_filter, accept_filter_batch, feasibility_constraints)
        from repro.kernels import make_hycim_kernel

        sweep = make_hycim_kernel(
            kernel, num_variables=n, driver=driver,
            move_generator=cfg.move_generator, single_flip=single_flip,
            moves_per_iteration=cfg.moves_per_iteration,
            feasible_batch=feasible_batch,
            energies=lambda batch, replicas: batched_energies(
                matrix, batch, qubo.offset),
            current=current, current_energy=current_energy,
            current_feasible=np.ones(num_replicas, dtype=bool),
            use_delta=single_flip, matrix=matrix,
            raw_energy=current_energy.copy() if single_flip else None,
            constraints=constraints, use_hardware_filters=False,
            use_crossbar=False, generators=generators)
        histories: List[List[float]] = [[] for _ in range(num_replicas)]
        _drive_kernel(driver, sweep, cfg.num_iterations, cfg.record_history,
                      histories, "SimulatedAnnealer")

        dynamics_meta = driver.metadata()
        kernel_meta = ({} if sweep.backend == "reference"
                       else {"kernel": sweep.backend})
        return [
            SolveResult(
                best_configuration=sweep.best[k].copy(),
                best_energy=float(sweep.best_energy[k]),
                energy_history=histories[k],
                num_iterations=cfg.num_iterations * cfg.moves_per_iteration,
                num_feasible_evaluations=int(sweep.num_feasible[k]),
                num_infeasible_skipped=int(sweep.num_skipped[k]),
                num_accepted_moves=int(sweep.num_accepted[k]),
                solver_name="SimulatedAnnealer",
                metadata={"seed": cfg.seed, "vectorized": True,
                          "num_replicas": num_replicas, **kernel_meta,
                          **dynamics_meta},
            )
            for k in range(num_replicas)
        ]


class BatchedHyCiMSolver:
    """``M`` lock-step replicas of a :class:`HyCiMSolver`.

    Without ``chips`` all replicas share the solver's single set of CiM
    components -- the physically faithful picture: one programmed crossbar
    and one filter array evaluate the whole replica batch, exactly as the
    hardware evaluates a whole array in one shot.

    Parameters
    ----------
    solver:
        The scalar solver whose model, schedule, move generator and iteration
        budget the replicas share.
    chips:
        Optional per-replica :class:`VariabilityModel` list (one freshly
        sampled chip per replica).  In hardware mode the engine then builds
        *device-axis* filters and crossbar -- replica ``k`` runs on chip
        ``k``'s sampled cells -- instead of the solver's shared hardware.
        Each chip's model is consumed in the scalar programming order
        (filters in constraint order, working before replica array), so chip
        ``k`` is identical to the hardware a scalar trial with the same
        model would build.
    chip_seeds:
        Per-replica crossbar/ADC seeds used when ``chips`` is given: chip
        ``k`` draws its crossbar ON-current factors, read noise and ADC
        noise from ``chip_seeds[k]``, mirroring the per-trial
        ``CrossbarConfig`` seed of the scalar path.
    """

    def __init__(self, solver: HyCiMSolver,
                 chips: Optional[Sequence[Optional[VariabilityModel]]] = None,
                 chip_seeds: Optional[Sequence[Optional[int]]] = None) -> None:
        self.solver = solver
        self.chips = list(chips) if chips is not None else None
        self._device_filters: Optional[Dict[int, InequalityFilter]] = None
        self._device_crossbar: Optional[FeFETCrossbar] = None
        if self.chips is not None and solver.use_hardware:
            self._build_device_hardware(chip_seeds)

    def _build_device_hardware(self,
                               chip_seeds: Optional[Sequence[Optional[int]]]) -> None:
        """One filter/crossbar *slice* per chip along the device axis."""
        solver = self.solver
        num_chips = len(self.chips)
        seeds = (list(chip_seeds) if chip_seeds is not None
                 else [None] * num_chips)
        if len(seeds) != num_chips:
            raise ValueError("need one chip seed per chip")
        self._device_filters = {}
        for index, constraint in enumerate(solver.model.constraints):
            if isinstance(constraint, InequalityConstraint):
                self._device_filters[index] = InequalityFilter(
                    constraint,
                    num_rows=solver.filter_rows,
                    variability=self.chips,
                    matchline_noise_sigma=solver.matchline_noise_sigma,
                )
        config = solver.crossbar_config or CrossbarConfig()
        self._device_crossbar = FeFETCrossbar.from_qubo(
            solver.model.qubo, config=config, device_seeds=seeds)

    # ------------------------------------------------------------------ #
    # Batched evaluation primitives
    # ------------------------------------------------------------------ #
    def _is_feasible_on_chip(self, x: np.ndarray, rng: np.random.Generator,
                             chip: int) -> bool:
        """Scalar mirror of ``HyCiMSolver._is_feasible`` on one chip slice."""
        for index, constraint in enumerate(self.solver.model.constraints):
            hardware_filter = self._device_filters.get(index)
            if hardware_filter is not None:
                if not hardware_filter.is_feasible(x, rng=rng, device=chip):
                    return False
            elif not constraint.is_satisfied(x):
                return False
        return True

    def _feasible_batch(self, batch: np.ndarray,
                        generators: Sequence[np.random.Generator]) -> np.ndarray:
        """Vectorised mirror of ``HyCiMSolver._is_feasible`` over replicas.

        With matchline noise enabled the scalar path consumes per-candidate
        noise draws *and* short-circuits across constraints, so the only way
        to preserve per-replica streams is to evaluate per replica; that slow
        path is taken automatically (per chip slice when a device axis is
        active).  Noise-free filters (and software mode) are evaluated in one
        shot per constraint -- a single device-axis shot covering every chip
        when per-replica chips are in play.
        """
        solver = self.solver
        device_mode = self._device_filters is not None
        filters = (self._device_filters if device_mode
                   else solver.inequality_filters)
        noisy = any(f.config.noise_sigma > 0 for f in filters.values())
        if noisy:
            if device_mode:
                return np.array([
                    self._is_feasible_on_chip(batch[k], generators[k], k)
                    for k in range(batch.shape[0])
                ], dtype=bool)
            return np.array([
                solver._is_feasible(batch[k], generators[k])
                for k in range(batch.shape[0])
            ], dtype=bool)
        verdicts = np.ones(batch.shape[0], dtype=bool)
        for index, constraint in enumerate(solver.model.constraints):
            hardware_filter = filters.get(index)
            if hardware_filter is not None:
                if device_mode:
                    verdicts &= hardware_filter.is_feasible_devices(batch)
                else:
                    verdicts &= hardware_filter.is_feasible_batch(batch)
            elif isinstance(constraint, InequalityConstraint):
                verdicts &= batched_inequality_verdicts(
                    constraint.weight_vector, constraint.bound, batch)
            else:
                verdicts &= np.array(
                    [constraint.is_satisfied(row) for row in batch], dtype=bool)
        return verdicts

    def _energies(self, batch: np.ndarray,
                  replicas: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched QUBO values of *feasible* rows (crossbar or exact).

        ``replicas`` names the replica (= chip, when a device axis is
        active) index of each batch row, so every row is evaluated on its
        own chip's crossbar slice.
        """
        if self._device_crossbar is not None:
            return self._device_crossbar.compute_energies_devices(
                batch[:, None, :], devices=replicas)[:, 0]
        crossbar = self.solver.crossbar
        if crossbar is not None:
            return crossbar.compute_energies(batch)
        qubo = self.solver.model.qubo
        return batched_energies(qubo.matrix, batch, qubo.offset)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve_batch(self, initials: np.ndarray,
                    rngs: Sequence[np.random.Generator],
                    dynamics: Optional[Dynamics] = None,
                    exchange_rng: Optional[np.random.Generator] = None,
                    shared_rng: Optional[np.random.Generator] = None,
                    kernel: Optional[str] = None,
                    ) -> List[SolveResult]:
        """Run one HyCiM SA descent per replica, in lock-step.

        Mirrors ``HyCiMSolver.solve`` step for step: inequality filtering
        first (batched), QUBO computation on feasible candidates only
        (batched), then the per-replica Metropolis rule; infeasible
        incumbents drift freely at energy 0 exactly as in the scalar flow.

        ``dynamics`` plugs in a temperature ladder, replica exchange across
        the lock-step batch and/or the chip-faithful shared RNG topology
        (with the matching ``exchange_rng`` / ``shared_rng`` auxiliary
        streams); the default dynamics reproduce the scalar trajectories
        exactly.  Exchange swaps travelling state -- configurations,
        energies, feasibility flags, cached raw energies and kernel caches
        -- between rungs; on a device axis the chips stay put (replica ``k``
        keeps annealing chip ``k``, only its configuration migrates).

        ``kernel`` selects the sweep-kernel backend; the fused/packed kernels
        cover the software-mode single-flip configuration (exact on integer
        data), hardware modes run on the reference backend (what ``"auto"``
        falls back to).
        """
        solver = self.solver
        n = solver.model.num_variables
        current = as_replica_matrix(initials, n).copy()
        num_replicas = current.shape[0]
        generators = _check_replica_generators(rngs, num_replicas)
        if self.chips is not None and len(self.chips) != num_replicas:
            raise ValueError(
                f"need one chip per replica: got {len(self.chips)} chips for "
                f"{num_replicas} replicas"
            )

        current_feasible = self._feasible_batch(current, generators)
        current_energy = np.zeros(num_replicas)
        feasible_idx = np.flatnonzero(current_feasible)
        if feasible_idx.size:
            current_energy[feasible_idx] = self._energies(current[feasible_idx],
                                                          replicas=feasible_idx)

        single_flip = isinstance(solver.move_generator, SingleFlipMove)
        # Software-mode single-flip fast path: track the raw QUBO value of
        # every incumbent (feasible or not) and update it with the O(n)
        # incremental delta instead of recomputing the O(n^2) quadratic form
        # per proposal.  The scalar solver recomputes in full, but for the
        # losslessly stored integer matrices of the paper benchmarks both
        # routes are exact, so parity is preserved; the hardware path always
        # goes through the batched crossbar MVM.
        use_crossbar = (solver.crossbar is not None
                        or self._device_crossbar is not None)
        use_delta = single_flip and not use_crossbar
        qubo = solver.model.qubo
        raw_energy = (batched_energies(qubo.matrix, current, qubo.offset)
                      if use_delta else None)
        use_hardware_filters = (self._device_filters is not None
                                or bool(solver.inequality_filters))
        driver = LoopDriver(solver.schedule, solver.num_iterations, generators,
                            dynamics=dynamics, exchange_rng=exchange_rng,
                            shared_rng=shared_rng)
        from repro.kernels import make_hycim_kernel

        sweep = make_hycim_kernel(
            kernel, num_variables=n, driver=driver,
            move_generator=solver.move_generator, single_flip=single_flip,
            moves_per_iteration=solver.moves_per_iteration,
            feasible_batch=lambda batch: self._feasible_batch(batch,
                                                              generators),
            energies=self._energies, current=current,
            current_energy=current_energy, current_feasible=current_feasible,
            use_delta=use_delta, matrix=qubo.matrix, raw_energy=raw_energy,
            constraints=solver.model.constraints,
            use_hardware_filters=use_hardware_filters,
            use_crossbar=use_crossbar, generators=generators)
        histories: List[List[float]] = [[] for _ in range(num_replicas)]
        _drive_kernel(driver, sweep, solver.num_iterations,
                      solver.record_history, histories, "HyCiM",
                      feasible_mask=sweep.current_feasible)

        best = sweep.best
        best_energy = sweep.best_energy
        best_feasible = sweep.best_feasible
        native = solver._native_problem
        dynamics_meta = driver.metadata()
        kernel_meta = ({} if sweep.backend == "reference"
                       else {"kernel": sweep.backend})
        results: List[SolveResult] = []
        for k in range(num_replicas):
            if best_feasible[k]:
                objective = (None if native is None
                             else native.objective(best[k]))
            else:
                objective = 0.0 if native is not None else None
            results.append(SolveResult(
                best_configuration=best[k].copy(),
                best_energy=float(best_energy[k]),
                best_objective=objective,
                feasible=bool(best_feasible[k]),
                energy_history=histories[k],
                num_iterations=solver.num_iterations * solver.moves_per_iteration,
                num_feasible_evaluations=int(sweep.num_feasible[k]),
                num_infeasible_skipped=int(sweep.num_skipped[k]),
                num_accepted_moves=int(sweep.num_accepted[k]),
                solver_name="HyCiM",
                metadata={
                    "use_hardware": solver.use_hardware,
                    "seed": solver.seed,
                    "num_constraints": solver.model.num_constraints,
                    "vectorized": True,
                    "num_replicas": num_replicas,
                    **({"num_chips": len(self.chips)}
                       if self.chips is not None else {}),
                    **kernel_meta,
                    **dynamics_meta,
                },
            ))
        return results
