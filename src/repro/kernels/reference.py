"""Reference sweep kernel: the engines' original NumPy inner loop.

The loop body in this module is the exact code
:class:`~repro.batched.engine.BatchedHyCiMSolver` inlined before the kernel
layer existed -- moved, not rewritten -- so per-seed trajectories are
byte-identical to every release since PR 2 (pinned by
``tests/batched/test_golden_trajectories.py`` and the scalar-parity suite).
:class:`~repro.batched.engine.BatchedSimulatedAnnealer` runs the same sweep
with every incumbent counted feasible (see :mod:`repro.kernels.base`).
One full-batch operation per proposal: an O(M*n) candidate copy, an O(M*n)
delta gather (or batched crossbar MVM), one batched filter pass.

This backend supports every engine configuration -- hardware or software
evaluation, any move generator, noisy filters, device axes, both RNG
topologies -- which is why it is the default and the fallback of
``kernel="auto"``.  Sparse (CSR) matrices run through the sparse-aware
:mod:`repro.batched.kernels` primitives with identical verdicts and
integer-exact energies, at O(M * nnz-per-row) per proposal.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.batched.kernels import batched_energy_delta, symmetrized_matrix
from repro.dynamics.driver import LoopDriver
from repro.dynamics.moves import MoveGenerator
from repro.kernels.base import SweepKernel

__all__ = ["ReferenceHyCiMKernel"]


class ReferenceHyCiMKernel(SweepKernel):
    """The batched HyCiM sweep, exactly as the engine inlined it.

    The engine stays the owner of the hardware stack: ``feasible_batch``
    and ``energies`` are its bound evaluation primitives (CiM filters /
    crossbar, device axes, scalar fallbacks for noisy filters), so this
    kernel runs every hardware configuration the engine does.
    ``use_delta`` enables the software-mode single-flip incremental path
    over the raw QUBO value (``raw_energy``), as before.
    """

    backend = "reference"

    def __init__(self, *, num_variables: int, driver: LoopDriver,
                 move_generator: MoveGenerator, single_flip: bool,
                 moves_per_iteration: int,
                 feasible_batch: Callable[[np.ndarray], np.ndarray],
                 energies: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 current: np.ndarray, current_energy: np.ndarray,
                 current_feasible: np.ndarray,
                 use_delta: bool = False,
                 matrix: Optional[np.ndarray] = None,
                 raw_energy: Optional[np.ndarray] = None) -> None:
        self.driver = driver
        self.move_generator = move_generator
        self.single_flip = bool(single_flip)
        self.moves_per_iteration = int(moves_per_iteration)
        self.feasible_batch = feasible_batch
        self.energies = energies
        self.use_delta = bool(use_delta)
        self.matrix = matrix
        self.raw_energy = raw_energy

        self.current = current
        self.current_energy = current_energy
        self.current_feasible = current_feasible
        self.best = current.copy()
        self.best_energy = current_energy.copy()
        self.best_feasible = current_feasible.copy()
        num_replicas = current.shape[0]
        self.num_feasible = np.zeros(num_replicas, dtype=int)
        self.num_skipped = np.zeros(num_replicas, dtype=int)
        self.num_accepted = np.zeros(num_replicas, dtype=int)
        self._rows = np.arange(num_replicas)
        self._num_variables = int(num_variables)
        self._symmetric = (symmetrized_matrix(matrix)
                           if self.use_delta else None)
        # Reused single-flip candidate buffer: refreshing it with np.copyto
        # is value-identical to a fresh current.copy() per proposal but
        # spares the O(M*n) allocation in the hot loop.
        self._candidates = (np.empty_like(current) if self.single_flip
                            else None)

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        driver = self.driver
        current = self.current
        current_energy = self.current_energy
        current_feasible = self.current_feasible
        raw_energy = self.raw_energy
        rows = self._rows
        n = self._num_variables
        for iteration in range(start_iteration,
                               start_iteration + num_iterations):
            for _ in range(self.moves_per_iteration):
                if self.single_flip:
                    flips = driver.flip_indices(n)
                    candidates = self._candidates
                    np.copyto(candidates, current)
                    candidates[rows, flips] = 1.0 - candidates[rows, flips]
                else:
                    candidates = driver.propose(self.move_generator, current)

                if self.use_delta:
                    candidate_raw = raw_energy + batched_energy_delta(
                        self.matrix, current, flips,
                        symmetric=self._symmetric)

                # Step 1: inequality evaluation, one batched filter pass.
                candidate_feasible = self.feasible_batch(candidates)
                infeasible_idx = np.flatnonzero(~candidate_feasible)
                self.num_skipped[infeasible_idx] += 1
                # Replicas whose incumbent is itself infeasible drift freely
                # at energy 0 (paper Eq. (6)), as in the scalar solver.
                drifting = infeasible_idx[~current_feasible[infeasible_idx]]
                if drifting.size:
                    current[drifting] = candidates[drifting]
                    current_energy[drifting] = 0.0
                    if self.use_delta:
                        raw_energy[drifting] = candidate_raw[drifting]

                feasible_idx = np.flatnonzero(candidate_feasible)
                if feasible_idx.size == 0:
                    continue
                self.num_feasible[feasible_idx] += 1

                # Step 2: QUBO computation for all feasible candidates in one
                # batched crossbar MVM (or BLAS product in software mode).
                if self.use_delta:
                    candidate_energy = candidate_raw[feasible_idx]
                else:
                    candidate_energy = self.energies(candidates[feasible_idx],
                                                     feasible_idx)

                # Step 3: per-replica Metropolis acceptance.
                delta = candidate_energy - current_energy[feasible_idx]
                accepted = driver.metropolis(delta, feasible_idx, iteration)
                accepted_idx = feasible_idx[accepted]
                if accepted_idx.size:
                    current[accepted_idx] = candidates[accepted_idx]
                    current_energy[accepted_idx] = candidate_energy[accepted]
                    if self.use_delta:
                        raw_energy[accepted_idx] = candidate_energy[accepted]
                    current_feasible[accepted_idx] = True
                    self.num_accepted[accepted_idx] += 1
                    improved = accepted_idx[
                        (current_energy[accepted_idx]
                         < self.best_energy[accepted_idx])
                        | ~self.best_feasible[accepted_idx]]
                    self.best_energy[improved] = current_energy[improved]
                    self.best[improved] = current[improved]
                    self.best_feasible[improved] = True

    def swap_arrays(self) -> tuple:
        arrays = [self.current, self.current_energy, self.current_feasible]
        if self.use_delta:
            arrays.append(self.raw_energy)
        return tuple(arrays)
