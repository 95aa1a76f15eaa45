"""Scaling study: per-replica throughput vs batch size M and problem size n.

The ROADMAP's open scaling question for the vectorised engine: how does
per-replica proposal throughput move as the lock-step batch grows (M) and the
problem grows (n), and how much of the floor is the per-replica Python-level
RNG draws?  This benchmark emits the table and pins the two structural
claims:

* growing the batch amortises the per-iteration Python overhead -- the
  per-replica proposal cost at the largest M is well below the M=1 cost, for
  every problem size;
* the chip-faithful shared-RNG mode (``Dynamics(rng_mode="shared")``), which
  replaces the per-replica draws with one batched draw per proposal, is at
  least as fast per replica as the per-replica-stream mode at the largest M
  (that draw loop is the documented floor).

Timings use the software-mode "sa" solver (pure engine + BLAS path, no
hardware simulation noise in the measurement) via the runtime front door.

This module also pins the sweep-kernel acceptance bar: the fused kernel's
per-replica throughput must be at least 5x the reference engine at n=1000
(software mode), measured on identical seeds so the comparison doubles as a
bit-exactness check.
"""

import time

import numpy as np
import pytest

import reporting
from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedSimulatedAnnealer
from repro.batched.kernels import batched_energies
from repro.dynamics import Dynamics
from repro.dynamics.driver import LoopDriver
from repro.dynamics.schedule import GeometricSchedule
from repro.kernels import make_hycim_kernel
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials

BATCH_SIZES = (1, 8, 32, 96)
PROBLEM_SIZES = (20, 50, 100)
SA_ITERATIONS = 120
PARAMS = {"num_iterations": SA_ITERATIONS, "respect_constraints": False,
          "use_hardware": False}


def _per_replica_proposal_us(problem, num_replicas, dynamics=None):
    started = time.perf_counter()
    run_trials(problem, "sa", num_trials=num_replicas, params=PARAMS,
               backend="vectorized", master_seed=3, dynamics=dynamics)
    elapsed = time.perf_counter() - started
    return elapsed / (num_replicas * SA_ITERATIONS) * 1e6


@pytest.fixture(scope="module")
def problems():
    return {n: generate_qkp_instance(num_items=n, density=0.5, seed=900 + n,
                                     name=f"scaling_qkp_{n}")
            for n in PROBLEM_SIZES}


class TestScalingOverMAndN:
    def test_per_replica_throughput_table(self, problems):
        table = {}
        for n, problem in problems.items():
            for num_replicas in BATCH_SIZES:
                table[(n, num_replicas)] = _per_replica_proposal_us(
                    problem, num_replicas)
            table[(n, "shared")] = _per_replica_proposal_us(
                problems[n], BATCH_SIZES[-1],
                dynamics=Dynamics(rng_mode="shared"))

        print("\nPer-replica proposal cost [us] vs batch size M and "
              "problem size n (vectorized backend, software mode):")
        header = "".join(f"{f'M={m}':>12}" for m in BATCH_SIZES)
        print(f"{'n':>6}{header}{f'M={BATCH_SIZES[-1]} shared':>16}")
        for n in PROBLEM_SIZES:
            cells = "".join(f"{table[(n, m)]:>12.2f}" for m in BATCH_SIZES)
            print(f"{n:>6}{cells}{table[(n, 'shared')]:>16.2f}")

        largest = BATCH_SIZES[-1]
        for n in PROBLEM_SIZES:
            # Lock-step batching must amortise the per-iteration Python
            # overhead: generous 2x bar so the assertion survives noisy CI
            # machines (measured ~5-20x on a dev box).
            assert table[(n, largest)] < table[(n, 1)] / 2, (
                f"n={n}: per-replica cost at M={largest} "
                f"({table[(n, largest)]:.2f}us) is not meaningfully below "
                f"M=1 ({table[(n, 1)]:.2f}us)")
            # The shared-stream mode removes the per-replica draw loop; it
            # must not be slower than per-replica streams at the same M
            # (1.25x slack for timer noise).
            assert table[(n, "shared")] < table[(n, largest)] * 1.25, (
                f"n={n}: shared-RNG mode ({table[(n, 'shared')]:.2f}us) "
                "should be at least as fast as per-replica streams "
                f"({table[(n, largest)]:.2f}us)")

        reporting.emit(
            "scaling_mn_amortisation",
            "per-replica proposal cost at M=96 vs M=1 (n=100)",
            table[(PROBLEM_SIZES[-1], 1)] / table[(PROBLEM_SIZES[-1], largest)],
            "x",
            details={"table_us": {f"n={n},M={m}": table[(n, m)]
                                  for n in PROBLEM_SIZES
                                  for m in (*BATCH_SIZES, "shared")}})


# Fused-kernel throughput floor: problem/batch geometry chosen so the
# reference run stays a few seconds while the anneal reaches the cold phase
# where the accept rate (the fused kernel's cost driver) settles.  Measured
# ~6.8x on a dev box at this configuration; the pinned floor leaves headroom
# for slower CI machines (the metric is a ratio, so absolute machine speed
# mostly cancels).
FLOOR_N = 1000
FLOOR_REPLICAS = 256
FLOOR_ITERATIONS = 2500
FLOOR_SPEEDUP = 5.0


class TestFusedKernelThroughputFloor:
    def test_fused_vs_reference_speedup_at_n1000(self):
        problem = generate_qkp_instance(
            num_items=FLOOR_N, density=0.05, seed=9,
            name="kernel_floor_qkp_1000")
        qubo = problem.to_qubo()
        constraints = problem.linear_feasibility_constraints()
        start_rng = np.random.default_rng(3)
        starts = np.stack([problem.random_feasible_configuration(start_rng)
                           for _ in range(FLOOR_REPLICAS)])
        annealer = BatchedSimulatedAnnealer(
            SimulatedAnnealer(num_iterations=FLOOR_ITERATIONS))

        def run(backend, iterations=FLOOR_ITERATIONS):
            runner = annealer if iterations == FLOOR_ITERATIONS else (
                BatchedSimulatedAnnealer(
                    SimulatedAnnealer(num_iterations=iterations)))
            generators = [np.random.default_rng([17, replica])
                          for replica in range(FLOOR_REPLICAS)]
            started = time.perf_counter()
            results = runner.anneal(
                qubo, starts, generators,
                accept_filter_batch=problem.is_feasible_batch,
                feasibility_constraints=constraints, kernel=backend)
            return time.perf_counter() - started, results

        # Warm up both paths (BLAS thread pools, lazy allocations) so the
        # timed runs measure steady-state throughput.
        run("reference", iterations=20)
        run("fused", iterations=20)

        reference_seconds, reference_results = run("reference")
        fused_seconds, fused_results = min(
            (run("fused") for _ in range(2)), key=lambda pair: pair[0])

        # Same seeds, same problem: the replayed per-replica RNG streams make
        # the fused kernel bit-identical to the reference engine, so the
        # speed comparison is between runs doing exactly the same work.
        reference_best = [trial.best_energy for trial in reference_results]
        fused_best = [trial.best_energy for trial in fused_results]
        assert reference_best == fused_best

        per_replica_iter = FLOOR_REPLICAS * FLOOR_ITERATIONS
        reference_us = reference_seconds / per_replica_iter * 1e6
        fused_us = fused_seconds / per_replica_iter * 1e6
        speedup = reference_us / fused_us
        print(f"\nFused-kernel throughput floor (n={FLOOR_N}, "
              f"M={FLOOR_REPLICAS}, {FLOOR_ITERATIONS} iterations):")
        print(f"  reference: {reference_us:6.2f} us/replica-iteration")
        print(f"  fused:     {fused_us:6.2f} us/replica-iteration")
        print(f"  speedup:   {speedup:6.2f}x  (pinned floor "
              f"{FLOOR_SPEEDUP:.1f}x)")

        reporting.emit(
            "kernel_throughput_floor",
            "fused-kernel per-replica speedup over the reference engine "
            "(n=1000, software mode)",
            speedup, "x", floor=FLOOR_SPEEDUP,
            details={"num_variables": FLOOR_N,
                     "num_replicas": FLOOR_REPLICAS,
                     "num_iterations": FLOOR_ITERATIONS,
                     "reference_us_per_replica_iteration": reference_us,
                     "fused_us_per_replica_iteration": fused_us})

        assert speedup >= FLOOR_SPEEDUP, (
            f"fused kernel speedup {speedup:.2f}x at n={FLOOR_N} is below "
            f"the pinned {FLOOR_SPEEDUP:.1f}x floor "
            f"(reference {reference_us:.2f}us vs fused {fused_us:.2f}us "
            "per replica-iteration)")


# Packed-kernel floor: the popcount backend pays a fixed B/64 words of
# popcount work per proposed variable while the fused backend pays an O(n)
# field update per *accepted* flip, so the packed kernel overtakes fused
# once the acceptance rate clears ~B/64.  The pinned geometry holds the
# anneal in that exploration regime (accept rate ~0.7 at this schedule);
# measured ~1.7-2.0x on a dev box, and the floor only demands parity so
# the assertion survives slower CI machines.
PACKED_N = 4096
PACKED_REPLICAS = 128
PACKED_ITERATIONS = 2500
PACKED_SCHEDULE = (16000.0, 4000.0)
PACKED_FLOOR = 1.0


class TestPackedKernelThroughputFloor:
    @pytest.fixture(scope="class")
    def floor_problem(self):
        return generate_qkp_instance(num_items=PACKED_N, density=0.02,
                                     seed=9, name="packed_floor_qkp_4096")

    def test_packed_vs_fused_speedup_at_n4096(self, floor_problem):
        problem = floor_problem
        qubo = problem.to_qubo()
        constraints = problem.linear_feasibility_constraints()
        start_rng = np.random.default_rng(3)
        starts = np.stack([problem.random_feasible_configuration(start_rng)
                           for _ in range(PACKED_REPLICAS)])

        def run(backend, iterations=PACKED_ITERATIONS):
            runner = BatchedSimulatedAnnealer(SimulatedAnnealer(
                num_iterations=iterations,
                schedule=GeometricSchedule(*PACKED_SCHEDULE)))
            generators = [np.random.default_rng([17, replica])
                          for replica in range(PACKED_REPLICAS)]
            started = time.perf_counter()
            results = runner.anneal(
                qubo, starts, generators,
                accept_filter_batch=problem.is_feasible_batch,
                feasibility_constraints=constraints, kernel=backend)
            return time.perf_counter() - started, results

        run("fused", iterations=20)
        run("packed", iterations=20)

        fused_seconds, fused_results = min(
            (run("fused") for _ in range(2)), key=lambda pair: pair[0])
        packed_seconds, packed_results = min(
            (run("packed") for _ in range(2)), key=lambda pair: pair[0])

        # Identical seeds and replayed RNG streams: the packed run is
        # bit-identical to the fused one, so the timing compares two
        # backends doing exactly the same accepted-move sequence.
        fused_best = [trial.best_energy for trial in fused_results]
        packed_best = [trial.best_energy for trial in packed_results]
        assert fused_best == packed_best

        accept_rate = float(np.mean(
            [trial.num_accepted_moves for trial in fused_results])
            ) / PACKED_ITERATIONS
        per_replica_iter = PACKED_REPLICAS * PACKED_ITERATIONS
        fused_us = fused_seconds / per_replica_iter * 1e6
        packed_us = packed_seconds / per_replica_iter * 1e6
        speedup = fused_us / packed_us
        print(f"\nPacked-kernel throughput floor (n={PACKED_N}, "
              f"M={PACKED_REPLICAS}, {PACKED_ITERATIONS} iterations, "
              f"accept rate {accept_rate:.2f}):")
        print(f"  fused:   {fused_us:6.2f} us/replica-iteration")
        print(f"  packed:  {packed_us:6.2f} us/replica-iteration")
        print(f"  speedup: {speedup:6.2f}x  (pinned floor "
              f"{PACKED_FLOOR:.1f}x)")

        reporting.emit(
            "packed_kernel_throughput_floor",
            "packed-kernel per-replica speedup over the fused kernel in the "
            "exploration regime (n=4096, software mode)",
            speedup, "x", floor=PACKED_FLOOR,
            details={"num_variables": PACKED_N,
                     "num_replicas": PACKED_REPLICAS,
                     "num_iterations": PACKED_ITERATIONS,
                     "schedule": list(PACKED_SCHEDULE),
                     "accept_rate": accept_rate,
                     "fused_us_per_replica_iteration": fused_us,
                     "packed_us_per_replica_iteration": packed_us})

        assert speedup >= PACKED_FLOOR, (
            f"packed kernel speedup {speedup:.2f}x at n={PACKED_N} is below "
            f"the pinned {PACKED_FLOOR:.1f}x floor "
            f"(fused {fused_us:.2f}us vs packed {packed_us:.2f}us "
            "per replica-iteration)")

    def test_packed_state_bytes_per_replica(self, floor_problem):
        # The packed representation's other win: the travelling per-replica
        # state (packed words vs float field caches) is ~2 orders of
        # magnitude smaller, which is what lets large-n ladders fit in
        # cache.  Emitted as a memory metric alongside the throughput one.
        problem = floor_problem
        matrix = problem.to_qubo().matrix
        start_rng = np.random.default_rng(3)
        starts = np.stack([problem.random_feasible_configuration(start_rng)
                           for _ in range(PACKED_REPLICAS)]).astype(float)
        nbytes = {}
        for backend in ("fused", "packed"):
            generators = [np.random.default_rng([17, replica])
                          for replica in range(PACKED_REPLICAS)]
            energy = batched_energies(matrix, starts)
            # SA is the HyCiM sweep with every incumbent feasible.
            kernel = make_hycim_kernel(
                backend, num_variables=PACKED_N,
                driver=LoopDriver(GeometricSchedule(*PACKED_SCHEDULE), 10,
                                  generators),
                move_generator=None, single_flip=True,
                moves_per_iteration=1, feasible_batch=None, energies=None,
                current=starts.copy(), current_energy=energy,
                current_feasible=np.ones(PACKED_REPLICAS, dtype=bool),
                use_delta=True, matrix=matrix, raw_energy=energy.copy(),
                constraints=problem.linear_feasibility_constraints(),
                use_hardware_filters=False, use_crossbar=False,
                generators=generators)
            nbytes[backend] = kernel.state_nbytes_per_replica()

        ratio = nbytes["fused"] / nbytes["packed"]
        print(f"\nPer-replica travelling state at n={PACKED_N}: "
              f"fused {nbytes['fused']:.0f} B, "
              f"packed {nbytes['packed']:.0f} B ({ratio:.0f}x smaller)")

        reporting.emit(
            "packed_state_bytes_per_replica",
            "packed-kernel travelling state per replica (n=4096)",
            nbytes["packed"], "bytes", higher_is_better=False,
            details={"num_variables": PACKED_N,
                     "num_replicas": PACKED_REPLICAS,
                     "fused_bytes_per_replica": nbytes["fused"],
                     "ratio_fused_over_packed": ratio})

        assert nbytes["packed"] < nbytes["fused"] / 4
