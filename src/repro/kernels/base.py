"""The sweep-kernel interface: one object owns the inner SA sweep.

The lock-step engines in :mod:`repro.batched.engine` used to inline their
propose -> dE -> filter -> accept -> update loop; that loop is now a
:class:`SweepKernel` the engine drives block-wise:

    kernel = make_hycim_kernel(backend, ...)
    while iteration < total:
        block = driver.block_length(iteration, limit)
        kernel.run_block(iteration, block)
        iteration += block
        ... exchange / probes / history at the block boundary ...

A kernel owns the travelling sweep state (configurations, energies,
best-so-far, proposal counters) and advances it ``block`` iterations per
:meth:`SweepKernel.run_block` call.  :class:`~repro.dynamics.driver.
LoopDriver` stays the single authority on temperatures, RNG draws,
acceptance and exchange -- kernels call back into it (or replay its draw
streams bit-exactly, see :mod:`repro.kernels.streams`) -- and
:meth:`~repro.dynamics.driver.LoopDriver.block_length` guarantees blocks end
exactly where an exchange round or telemetry probe is due.

There is one kernel family per backend, the HyCiM sweep of the paper's
Fig. 6(b): propose, filter, evaluate, Metropolis.  Plain SA
(:class:`~repro.batched.engine.BatchedSimulatedAnnealer`, and D-QUBO through
it) is the case where every incumbent counts as feasible: no replica drifts
and the best-so-far rule reduces to ``<``.  Its energies then step as
``(raw + ΔE) - raw`` rather than ``ΔE``: exact on integer data, within
floating-point rounding otherwise.

Backends
--------
``"reference"``
    The engines' original NumPy code, moved verbatim: one full-batch matmul
    / gather per proposal.  Byte-identical trajectories to every release
    since PR 2; supports every engine configuration.
``"fused"``
    Incremental kernels: per-replica local-field caches make the energy
    delta an O(M) gather, inequality feasibility is maintained as running
    constraint loads, and CSR matrices are supported end-to-end (flip
    updates cost O(degree)).  Consumes the *same* RNG draws through the
    same ``LoopDriver`` calls, so trajectories are exactly equal whenever
    the arithmetic is (integer-valued coefficient data -- the conformance
    families); float data agrees to summation-order tolerance.
``"packed"``
    Bit-packed states (:mod:`repro.kernels.packed`): replicas travel as
    ``(M, ceil(n/64))`` uint64 words, the single-flip ΔE is recomputed per
    proposal by AND + popcount against precomputed bit-plane masks of
    ``Q + Q^T``, and an accepted flip is a one-word XOR.  Same RNG replay
    as ``fused``; requires integer-valued coefficients (the popcount
    field sums are exact int64, hence bit-identical to the float caches)
    and a plane table within the :data:`repro.kernels.bits.MAX_MASK_BYTES`
    budget, else :class:`KernelUnsupportedError`.
``"auto"``
    The fastest backend that supports the requested configuration
    (``packed`` > ``fused`` > ``reference``); never raises for support
    reasons.  The choice depends only on the run's configuration and data,
    so one run key resolves to the same backend on every host.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "KERNEL_BACKENDS",
    "KernelUnsupportedError",
    "SweepKernel",
    "canonical_kernel_param",
    "resolve_kernel_backend",
]

#: Explicit kernel backends, fastest last.  ``"auto"`` resolves to one of
#: these at engine-construction time.
KERNEL_BACKENDS = ("reference", "fused", "packed")

#: The backend engines use when none is requested (and the one the golden
#: trajectory suite pins byte-for-byte).
DEFAULT_KERNEL = "reference"


class KernelUnsupportedError(ValueError):
    """The selected backend cannot run this engine configuration.

    Raised at kernel construction (never mid-sweep) with the unsupported
    feature named, e.g. hardware-mode evaluation under ``"fused"``.  The
    ``"auto"`` backend catches this and falls back to the next backend.
    """


def resolve_kernel_backend(kernel: Optional[str]) -> str:
    """Validate a kernel backend name (``None`` means the default).

    Returns one of :data:`KERNEL_BACKENDS` or ``"auto"``; raises
    ``ValueError`` for unknown names so typos fail at engine construction
    instead of silently running the default.
    """
    if kernel is None:
        return DEFAULT_KERNEL
    name = str(kernel)
    if name == "auto" or name in KERNEL_BACKENDS:
        return name
    raise ValueError(
        f"unknown kernel backend {kernel!r}; choose from "
        f"{KERNEL_BACKENDS + ('auto',)}"
    )


def canonical_kernel_param(kernel: Optional[str]) -> Optional[str]:
    """Canonical form of a ``params['kernel']`` entry for store run keys.

    The default backend canonicalises to ``None`` (the key is dropped), so
    runs that never mention ``kernel`` and runs that spell out
    ``kernel="reference"`` address the same persisted run -- and every run
    key minted before the kernel layer existed stays valid.  Non-default
    backends stay in the params: ``"fused"`` is only *exactly* equal to the
    reference on integer-valued instances, so conservatively every
    non-default backend addresses its own runs.
    """
    name = resolve_kernel_backend(kernel)
    return None if name == DEFAULT_KERNEL else name


class SweepKernel:
    """Base class for sweep kernels (state container + block stepping).

    Subclasses implement :meth:`run_block` and expose the travelling state
    as attributes; the engines read them at block boundaries for exchange,
    probes, history recording and final result assembly.

    Attributes
    ----------
    current, current_energy:
        The ``(M, n)`` incumbent configurations and their ``(M,)`` energies.
    current_feasible:
        ``(M,)`` incumbent feasibility flags (all true for plain SA).
    best, best_energy, best_feasible:
        Best-so-far configurations/energies/feasibility (same shapes).
    num_feasible, num_skipped, num_accepted:
        Cumulative ``(M,)`` integer proposal counters (feasible candidates,
        filter-rejected candidates, accepted moves).
    """

    #: Class-level backend tag (for result metadata / introspection).
    backend: str = "reference"

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        """Advance the sweep ``num_iterations`` iterations in one call."""
        raise NotImplementedError

    def swap_arrays(self) -> tuple:
        """Per-replica arrays whose rows travel in a replica exchange.

        The driver swaps *rows* of these arrays in place, so every cache a
        kernel keys by replica (local fields, constraint loads, raw
        energies) must be listed here alongside the configurations and
        energies -- otherwise an exchange would silently desynchronise the
        cache from the configuration it summarises.
        """
        raise NotImplementedError

    def finalize(self) -> None:
        """Hook run once after the last block (kernels that replay RNG
        streams write their state back to the replicas' generators here).
        Default: nothing."""

    def state_nbytes_per_replica(self) -> float:
        """Bytes of travelling per-replica sweep state.

        Counts the swap arrays (configurations, energies, caches) plus the
        best-so-far tracking arrays -- the memory a kernel keeps hot per
        replica between blocks.  Benchmarks report this next to throughput
        so backend memory footprints are comparable; backends whose best
        tracking lives elsewhere (the packed words) override it.
        """
        arrays = list(self.swap_arrays()) + [
            self.best, self.best_energy, self.best_feasible]
        return sum(array.nbytes for array in arrays) / arrays[0].shape[0]
