"""Sweep kernels: pluggable inner loops for the lock-step batched engines.

See :mod:`repro.kernels.base` for the interface and the backend matrix.
The factories here are what the engines call: given a backend name (or
``"auto"``) and the engine's loop state, they construct the matching
:class:`~repro.kernels.base.SweepKernel`, falling back along
``packed -> fused -> reference`` when ``"auto"`` meets an unsupported
configuration.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.base import (
    DEFAULT_KERNEL,
    KERNEL_BACKENDS,
    KernelUnsupportedError,
    SweepKernel,
    canonical_kernel_param,
    resolve_kernel_backend,
)
from repro.kernels.fused import FusedHyCiMKernel, FusedSAKernel
from repro.kernels.packed import PackedHyCiMKernel, PackedSAKernel
from repro.kernels.reference import ReferenceHyCiMKernel, ReferenceSAKernel

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_BACKENDS",
    "FusedHyCiMKernel",
    "FusedSAKernel",
    "KernelUnsupportedError",
    "PackedHyCiMKernel",
    "PackedSAKernel",
    "ReferenceHyCiMKernel",
    "ReferenceSAKernel",
    "SweepKernel",
    "canonical_kernel_param",
    "make_hycim_kernel",
    "make_sa_kernel",
    "resolve_kernel_backend",
]

#: ``"auto"`` tries backends in this order, falling through on
#: KernelUnsupportedError; the reference backend supports everything, so
#: "auto" never fails for support reasons.
AUTO_ORDER = ("packed", "fused", "reference")


def _build(backend: Optional[str], builders: dict) -> SweepKernel:
    name = resolve_kernel_backend(backend)
    if name != "auto":
        return builders[name]()
    last_error: Optional[Exception] = None
    for candidate in AUTO_ORDER:
        try:
            return builders[candidate]()
        except KernelUnsupportedError as error:
            last_error = error
    raise last_error  # pragma: no cover - reference never raises


def make_sa_kernel(kernel: Optional[str], *, matrix, offset, driver,
                   move_generator, single_flip, moves_per_iteration,
                   current, current_energy, accept_filter=None,
                   accept_filter_batch=None, feasibility_constraints=None,
                   generators=None) -> SweepKernel:
    """Construct the SA sweep kernel for the requested backend."""

    def reference() -> SweepKernel:
        return ReferenceSAKernel(
            matrix=matrix, offset=offset, driver=driver,
            move_generator=move_generator, single_flip=single_flip,
            moves_per_iteration=moves_per_iteration, current=current,
            current_energy=current_energy, accept_filter=accept_filter,
            accept_filter_batch=accept_filter_batch)

    def fused() -> SweepKernel:
        return FusedSAKernel(
            matrix=matrix, offset=offset, driver=driver,
            single_flip=single_flip,
            moves_per_iteration=moves_per_iteration, current=current,
            current_energy=current_energy, accept_filter=accept_filter,
            accept_filter_batch=accept_filter_batch,
            constraints=feasibility_constraints, generators=generators)

    def packed() -> SweepKernel:
        return PackedSAKernel(
            matrix=matrix, offset=offset, driver=driver,
            single_flip=single_flip,
            moves_per_iteration=moves_per_iteration, current=current,
            current_energy=current_energy, accept_filter=accept_filter,
            accept_filter_batch=accept_filter_batch,
            constraints=feasibility_constraints, generators=generators)

    return _build(kernel, {"reference": reference, "fused": fused,
                           "packed": packed})


def make_hycim_kernel(kernel: Optional[str], *, num_variables, driver,
                      move_generator, single_flip, moves_per_iteration,
                      feasible_batch, energies, current, current_energy,
                      current_feasible, use_delta, matrix, raw_energy,
                      constraints, use_hardware_filters, use_crossbar,
                      generators=None) -> SweepKernel:
    """Construct the HyCiM sweep kernel for the requested backend."""

    def reference() -> SweepKernel:
        return ReferenceHyCiMKernel(
            num_variables=num_variables, driver=driver,
            move_generator=move_generator, single_flip=single_flip,
            moves_per_iteration=moves_per_iteration,
            feasible_batch=feasible_batch, energies=energies,
            current=current, current_energy=current_energy,
            current_feasible=current_feasible, use_delta=use_delta,
            matrix=matrix, raw_energy=raw_energy)

    def fused() -> SweepKernel:
        return FusedHyCiMKernel(
            matrix=matrix, driver=driver, single_flip=single_flip,
            moves_per_iteration=moves_per_iteration, constraints=constraints,
            current=current, current_energy=current_energy,
            current_feasible=current_feasible,
            raw_energy=raw_energy if use_delta else None,
            use_hardware_filters=use_hardware_filters,
            use_crossbar=use_crossbar, generators=generators)

    def packed() -> SweepKernel:
        return PackedHyCiMKernel(
            matrix=matrix, driver=driver, single_flip=single_flip,
            moves_per_iteration=moves_per_iteration, constraints=constraints,
            current=current, current_energy=current_energy,
            current_feasible=current_feasible,
            raw_energy=raw_energy if use_delta else None,
            use_hardware_filters=use_hardware_filters,
            use_crossbar=use_crossbar, generators=generators)

    return _build(kernel, {"reference": reference, "fused": fused,
                           "packed": packed})
