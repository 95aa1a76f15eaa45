"""Sweep kernels: pluggable inner loops for the lock-step batched engines.

See :mod:`repro.kernels.base` for the interface and the backend matrix.
:func:`make_hycim_kernel` is what both engines call: given a backend name
(or ``"auto"``) and the engine's loop state, it constructs the matching
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
from repro.kernels.fused import FusedHyCiMKernel
from repro.kernels.packed import PackedHyCiMKernel
from repro.kernels.reference import ReferenceHyCiMKernel

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_BACKENDS",
    "FusedHyCiMKernel",
    "KernelUnsupportedError",
    "PackedHyCiMKernel",
    "ReferenceHyCiMKernel",
    "SweepKernel",
    "canonical_kernel_param",
    "make_hycim_kernel",
    "resolve_kernel_backend",
]

#: ``"auto"`` tries backends in this order, falling through on
#: KernelUnsupportedError; the reference backend supports everything, so
#: "auto" never fails for support reasons.
AUTO_ORDER = ("packed", "fused", "reference")


def make_hycim_kernel(kernel: Optional[str], *, num_variables, driver,
                      move_generator, single_flip, moves_per_iteration,
                      feasible_batch, energies, current, current_energy,
                      current_feasible, use_delta, matrix, raw_energy,
                      constraints, use_hardware_filters, use_crossbar,
                      generators=None) -> SweepKernel:
    """Construct the HyCiM sweep kernel for the requested backend.

    Plain SA runs through here too, as the case where every incumbent is
    feasible (``current_feasible`` all true); ``constraints=None`` marks an
    opaque feasibility test only the reference backend can evaluate.
    """

    def build(name: str) -> SweepKernel:
        if name == "reference":
            return ReferenceHyCiMKernel(
                num_variables=num_variables, driver=driver,
                move_generator=move_generator, single_flip=single_flip,
                moves_per_iteration=moves_per_iteration,
                feasible_batch=feasible_batch, energies=energies,
                current=current, current_energy=current_energy,
                current_feasible=current_feasible, use_delta=use_delta,
                matrix=matrix, raw_energy=raw_energy)
        fast = FusedHyCiMKernel if name == "fused" else PackedHyCiMKernel
        return fast(
            matrix=matrix, driver=driver, single_flip=single_flip,
            moves_per_iteration=moves_per_iteration, constraints=constraints,
            current=current, current_energy=current_energy,
            current_feasible=current_feasible,
            raw_energy=raw_energy if use_delta else None,
            use_hardware_filters=use_hardware_filters,
            use_crossbar=use_crossbar, generators=generators)

    name = resolve_kernel_backend(kernel)
    if name != "auto":
        return build(name)
    for candidate in AUTO_ORDER[:-1]:
        try:
            return build(candidate)
        except KernelUnsupportedError:
            pass
    return build(AUTO_ORDER[-1])
