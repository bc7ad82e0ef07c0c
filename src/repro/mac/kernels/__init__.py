"""Shared kernel primitives for the MAC simulation back ends.

Three kernels execute the window protocol:

* the **reference loop** (:meth:`repro.mac.simulator.WindowMACSimulator._run_shared`),
* the **fast kernel** (:mod:`repro.mac.fastpath`, with its faulted twin
  :mod:`repro.mac.kernels.faults`), and
* the **compiled backend** (:mod:`repro.mac.kernels.compiled`), the
  default engine (``backend=None``/``"auto"``).

This package is the single home for everything they share:

``primitives``
    Policy traits (:class:`~repro.mac.kernels.primitives.KernelTraits`),
    the decision-epoch executor, the idle fast-forward shortcut, wait
    statistics, instrumentation buffers, fate codes, and the split rules
    (re-exported from :mod:`repro.core.splits`, where the reference
    state machine consumes them too).
``lane``
    The lane state machine — one independent run advanced in fused
    rounds — that the compiled backend drives.
``engine``
    The flat struct-of-arrays engine: interval-set and span arithmetic
    on plain float pairs (bit-identical to
    :mod:`repro.core.timeline`), replacing the object stack inside
    collision-resolution epochs.
``compiled``
    Backend selection: ``numba``-compiled hot loops when numba is
    importable, the pure-NumPy/struct-of-arrays fallback otherwise,
    plus the eligibility gate and the one-time fallback notice.

Every quantity any of these produce is bound by the same bit-parity
contract the fast kernel introduced: field-for-field equality with the
reference loop, seeded RANDOM included, metrics registries equal when
enabled.
"""

from . import primitives
from .primitives import (
    DISCARDED,
    LATE,
    ON_TIME,
    PENDING,
    EpochContext,
    KernelTraits,
    ObsBuffers,
    WaitStats,
    examination_order,
    execute_epoch,
    kernel_traits,
    split_parts,
    try_fast_forward,
)

__all__ = [
    "primitives",
    "PENDING",
    "ON_TIME",
    "LATE",
    "DISCARDED",
    "EpochContext",
    "KernelTraits",
    "ObsBuffers",
    "WaitStats",
    "examination_order",
    "execute_epoch",
    "kernel_traits",
    "split_parts",
    "try_fast_forward",
]
