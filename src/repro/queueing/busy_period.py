"""Discrete-time M/G/1 busy-period distribution.

Needed for the non-preemptive LCFS waiting-time analysis
(:mod:`repro.queueing.lcfs`), the [Kurose 83] LCFS baseline of Figure 7.

In a slotted system with per-slot Bernoulli(a) arrivals, every slot of
work served brings in ``Y_i`` new slots of work, where
``Y = (1 − a)·δ₀ + a·X`` (an arrival with probability a, carrying one
service time X).  Started with ``k`` slots of work, the unfinished work
after ``n`` served slots is ``k + S_n − n`` with ``S_n = Σ_{i≤n} Y_i``:
a walk that moves down by at most one per step.  A busy period is its
first passage to 0, so the hitting-time theorem (Kemperman 1961;
Takács 1962) gives the pmf in closed form:

    P(D = n) = Σ_{k≥1} P(R = k) · (k/n) · P(S_n = n − k),   P(D = 0) = P(R = 0)

for the *delay busy period* ``D`` started by initial work ``R``; the
ordinary busy period ``G`` is the case ``R = X``.  Both solve the
branching identities ``G(z) = X̃(z·(1 − a + a·G(z)))`` and
``D(z) = R̃(z·(1 − a + a·G(z)))``.  One pass carries ``Y^{*n}`` forward
by one truncated convolution per n: no iteration, no tolerance, and
O(N) memory for a horizon of N lattice points.  Truncation only drops
mass above the horizon, so every returned probability is exact up to
float rounding.
"""

from __future__ import annotations

import numpy as np

from .distributions import LatticePMF

__all__ = ["busy_period_pmf", "delay_busy_period_pmf"]


def _first_passage(
    initial: np.ndarray, a: float, service: np.ndarray, limit: int
) -> np.ndarray:
    """``P(D = n)`` for ``n < limit``, D started by work ``R ~ initial``."""
    weighted = np.zeros(limit)  # k · P(R = k)
    head = initial[:limit]
    weighted[: head.size] = np.arange(head.size) * head
    y = a * service[:limit]
    y[0] += 1.0 - a
    # S_n lives on multiples of the gcd of Y's support (2 when the service
    # pmf was refined by 2), so carry Y^{*n} on that coarser lattice:
    # power[i] = P(S_n = stride·i).
    stride = int(np.gcd.reduce(np.flatnonzero(y))) or 1
    y = y[::stride]
    size = (limit - 1) // stride + 1

    out = np.zeros(limit)
    out[0] = initial[0]
    power = np.zeros(size)
    power[0] = 1.0  # Y^{*0}
    for n in range(1, limit):
        # Entries above n of Y^{*n} feed later steps, so keep all `size`.
        power = np.convolve(power, y)[:size]
        terms = weighted[n:0:-stride]  # k = n, n − stride, ... ≥ 1
        out[n] = np.dot(terms, power[: terms.size]) / n
    return out


def busy_period_pmf(
    service: LatticePMF, arrival_rate: float, horizon: float
) -> LatticePMF:
    """Busy-period pmf of the slotted M/G/1 queue, truncated at ``horizon``.

    Parameters
    ----------
    service:
        Lattice service-time distribution (no mass at 0).
    arrival_rate:
        Poisson rate λ; per-slot arrival probability ``a = 1 − e^{−λ·delta}``.
    horizon:
        Truncation horizon: mass beyond it is dropped (the returned pmf is
        sub-stochastic; probabilities below the horizon are exact).
    """
    if service.p[0] > 0:
        raise ValueError("service times must be at least one lattice slot")
    return delay_busy_period_pmf(service, service, arrival_rate, horizon)


def delay_busy_period_pmf(
    initial_delay: LatticePMF,
    service: LatticePMF,
    arrival_rate: float,
    horizon: float,
) -> LatticePMF:
    """PMF of a busy period initiated by work drawn from ``initial_delay``.

    This is the *delay busy period*: the time to clear an initial amount
    of work ``R`` when every arrival during the clearing also jumps ahead
    (as later arrivals do under non-preemptive LCFS).  In pgf form
    ``D(z) = R̃(z·(1 − a + a·G(z)))`` with ``G`` the ordinary busy period.
    """
    delta = service.delta
    if abs(initial_delay.delta - delta) > 1e-12:
        raise ValueError("initial delay and service must share the lattice step")
    a = 1.0 - np.exp(-arrival_rate * delta)
    limit = int(np.floor(horizon / delta + 1e-9)) + 1
    # Sub-stochastic by construction (mass beyond the horizon is dropped).
    result = LatticePMF.__new__(LatticePMF)
    result.p = _first_passage(initial_delay.p, a, service.p, limit)
    result.delta = delta
    return result
