"""Tests for the discrete M/G/1 busy-period computation."""

import numpy as np
import pytest

from repro.experiments import PanelConfig
from repro.queueing import (
    LatticePMF,
    busy_period_pmf,
    delay_busy_period_pmf,
    deterministic_pmf,
    geometric_pmf,
)


def _compose(initial: np.ndarray, a: float, g: np.ndarray, limit: int) -> np.ndarray:
    """Oracle: pmf of ``Σ_{s=1..T} (1 + A_s·G_s)`` with ``T ~ initial``.

    The branching identity read directly: Σ_t P(T = t) · W^{*t} truncated
    to ``limit``, where ``W = δ₁ ⊛ ((1 − a)δ₀ + a·G)`` is one slot of work
    plus, with probability a, the sub-busy period of an arrival.  Entries
    below ``limit`` depend only on entries of ``g`` below ``limit``, so the
    identity holds exactly on the truncated prefix.
    """
    w = np.zeros(min(limit, g.size + 1))
    w[1:] = a * g[: w.size - 1]
    if w.size > 1:
        w[1] += 1.0 - a
    out = np.zeros(limit)
    power = np.zeros(limit)
    power[0] = 1.0  # W^{*0}
    for t in range(min(initial.size, limit)):
        if t > 0:
            power = np.convolve(power, w)[:limit]
        if initial[t] > 0:
            out += initial[t] * power
    return out


def _prefix(p: np.ndarray, size: int) -> np.ndarray:
    """``p`` cut or zero-padded to ``size`` entries."""
    out = np.zeros(size)
    out[: min(size, p.size)] = p[:size]
    return out


def _figure7_service() -> LatticePMF:
    """The Figure-7 exact-scheduling service pmf, on the LCFS lattice."""
    return PanelConfig(rho_prime=0.5, message_length=25).service_pmf().refine(2)


SERVICES = {
    "deterministic": (deterministic_pmf(4.0), 0.1, 200.0),
    "geometric": (geometric_pmf(5.0, start=1.0), 0.08, 200.0),
    "figure7-exact": (_figure7_service(), 0.5 / 25, 120.0),
}

ORACLE_ATOL = 1e-12


def _slot_arrival_prob(service: LatticePMF, lam: float) -> float:
    return 1.0 - np.exp(-lam * service.delta)


@pytest.mark.parametrize("name", sorted(SERVICES))
class TestBranchingIdentityOracle:
    """The closed form solves both pgf identities on the truncated prefix."""

    def test_busy_period_is_fixed_point(self, name):
        service, lam, horizon = SERVICES[name]
        g = busy_period_pmf(service, lam, horizon).p
        a = _slot_arrival_prob(service, lam)
        assert g.sum() > 0.5  # the horizon holds most of the mass
        np.testing.assert_allclose(
            _compose(service.p, a, g, g.size), g, rtol=0, atol=ORACLE_ATOL
        )

    def test_delay_busy_period_matches_composition(self, name):
        service, lam, horizon = SERVICES[name]
        residual = service.residual()
        g = busy_period_pmf(service, lam, horizon).p
        d = delay_busy_period_pmf(residual, service, lam, horizon).p
        a = _slot_arrival_prob(service, lam)
        np.testing.assert_allclose(
            _compose(residual.p, a, g, d.size), d, rtol=0, atol=ORACLE_ATOL
        )

    def test_oracle_rejects_perturbed_pmf(self, name):
        """The identity check can fail: a 1e-9 nudge breaks it."""
        service, lam, horizon = SERVICES[name]
        g = busy_period_pmf(service, lam, horizon).p.copy()
        a = _slot_arrival_prob(service, lam)
        index = int(np.argmax(g))
        g[index] += 1e-9
        residual = np.abs(_compose(service.p, a, g, g.size) - g)
        assert residual.max() > 100 * ORACLE_ATOL

    def test_no_arrivals_edge(self, name):
        service, _, horizon = SERVICES[name]
        g = busy_period_pmf(service, 0.0, horizon).p
        d = delay_busy_period_pmf(service.residual(), service, 0.0, horizon).p
        np.testing.assert_allclose(
            g, _prefix(service.p, g.size), rtol=0, atol=ORACLE_ATOL
        )
        np.testing.assert_allclose(
            d, _prefix(service.residual().p, d.size), rtol=0, atol=ORACLE_ATOL
        )
        np.testing.assert_allclose(
            _compose(service.p, 0.0, g, g.size), g, rtol=0, atol=ORACLE_ATOL
        )

    def test_zero_initial_work_edge(self, name):
        service, lam, horizon = SERVICES[name]
        initial = LatticePMF([1.0], delta=service.delta)
        d = delay_busy_period_pmf(initial, service, lam, horizon).p
        g = busy_period_pmf(service, lam, horizon).p
        a = _slot_arrival_prob(service, lam)
        expected = np.zeros_like(d)
        expected[0] = 1.0
        np.testing.assert_array_equal(d, expected)
        np.testing.assert_allclose(
            _compose(initial.p, a, g, d.size), d, rtol=0, atol=ORACLE_ATOL
        )


class TestBusyPeriod:
    def test_service_mass_at_zero_rejected(self):
        from repro.queueing import LatticePMF

        with pytest.raises(ValueError):
            busy_period_pmf(LatticePMF([0.3, 0.7]), 0.1, horizon=50.0)

    def test_zero_arrivals_busy_period_is_service(self):
        service = deterministic_pmf(5.0)
        bp = busy_period_pmf(service, arrival_rate=0.0, horizon=50.0)
        assert bp.p[5] == pytest.approx(1.0)
        assert bp.p.sum() == pytest.approx(1.0)

    def test_mean_matches_closed_form(self):
        """E[busy period] = x̄ / (1 − ρ)."""
        service = deterministic_pmf(4.0)
        lam = 0.1  # rho = 0.4
        bp = busy_period_pmf(service, lam, horizon=3000.0)
        mass = bp.p.sum()
        assert mass > 0.999  # horizon captures nearly everything
        mean = bp.mean() / mass
        # The slotted Bernoulli chain approximates the continuous formula.
        assert mean == pytest.approx(4.0 / (1.0 - 0.4), rel=0.05)

    def test_mass_within_horizon_increases(self):
        service = deterministic_pmf(4.0)
        short = busy_period_pmf(service, 0.1, horizon=20.0)
        long = busy_period_pmf(service, 0.1, horizon=200.0)
        assert long.p.sum() >= short.p.sum()

    def test_busy_period_no_shorter_than_service(self):
        service = deterministic_pmf(6.0)
        bp = busy_period_pmf(service, 0.05, horizon=100.0)
        assert np.all(bp.p[:6] == 0.0)

    def test_heavier_load_longer_busy_period(self):
        service = deterministic_pmf(4.0)
        light = busy_period_pmf(service, 0.02, horizon=2000.0)
        heavy = busy_period_pmf(service, 0.15, horizon=2000.0)
        assert heavy.mean() / heavy.p.sum() > light.mean() / light.p.sum()


class TestDelayBusyPeriod:
    def test_delta_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delay_busy_period_pmf(
                deterministic_pmf(2.0, delta=0.5),
                deterministic_pmf(4.0, delta=1.0),
                0.1,
                horizon=50.0,
            )

    def test_zero_initial_delay_is_instant(self):
        from repro.queueing import LatticePMF

        initial = LatticePMF([1.0])  # all mass at zero
        out = delay_busy_period_pmf(initial, deterministic_pmf(4.0), 0.1, horizon=50.0)
        assert out.p[0] == pytest.approx(1.0)

    def test_no_arrivals_reduces_to_initial_delay(self):
        initial = deterministic_pmf(7.0)
        out = delay_busy_period_pmf(initial, deterministic_pmf(4.0), 0.0, horizon=50.0)
        assert out.p[7] == pytest.approx(1.0)

    def test_mean_matches_delay_cycle_formula(self):
        """E[delay busy period] = E[R] / (1 − ρ)."""
        service = deterministic_pmf(4.0)
        lam = 0.1
        initial = geometric_pmf(3.0, start=1.0)
        out = delay_busy_period_pmf(initial, service, lam, horizon=4000.0)
        mass = out.p.sum()
        assert mass > 0.995
        assert out.mean() / mass == pytest.approx(3.0 / (1 - 0.4), rel=0.06)
