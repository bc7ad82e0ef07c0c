"""Golden regression: Figure-7 analytic fractions-late.

The pinned values in ``figure7_rho05_m25.json`` are this repo's own
deterministic outputs of eq. 4.7 (§4.1 iteration) and the two
uncontrolled M/G/1 tails over the default deadline grid at (ρ′=0.5,
M=25).  ``figure7_lcfs_m100.json`` pins the LCFS tail at M=100: the
benchmark grid at ρ′=0.75 (K ≤ 3M) and the full default grid at ρ′=0.5
(K ≤ 12M), both recorded from the busy-period fixed-point solver before
it was replaced by the hitting-time closed form.  Tolerance is tight
(1e-9 relative) because the computation is closed-form: anything beyond
accumulated float noise is a real numerical change and should be
reviewed, then re-pinned deliberately.
"""

import pytest

from repro.experiments import PanelConfig, generate_panel
from repro.experiments.figure7 import baseline_losses

from .checks import assert_matches_golden, load_golden

REL_TOL = 1e-9
ABS_TOL = 1e-12

GOLDEN = load_golden("figure7_rho05_m25.json")
LCFS_M100 = load_golden("figure7_lcfs_m100.json")


@pytest.fixture(scope="module")
def panel():
    return generate_panel(PanelConfig(rho_prime=0.5, message_length=25))


@pytest.mark.parametrize(
    "series_name", ["controlled_analytic", "fcfs_analytic", "lcfs_analytic"]
)
def test_fractions_late_match_golden(panel, series_name):
    pinned = GOLDEN["series"][series_name]
    series = panel.series[series_name]
    assert series.deadlines() == pinned["deadlines"]
    assert_matches_golden(
        [p.loss for p in series.points],
        pinned["fraction_late"],
        rel_tol=REL_TOL,
        abs_tol=ABS_TOL,
        label=series_name,
    )


@pytest.mark.parametrize(
    "pinned",
    LCFS_M100["panels"],
    ids=lambda p: f"rho{p['rho_prime']}-m{p['message_length']}",
)
def test_lcfs_m100_matches_golden(pinned):
    config = PanelConfig(
        rho_prime=pinned["rho_prime"],
        message_length=pinned["message_length"],
        scheduling=pinned["scheduling"],
    )
    _, lcfs = baseline_losses(config, pinned["deadlines"])
    assert_matches_golden(
        lcfs,
        pinned["fraction_late"],
        rel_tol=REL_TOL,
        abs_tol=ABS_TOL,
        label=f"lcfs_analytic(rho={config.rho_prime}, m={config.message_length})",
    )


def test_controlled_curve_is_monotone_in_deadline(panel):
    losses = [p.loss for p in panel.series["controlled_analytic"].points]
    assert losses == sorted(losses, reverse=True)
    assert all(0.0 <= loss <= 1.0 for loss in losses)


def test_comparison_rejects_perturbed_values():
    """The golden check must fail on a deliberate perturbation."""
    pinned = GOLDEN["series"]["controlled_analytic"]["fraction_late"]
    perturbed = list(pinned)
    perturbed[0] *= 1 + 1e-6  # far beyond the 1e-9 relative tolerance
    with pytest.raises(AssertionError, match="controlled_analytic\\[0\\]"):
        assert_matches_golden(
            perturbed,
            pinned,
            rel_tol=REL_TOL,
            abs_tol=ABS_TOL,
            label="controlled_analytic",
        )


def test_comparison_rejects_length_drift():
    pinned = GOLDEN["series"]["fcfs_analytic"]["fraction_late"]
    with pytest.raises(AssertionError, match="length"):
        assert_matches_golden(
            pinned[:-1],
            pinned,
            rel_tol=REL_TOL,
            abs_tol=ABS_TOL,
            label="fcfs_analytic",
        )
