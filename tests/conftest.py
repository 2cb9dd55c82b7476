import math

import pytest

from wpaoi import SystemParams

# Channel gain rate of the reference scenario: 1e3 * 20**2.2, frozen from a
# high-precision evaluation so tests do not depend on the platform's pow.
REF_LAMBDA = 728225.68121043211


def truncation_k_max(beta: float) -> int:
    """Support cutoff beyond which the recharge PMF tail is below 1e-12.

    Returns ceil(beta + 50*sqrt(beta) + 50). Fifty standard deviations past
    the mean leaves a tail many orders below the 1e-12 normalization budget.
    """
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return int(math.ceil(beta + 50.0 * math.sqrt(beta) + 50.0))


@pytest.fixture
def ref_point():
    """Factory for the reference operating point with selective overrides."""

    def make(
        power_w=3.0,
        capacitor_j=3e-4,
        rate_bpcu=0.05,
        efficiency=0.5,
        noise_w=1e-8,
        channel_rate=REF_LAMBDA,
    ):
        return SystemParams(
            power_w=power_w,
            efficiency=efficiency,
            noise_w=noise_w,
            rate_bpcu=rate_bpcu,
            capacitor_j=capacitor_j,
            channel_rate=channel_rate,
        )

    return make


@pytest.fixture
def toy_point():
    """Degenerate point with beta = 1 and a vanishing decode threshold."""
    return SystemParams(
        power_w=1.0,
        efficiency=1.0,
        noise_w=1.0,
        rate_bpcu=0.0,
        capacitor_j=1.0,
        channel_rate=1.0,
    )
