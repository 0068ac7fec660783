"""Rayleigh fading profiles, keyed random streams and complex Gaussian
draws.

Normalization: the noise power is fixed to N_0 = 1 so the transmit power
equals the linear SNR (P = rho) and the MRC output SNR is exactly
rho * ||h||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_tuple


def rng_stream(seed: int, *keys: int) -> np.random.Generator:
    """SeedSequence-keyed SFC64 stream of (seed, keys...): identical draws
    for the same key regardless of how many other streams exist. The trial
    engine keys each block by (seed, metric, block index). SeedSequence pads
    a short key with zeros, so keys are distinct streams only when they have
    one length and every value fits in 32 bits."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([int(seed), *map(int, keys)])))


def complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, variance split evenly per axis.

    Real and imaginary parts come interleaved from one ``standard_normal``
    call, viewed as complex and scaled in place; a zero variance draws
    nothing and returns zeros."""
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    if variance == 0.0:
        return np.zeros(shape, dtype=complex)
    x = rng.standard_normal((*shape, 2)).view(complex)[..., 0]
    x *= np.sqrt(variance / 2.0)
    return x


@dataclass(frozen=True)
class FadingProfile:
    """Per-user large-scale fading powers, ascending with distance order."""

    variances: tuple

    def __post_init__(self):
        v = as_tuple("fading", self.variances, float)
        object.__setattr__(self, "variances", v)
        if not v or any(x < 0 for x in v):
            raise ConfigError("fading variances must be nonnegative")
        if any(a > b for a, b in zip(v, v[1:])):
            raise ConfigError("fading variances must be in ascending order")

    @property
    def n_users(self) -> int:
        return len(self.variances)


def default_profile(n_users: int, sigma1_sq: float = 1.0) -> FadingProfile:
    """Geometric profile sigma_i^2 = 2 * sigma_{i-1}^2 with sigma_1^2 = 0 dB."""
    return FadingProfile(tuple(sigma1_sq * 2.0**i for i in range(n_users)))
