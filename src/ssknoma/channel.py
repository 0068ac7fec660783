"""Rayleigh fading profiles, keyed random streams, complex Gaussian draws
and the integer-shape Gamma draws of MRC channel energies.

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


# Largest shape drawn as a product of uniforms. Both the (k, n) batch of
# uniforms and its cost grow with k: on a 2-core Xeon with numpy 2.4 the
# product cost about 2.4 ns a draw per factor and numpy's Marsaglia-Tsang
# sampler about 17 ns at any shape >= 2, so the product's lead is gone by 6
# or 7 factors.
_MAX_PRODUCT_SHAPE = 4


def erlang(rng: np.random.Generator, k: int, shape) -> np.ndarray:
    """Erlang draws, Gamma(k, 1) of an integer shape k >= 1, an array of
    ``shape``.

    For k <= 4 each draw is -ln((1 - U_1) ... (1 - U_k)), exactly Gamma(k)
    (Devroye, Non-Uniform Random Variate Generation, 1986, §IX.3): the U_j
    are one (k, *shape) batch of ``rng.random``, so a call uses exactly
    k * size uniforms and 1 - U_j, in (0, 1], is exact. Larger shapes take
    numpy's ``standard_gamma``, draw for draw."""
    if k > _MAX_PRODUCT_SHAPE:
        return rng.standard_gamma(k, shape)
    u = rng.random((k, *(shape if np.iterable(shape) else (shape,))))
    np.subtract(1.0, u, out=u)
    for row in u[1:]:
        u[0] *= row
    x = np.log(u[0])
    return np.negative(x, out=x)


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
