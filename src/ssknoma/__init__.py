"""SSK-NOMA downlink link-level simulator and closed-form analysis library."""

__version__ = "0.1.0"

from .constellation import UserConstellation, enumerate_sc_alphabet, make_constellation  # noqa: F401
from .montecarlo import SimConfig, make_config, run_sweep  # noqa: F401
