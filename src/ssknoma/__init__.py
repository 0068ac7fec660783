"""SSK-NOMA downlink link-level simulator and closed-form analysis library."""

__version__ = "0.1.0"

from .channel import FadingProfile, default_profile  # noqa: F401
from .constellation import (  # noqa: F401
    PowerAllocation,
    UserConstellation,
    enumerate_sc_alphabet,
    make_constellation,
)
from .analytics import OutageTargets  # noqa: F401
from .montecarlo import SimConfig, make_config, run_sweep  # noqa: F401
