"""Rotary-embedding decay analysis and aligned position-ID assignment
for tiled vision-language token layouts."""

from . import decay, harness, idalign, layout, rope
from .decay import *  # noqa: F403
from .harness import *  # noqa: F403
from .idalign import *  # noqa: F403
from .layout import *  # noqa: F403
from .rope import *  # noqa: F403

__version__ = "0.1.0"

# Each module's ``__all__`` is its public API; the package re-exports them.
__all__ = [*rope.__all__, *decay.__all__, *layout.__all__, *idalign.__all__, *harness.__all__]
