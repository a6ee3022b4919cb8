"""Desk-scale toolkit for paired-hypotheses domain discrepancy analysis."""

__version__ = "0.1.0"

# Names live in their modules (``from phdkit.discrepancy import phd``). The
# package still imports its library modules, so ``phdkit.<module>.<name>``
# works after ``import phdkit``; ``cli`` and ``protocols`` load on demand, and
# so does scipy, on the first W1 matching (``discrepancy.w1_exact``).
from . import adapt, bounds, data, discrepancy, errors, models, numkit, semisup, tritrain  # noqa: F401
