"""Granule-level classifier evaluation on decision tables via confusion matrices.

The package builds attribute-induced partitions from decision tables,
computes lower and upper approximations with their quality indices (all
exact rationals), constructs confusion matrices for granule-level
classifiers, and derives per-class bounds on approximation sizes that can
be read off a confusion matrix alone. An oracle module provides
brute-force verifiers and a seeded instance generator for the property and
fuzz suites, and the `roughcm` command ingests CSV decision tables and
emits deterministic JSON or text reports.
"""

# Each module's __all__ lists its public names; the package re-exports them.
from . import classifiers, core, errors, indices, matrices, oracle, report
from .classifiers import *
from .core import *
from .errors import *
from .indices import *
from .matrices import *
from .oracle import *
from .report import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *matrices.__all__,
    *classifiers.__all__,
    *indices.__all__,
    *oracle.__all__,
    *report.__all__,
    *errors.__all__,
]
