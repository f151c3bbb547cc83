"""Mutual-influence analysis of cognitive maps (weighted signed digraphs).

The core result is the accumulated influence matrix: every ordered vertex
pair is scored by walking all simple paths between it with a damped,
scale-free accumulation, which stays finite on any map, unstable ones
included (unlike the impulse baseline), unless its weights come near the
float maximum, and scales proportionally when all weights are scaled.  Impulse
simulation with spectral stability verdicts and the weakest-link baseline
are included for comparison, along with file I/O, bundled example maps and
a command-line interface.
"""

from .errors import (
    CogmapError,
    EigenConvergenceError,
    ImpulseDivergenceError,
    MethodNotApplicableError,
    NonFiniteInfluenceError,
    PathBudgetError,
    ValidationError,
)
from .maps import (
    CognitiveMap,
    complete_map,
    dumps_map,
    load_map,
    max_abs_weight,
    reachability_closure,
    save_map,
    scale_map,
)
from .paths import (
    DEFAULT_MAX_PATHS,
    PathSet,
    count_paths_complete,
    enumerate_simple_paths,
    enumerate_with_budget,
)
from .influence import (
    InfluenceReport,
    PathInfluence,
    accumulate_full,
    accumulate_truncated,
    damping,
    general_influence,
    influence_matrix,
    pair_influence,
    path_influence,
    rank_by_score,
    two_edge_sign,
)
from .eigen import eigenvalues
from .impulse import (
    ImpulseReport,
    ImpulseTrace,
    StabilityVerdict,
    characteristic_constants,
    default_max_steps,
    impulse_general_influence,
    simulate,
    stability_check,
)
from .kosko import KoskoInfluence, path_indirect_influence, total_influence
from .fixtures import FIXTURE_NAMES, fixture_path, golden, load_fixture

__version__ = "0.1.0"

__all__ = [
    "CogmapError",
    "EigenConvergenceError",
    "ImpulseDivergenceError",
    "MethodNotApplicableError",
    "NonFiniteInfluenceError",
    "PathBudgetError",
    "ValidationError",
    "CognitiveMap",
    "complete_map",
    "dumps_map",
    "load_map",
    "max_abs_weight",
    "reachability_closure",
    "save_map",
    "scale_map",
    "DEFAULT_MAX_PATHS",
    "PathSet",
    "count_paths_complete",
    "enumerate_simple_paths",
    "enumerate_with_budget",
    "InfluenceReport",
    "PathInfluence",
    "accumulate_full",
    "accumulate_truncated",
    "damping",
    "general_influence",
    "influence_matrix",
    "pair_influence",
    "path_influence",
    "rank_by_score",
    "two_edge_sign",
    "eigenvalues",
    "ImpulseReport",
    "ImpulseTrace",
    "StabilityVerdict",
    "characteristic_constants",
    "default_max_steps",
    "impulse_general_influence",
    "simulate",
    "stability_check",
    "KoskoInfluence",
    "path_indirect_influence",
    "total_influence",
    "FIXTURE_NAMES",
    "fixture_path",
    "golden",
    "load_fixture",
    "__version__",
]
