"""Exact-arithmetic toolkit for finite ultrametric spaces and the metrics
generated by labeled star graphs.

The library decides, with constructive witnesses, whether a finite
ultrametric space given as an exact-rational distance matrix is generated by
a labeled star graph, and more generally whether it embeds isometrically into
such a space.  It also classifies four-point subspaces through their
diametrical graphs, decides weak similarity, and runs desk-scale searches
over related conjectures.
"""

from .decision import (
    CenterWitness,
    DiagnosisReport,
    ForbiddenWitness,
    Verdict,
    diagnose,
    dplus_space,
    embeds_in_dplus,
    find_center,
    forbidden_scan,
    shift,
    unshift,
)
from .diametrical import (
    FourPointClass,
    MultipartiteSignature,
    SimpleGraph,
    classify_four_point,
    diametrical_graph,
    graph_to_dot,
    multipartite_signature,
)
from .errors import (
    CenterViolationError,
    DegenerateLabelingError,
    InternalCheckError,
    InvalidSpaceError,
    NotCompleteMultipartiteError,
    NotUltrametricError,
    SizeCapError,
    StarmetricError,
)
from .lab import (
    CONJECTURE_IDS,
    ConjectureReport,
    GeneratorSpec,
    check_equidistant,
    check_k112_conjecture,
    check_k13_conjecture,
    enumerate_ultrametrics,
    run_campaign,
    sample_dendrogram,
)
from .models import E4, MODELS, S4, W4, X4, Y4, Z4, equidistant
from .rationals import format_rational, parse_rational
from .similarity import (
    QuadModel,
    WeakSimilarityWitness,
    are_isometric,
    classify_forbidden,
    model_match,
    weakly_similar,
)
from .spaces import (
    FiniteMetricSpace,
    Spectrum,
    UltraDiagnosis,
    Violation,
    adjoin_near,
    min_pair,
    min_positive_distance,
    rank_matrix,
    restrict,
    spectrum,
    swap_isometry,
    validate,
)
from .stars import (
    LabeledStarGraph,
    LabeledTree,
    degenerate_edge,
    star_center,
    star_from_center,
    star_metric,
    star_to_dot,
    tree_metric,
    tree_to_dot,
)

__version__ = "1.0.0"
