"""Exact-arithmetic toolkit for finite ultrametric spaces and the metrics
generated by labeled star graphs.

The library decides, with constructive witnesses, whether a finite
ultrametric space given as an exact-rational distance matrix is generated by
a labeled star graph, and more generally whether it embeds isometrically into
such a space.  It also classifies four-point subspaces through their
diametrical graphs, decides weak similarity, and runs desk-scale searches
over related conjectures.

The package namespace is lazy (PEP 562): ``import starmetric`` loads no
submodule, and each exported name, or submodule, is imported on first use
and then bound here.  A command-line run so loads only the modules its
command uses.
"""

import importlib

__version__ = "1.0.0"

# each exported name, under the submodule that defines it; the submodules
# themselves are exported too
_EXPORTS = {
    "decision": (
        "CenterWitness", "DiagnosisReport", "ForbiddenWitness", "Verdict", "diagnose",
        "dplus_space", "embeds_in_dplus", "find_center", "forbidden_scan", "shift", "unshift",
    ),
    "diametrical": (
        "FourPointClass", "MultipartiteSignature", "SimpleGraph", "classify_four_point",
        "diametrical_graph", "graph_to_dot", "multipartite_signature",
    ),
    "errors": (
        "CenterViolationError", "DegenerateLabelingError", "InternalCheckError",
        "InvalidSpaceError", "NotCompleteMultipartiteError", "NotUltrametricError",
        "SizeCapError", "StarmetricError",
    ),
    "lab": (
        "ConjectureReport", "GeneratorSpec", "check_equidistant", "check_k112_conjecture",
        "check_k13_conjecture", "enumerate_ultrametrics", "run_campaign", "sample_dendrogram",
    ),
    "models": ("CONJECTURE_IDS", "E4", "MODELS", "S4", "W4", "X4", "Y4", "Z4", "equidistant"),
    "rationals": ("format_rational", "parse_rational"),
    "similarity": (
        "QuadModel", "WeakSimilarityWitness", "are_isometric", "classify_forbidden",
        "model_match", "weakly_similar",
    ),
    "spaces": (
        "FiniteMetricSpace", "Spectrum", "UltraDiagnosis", "Violation", "adjoin_near",
        "min_pair", "min_positive_distance", "rank_matrix", "restrict", "spectrum",
        "swap_isometry", "validate",
    ),
    "stars": (
        "LabeledStarGraph", "LabeledTree", "degenerate_edge", "star_center",
        "star_from_center", "star_metric", "star_to_dot", "tree_metric", "tree_to_dot",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
