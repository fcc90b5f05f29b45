"""Grammar-constrained geodesic metrics over triple-based semantic networks."""

from .engine import (
    DEFAULT_MAX_STEPS,
    PathRecord,
    PathStep,
    RunMode,
    RunTrace,
    Transition,
    Walker,
    expand,
    legal_edges,
    run,
)
from .errors import (
    GeogramsError,
    GrammarLoadError,
    GrammarRuntimeError,
    IncompleteStoreError,
    ParseError,
    TruncationError,
    UnresolvableEntryError,
    ValidationError,
)
from .grammar import (
    Attribute,
    ContextKind,
    Direction,
    EdgeSpec,
    Grammar,
    GrammarContext,
    Is,
    Not,
    NotEver,
    PathCount,
    Traverse,
    Violation,
    load_grammar_from_triples,
    parse_grammar_dsl,
    rebind_endpoints,
    serialize_grammar_dsl,
    unconstrained_grammar,
    validate_grammar,
)
from .metrics import (
    Degree,
    MetricKind,
    MetricResult,
    betweenness,
    closeness,
    default_universe,
    degree,
    diameter,
    eccentricity,
    project_to_unlabeled,
    radius,
    shortest_path,
    unlabeled_oracle_geodesics,
)
from .encoding import (
    decode_paths,
    encode_paths,
    min_segments,
    ms_shortest_paths,
    p_encoded_metric,
    query_X,
    query_Y,
)
from .store import (
    Blank,
    Graph,
    Iri,
    Literal,
    Resource,
    SubsumptionMode,
    Triple,
    load_ntriples,
)

__version__ = "0.1.0"
