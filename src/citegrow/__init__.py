"""citegrow: synthetic citation-network growth and trajectory evaluation.

The package grows citation networks under several attachment rules, sorts
each node's yearly citation history into one of five trajectory categories,
and scores how closely a simulated category mix matches a real corpus.
A small exact-enumeration module checks the attachment-dynamics formulas
on graphs tiny enough to enumerate outright.
"""

from .errors import CitegrowError, IngestError, SimulationError, ValidationError
from .graph import (
    GrowthGraph,
    SeedNetwork,
    YearSchedule,
    load_graph,
    loads_graph,
)
from .models import (
    ModelKind,
    ModelSpec,
    attachment_weights,
    make_model,
    parse_config_options,
    sample_fitness,
)
from .sampling import sample_without_replacement
from .simulate import init_from_seed, run_simulation
from .trajectory import (
    CATEGORY_ORDER,
    CategoryDistribution,
    ClassifierParams,
    TrajectoryCategory,
    category_distribution,
    classify_graph,
    write_classification_csv,
)
from .evaluation import (
    EvalReport,
    SensitivityResult,
    SweepPoint,
    SweepResult,
    derive_seed,
    evaluate_model,
    jsd2,
    model_grid,
    sensitivity,
    sweep,
)
from .theory import (
    TheoremReport,
    TheoryGraph,
    exact_expected_change,
    random_theory_graph,
    selection_probabilities,
    theorem_formula,
    verify_theorem,
)
from .ingest import (
    IngestConfig,
    IngestResult,
    build_seed_and_schedule,
    parse_citations,
    parse_papers,
)
from .references import (
    APS_CATEGORY_PERCENT,
    MAS_CATEGORY_PERCENT,
    aps_reference,
    mas_reference,
)
from .synthetic import corpus_like_schedule, synthetic_seed

__version__ = "0.1.0"

__all__ = [
    "APS_CATEGORY_PERCENT",
    "CATEGORY_ORDER",
    "CategoryDistribution",
    "CitegrowError",
    "ClassifierParams",
    "EvalReport",
    "GrowthGraph",
    "IngestConfig",
    "IngestError",
    "IngestResult",
    "MAS_CATEGORY_PERCENT",
    "ModelKind",
    "ModelSpec",
    "SeedNetwork",
    "SensitivityResult",
    "SimulationError",
    "SweepPoint",
    "SweepResult",
    "TheoremReport",
    "TheoryGraph",
    "TrajectoryCategory",
    "ValidationError",
    "YearSchedule",
    "aps_reference",
    "attachment_weights",
    "build_seed_and_schedule",
    "category_distribution",
    "classify_graph",
    "corpus_like_schedule",
    "derive_seed",
    "evaluate_model",
    "exact_expected_change",
    "init_from_seed",
    "jsd2",
    "load_graph",
    "loads_graph",
    "make_model",
    "mas_reference",
    "model_grid",
    "parse_citations",
    "parse_config_options",
    "parse_papers",
    "random_theory_graph",
    "run_simulation",
    "sample_fitness",
    "sample_without_replacement",
    "selection_probabilities",
    "sensitivity",
    "sweep",
    "synthetic_seed",
    "theorem_formula",
    "verify_theorem",
    "write_classification_csv",
]
