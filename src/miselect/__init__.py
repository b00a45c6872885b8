"""miselect: mutual-information sample scoring and data curation.

Attribute a local mutual-information score to every labeled sample with a
k-nearest-neighbor estimator, rank samples by it to filter noisy or
mislabeled data, and validate the filtering by training a classifier on
the curated subsets.
"""

__version__ = "0.1.0"

from .corruption import (
    MILD_AFFINE,
    STRONG_AFFINE,
    AffineParams,
    add_gaussian,
    affine_warp,
    apply_corruption,
    flip_labels,
)
from .data import (
    LabeledDataset,
    generate_pattern_images,
    generate_synthetic,
    load_idx,
    train_test_split,
)
from .embedding import PcaModel, fit_pca, transform
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateInputError,
    DivergenceError,
    DomainError,
    FormatError,
    IoError,
    MiselectError,
    StageError,
)
from .experiment import run_experiment, stage_seed, validate_config
from .ksg import (
    MIScoreSet,
    dataset_content_hash,
    digamma,
    load_scores,
    per_class_summary,
    save_scores,
    score_continuous,
    score_dataset,
    score_discrete,
    score_onehot,
)
from .logreg import LogRegModel, evaluate, predict_proba, train
from .neighbors import NeighborIndex
from .selection import SelectionPlan, SelectionResult, save_selection, select
