"""Importance-propagated pruning of small feed-forward networks.

The pieces, in dependency order: ``model`` (layer/network structures and
their JSON form), ``engine`` (forward evaluation), ``ranking`` (affinity
scores for the final responses), ``propagation`` (carrying importance down
the network and choosing keep masks), ``surgery`` (actually removing
neurons, plus the baseline planners), ``analysis`` (error metrics, bounds,
cost counting), ``trainer`` (small dense SGD for the fine-tuning
experiments), and ``cli``.
"""

from .errors import (
    ConfigError,
    DataError,
    ModelFormatError,
    NispruneError,
    ShapeError,
)
from .model import (
    Geometry,
    Layer,
    Network,
    load_model,
    read_model,
    save_model,
    validate,
    write_model,
)
from .datasets import Dataset, load_dataset, save_dataset
from .engine import accuracy, forward, top1_agreement
from .ranking import AffinityGraph, build_affinity, inffs_scores, magnitude_scores
from .propagation import (
    ImportancePlan,
    PlanEntry,
    PruneConfig,
    effective_masks,
    nisp_backward,
    plan_from_json,
    plan_to_json,
)
from .surgery import (
    SurgeryReport,
    apply_plan,
    lbl_plan,
    magnitude_plan,
    nisp_plan,
    random_plan,
)
from .analysis import (
    BoundContext,
    BoundReport,
    CostReport,
    PcaEnergy,
    count_cost,
    pca_energy,
    verify_bound,
    ware,
)
from .trainer import (
    SynthSpec,
    TrainConfig,
    finetune,
    make_mlp,
    reinit,
    synth_dataset,
    train,
)

__version__ = "0.1.0"
