"""Contrastive connectivity graph learning with population-graph classification."""

from .autodiff import ParamStore, adam_step, forward_backward, grad_check
from .cohort import Cohort, PatientRecord, RoiTimeSeries, SynthSpec, load_cohort, slice_views, split_cohort, synth_cohort
from .config import RunConfig, default_config, load_config
from .connectivity import EdgePolicy, ViewGraph, build_fc_graph, partial_corr_matrix, pearson_matrix
from .encoder import (
    AttractionMatrix,
    chebyshev_conv,
    contrastive_loss,
    similarity_matrix,
    train_cgl,
)
from .metrics import attraction_stats, auc, confusion_metrics, export_population_graph, knn_baseline
from .population import (
    PopulationGraph,
    dgc_forward,
    focal_loss,
    knn_edges,
    patient_embedding,
    train_dgc,
)
from .spectral import ScaledLaplacian, largest_eigenvalue, normalized_laplacian

__version__ = "0.1.0"

__all__ = [
    "AttractionMatrix",
    "Cohort",
    "EdgePolicy",
    "ParamStore",
    "PatientRecord",
    "PopulationGraph",
    "RoiTimeSeries",
    "RunConfig",
    "ScaledLaplacian",
    "SynthSpec",
    "ViewGraph",
    "adam_step",
    "attraction_stats",
    "auc",
    "build_fc_graph",
    "chebyshev_conv",
    "confusion_metrics",
    "contrastive_loss",
    "default_config",
    "dgc_forward",
    "export_population_graph",
    "focal_loss",
    "forward_backward",
    "grad_check",
    "knn_baseline",
    "knn_edges",
    "largest_eigenvalue",
    "load_cohort",
    "load_config",
    "normalized_laplacian",
    "partial_corr_matrix",
    "patient_embedding",
    "pearson_matrix",
    "similarity_matrix",
    "slice_views",
    "split_cohort",
    "synth_cohort",
    "train_cgl",
    "train_dgc",
]
