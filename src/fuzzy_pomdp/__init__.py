"""POMDP parameter estimation with fuzzy-rule-derived pseudo-count priors.

Learns action-conditioned transition tensors and Gaussian observation
models from short trajectory datasets, either by standard EM or by an EM
variant whose M-step blends in pseudo-counts synthesized from an expert
Takagi-Sugeno fuzzy model. Ships synthetic benchmark environments, quality
metrics against ground truth, and a reproducible experiment harness.

The names below are the surface the README documents; everything else is
reached through its module (fuzzy_pomdp.em, fuzzy_pomdp.model, ...).
"""

from .em import EmConfig, forward_backward, run_em
from .fuzzy import load_fuzzy_model
from .fuzzy_map import FuzzyMapConfig, compute_from_matchant, match_antecedent, run_fuzzy_map_em
from .metrics import evaluate_model, kl_observation, l1_transition_total
from .model import load_dataset, load_env

__version__ = "0.1.0"
