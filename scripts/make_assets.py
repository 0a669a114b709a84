"""Regenerate the packaged JSON assets.

Writes the synthetic three-state disease environment, the hand-curated
expert fuzzy model for it, and the two-state neuromuscular-disease
placeholder fuzzy model into src/fuzzy_pomdp/assets/. All values are
literal constants; rerunning is byte-stable.
"""

from pathlib import Path

import numpy as np

from fuzzy_pomdp.fuzzy import (
    FuzzyClause,
    FuzzyModel,
    FuzzyRule,
    FuzzyVariable,
    MembershipFunction,
    save_fuzzy_model,
)
from fuzzy_pomdp.model import GroundTruthEnv, save_env

ASSETS = Path(__file__).resolve().parent.parent / "src" / "fuzzy_pomdp" / "assets"

# Three-state disease progression: actions are Wait (0) and Treat (1).
# Observations are two bounded clinical indicators; sicker states emit
# higher values (Beta emitters shift right with severity).
SYNTH_TRANSITIONS = [
    # Healthy
    [[0.85, 0.14, 0.01], [0.80, 0.15, 0.05]],
    # Sick
    [[0.30, 0.60, 0.10], [0.65, 0.35, 0.00]],
    # Critical
    [[0.05, 0.01, 0.94], [0.10, 0.65, 0.25]],
]
SYNTH_BETAS = [
    [(2.0, 8.0), (2.0, 8.0)],
    [(5.0, 5.0), (5.0, 5.0)],
    [(8.0, 2.0), (8.0, 2.0)],
]
SYNTH_LABELS = ("Healthy", "Sick", "Critical")


def make_synthetic_env() -> GroundTruthEnv:
    return GroundTruthEnv(
        transitions=SYNTH_TRANSITIONS,
        beta_params=SYNTH_BETAS,
        state_labels=SYNTH_LABELS,
    )


def _constant_consequent(value: float, obs_dim: int) -> list[list[float]]:
    # same constant prediction on every output dimension, no input slopes
    return [[value] + [0.0] * obs_dim for _ in range(obs_dim)]


def make_expert_fuzzy() -> FuzzyModel:
    """Hand-curated rule base for the synthetic disease environment.

    Six dynamics rules, one per (severity band, action): memberships sit at
    the emitters' means, widths slightly broader than their standard
    deviations so neighbouring bands keep sharing evidence; each consequent
    is the expected next indicator level for that band and action.

    Six action-free anchor rules restate where each band itself sits, as a
    pair of statements per band at the band edges (center +/- 0.1). They
    carry no dynamics; they exist so that sparse data cannot drag the
    per-band indicator levels away from the clinically agreed ranges, and
    the paired spread keeps the implied per-band variance honest instead of
    concentrating all prior mass on one point.
    """
    terms = {
        "low": MembershipFunction("gaussian", (0.2, 0.15)),
        "medium": MembershipFunction("gaussian", (0.5, 0.18)),
        "high": MembershipFunction("gaussian", (0.8, 0.15)),
    }
    variables = (
        FuzzyVariable(name="indicator_1", terms=dict(terms)),
        FuzzyVariable(name="indicator_2", terms=dict(terms)),
    )

    def band_clauses(band: str):
        return tuple(FuzzyClause(dim=j, term=terms[band], term_label=band) for j in range(2))

    # expected next indicator level per (band, action)
    next_level = {
        ("low", 0): 0.248,
        ("medium", 0): 0.44,
        ("high", 0): 0.767,
        ("low", 1): 0.275,
        ("medium", 1): 0.305,
        ("high", 1): 0.545,
    }
    rules = []
    for (band, action), level in next_level.items():
        rules.append(
            FuzzyRule(
                clauses=band_clauses(band),
                consequent=_constant_consequent(level, 2),
                action=action,
            )
        )
    for band, center in (("low", 0.2), ("medium", 0.5), ("high", 0.8)):
        for offset in (-0.1, 0.1):
            rules.append(
                FuzzyRule(
                    clauses=band_clauses(band),
                    consequent=_constant_consequent(center + offset, 2),
                    action=None,
                )
            )
    return FuzzyModel(
        obs_dim=2, num_actions=2, rules=tuple(rules), tnorm="product", variables=variables
    )


MILD_PROFILE = (0.25, 0.30, 0.15)
SEVERE_PROFILE = (0.65, 0.70, 0.55)
COHORT_PROFILE = (0.45, 0.50, 0.35)


def _attractor_consequent(pulls, targets, obs_dim: int) -> list[list[float]]:
    # next_j = (1 - pulls[j]) * obs_j + pulls[j] * targets[j]; pulls[j] = 0 keeps dim j
    rows = []
    for j in range(obs_dim):
        row = [pulls[j] * targets[j]] + [0.0] * obs_dim
        row[1 + j] = 1.0 - pulls[j]
        rows.append(row)
    return rows


def make_mg_placeholder() -> FuzzyModel:
    """Two-regime neuromuscular-disease stand-in over three symptom scores.

    Severity bands on the muscle-weakness score anchor characteristic
    fatigability and bulbar profiles, while the weakness score itself
    regresses toward the cohort mean for every patient. The published
    clinical rule base is unavailable, so this model only mirrors its
    shape (two regimes, bounded symptom variables, rules replicated
    across both actions).
    """
    low = MembershipFunction("gaussian", (0.25, 0.12))
    high = MembershipFunction("gaussian", (0.65, 0.12))
    wide = MembershipFunction("gaussian", (0.45, 0.60))
    terms = {"low": low, "high": high, "any": wide}
    variables = (
        FuzzyVariable(name="muscle_weakness", terms=terms),
        FuzzyVariable(name="fatigability", terms={}),
        FuzzyVariable(name="bulbar_involvement", terms={}),
    )

    def mw_clause(label):
        return (FuzzyClause(dim=0, term=terms[label], term_label=label),)

    # band rules hold the profile dims and leave the weakness score alone;
    # the cohort rule does the opposite
    band_pulls = (0.0, 0.2, 0.2)
    cohort_pulls = (0.2, 0.0, 0.0)
    rules = tuple(
        FuzzyRule(mw_clause(label), _attractor_consequent(pulls, profile, 3), action=a)
        for a in (0, 1)
        for label, pulls, profile in (
            ("low", band_pulls, MILD_PROFILE),
            ("high", band_pulls, SEVERE_PROFILE),
            ("any", cohort_pulls, COHORT_PROFILE),
        )
    )
    return FuzzyModel(
        obs_dim=3, num_actions=2, rules=rules, tnorm="product", variables=variables
    )


def main():
    save_env(make_synthetic_env(), ASSETS / "synthetic_env.json")
    save_fuzzy_model(make_expert_fuzzy(), ASSETS / "expert_fuzzy_synthetic.json")
    save_fuzzy_model(make_mg_placeholder(), ASSETS / "mg_fuzzy_placeholder.json")
    for name in ("synthetic_env.json", "expert_fuzzy_synthetic.json", "mg_fuzzy_placeholder.json"):
        print(f"wrote {ASSETS / name}")


if __name__ == "__main__":
    main()
