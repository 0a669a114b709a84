"""Shared builders for the test suite.

Everything here is deliberately small and deterministic: tests pass an
explicit seed and get the same toy model, dataset, or rule base every run.
"""
import numpy as np
import pytest
from hypothesis import settings

from fuzzy_pomdp.model import PomdpModel, Trajectory
from fuzzy_pomdp.fuzzy import (
    FuzzyClause,
    FuzzyModel,
    FuzzyRule,
    FuzzyVariable,
    MembershipFunction,
)

# every property test runs under this profile: derandomized so each run
# checks the same examples (and the Monte-Carlo comparisons see the same
# draws), no example database written, no deadline, 100 examples
settings.register_profile(
    "fuzzy_pomdp", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("fuzzy_pomdp")

# found by a random search: numpy.linalg.eigvalsh puts its smallest
# eigenvalue at 0.0078, but its Cholesky factorization fails
ILL_CONDITIONED = [[268638987563050.4, 132316247527812.94],
                   [132316247527812.94, 65171438884061.39]]


def random_model(rng, num_states=2, num_actions=2, obs_dim=2,
                 mean_scale=1.0, cov_scale=0.5) -> PomdpModel:
    """Random valid model: Dirichlet rows, SPD covariances."""
    trans = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    means = rng.normal(scale=mean_scale, size=(num_states, obs_dim))
    covs = np.zeros((num_states, obs_dim, obs_dim))
    for s in range(num_states):
        a = rng.normal(size=(obs_dim, obs_dim)) * cov_scale
        covs[s] = a @ a.T + 0.1 * np.eye(obs_dim)
    init = rng.dirichlet(np.ones(num_states))
    return PomdpModel(num_states, num_actions, obs_dim,
                      transitions=trans, obs_means=means, obs_covs=covs,
                      initial_dist=init)


def random_dataset(rng, model: PomdpModel, n=3, horizon=4) -> list:
    """Trajectories with iid noise observations; only shapes matter here."""
    out = []
    for _ in range(n):
        obs = rng.normal(size=(horizon, model.obs_dim))
        acts = rng.integers(model.num_actions, size=horizon - 1)
        out.append(Trajectory(observations=obs, actions=acts))
    return out


def relabel_states(model: PomdpModel, new_index) -> PomdpModel:
    """Permute the model's states; new_index[old] gives each state's new slot."""
    new_index = np.asarray(new_index, dtype=int)
    s = model.num_states
    if sorted(new_index.tolist()) != list(range(s)):
        raise ValueError(f"new_index must be a permutation of 0..{s - 1}")
    old_of_new = np.empty(s, dtype=int)
    old_of_new[new_index] = np.arange(s)
    labels = tuple(model.state_labels[i] for i in old_of_new)
    return PomdpModel(
        num_states=s,
        num_actions=model.num_actions,
        obs_dim=model.obs_dim,
        transitions=model.transitions[old_of_new][:, :, old_of_new],
        obs_means=model.obs_means[old_of_new],
        obs_covs=model.obs_covs[old_of_new],
        initial_dist=model.initial_dist[old_of_new],
        state_labels=labels,
    )


def gauss_mf(center: float, sigma: float) -> MembershipFunction:
    return MembershipFunction("gaussian", (center, sigma))


def gauss_clause(dim: int, center: float, sigma: float) -> FuzzyClause:
    return FuzzyClause(dim=dim, term=gauss_mf(center, sigma), term_label=f"c{center:g}")


def constant_rule(target, obs_dim: int, action=None,
                  clauses=()) -> FuzzyRule:
    """Rule whose consequent ignores the input and outputs `target`."""
    cons = [[float(target[j])] + [0.0] * obs_dim for j in range(obs_dim)]
    return FuzzyRule(clauses=tuple(clauses), consequent=cons, action=action)


def identity_rule(obs_dim: int, action=None, clauses=()) -> FuzzyRule:
    cons = []
    for j in range(obs_dim):
        row = [0.0] * (obs_dim + 1)
        row[1 + j] = 1.0
        cons.append(row)
    return FuzzyRule(clauses=tuple(clauses), consequent=cons, action=action)


def affine_rule(bias, matrix, action=None, clauses=()) -> FuzzyRule:
    bias = np.asarray(bias, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    cons = [[float(bias[j])] + [float(v) for v in matrix[j]]
            for j in range(len(bias))]
    return FuzzyRule(clauses=tuple(clauses), consequent=cons, action=action)


def make_fuzzy(rules, obs_dim: int, num_actions=2, tnorm="product") -> FuzzyModel:
    # a model names every clause term, by its label, in its variable's term table
    terms: dict[int, dict] = {d: {} for d in range(obs_dim)}
    for rule in rules:
        for cl in rule.clauses:
            terms[cl.dim][cl.term_label] = cl.term
    variables = tuple(FuzzyVariable(name=f"x{d}", terms=terms[d])
                      for d in range(obs_dim))
    return FuzzyModel(obs_dim=obs_dim, num_actions=num_actions,
                      rules=tuple(rules), tnorm=tnorm, variables=variables)


def random_fuzzy(rng, obs_dim=2, num_actions=2, num_rules=3,
                 tnorm="product") -> FuzzyModel:
    """Random gaussian-antecedent affine-consequent rule base."""
    rules = []
    for _ in range(num_rules):
        n_clauses = int(rng.integers(0, obs_dim + 1))
        dims = rng.choice(obs_dim, size=n_clauses, replace=False)
        clauses = [gauss_clause(int(d), float(rng.normal()),
                                float(rng.uniform(0.2, 1.0))) for d in dims]
        bias = rng.normal(scale=0.5, size=obs_dim)
        mat = rng.normal(scale=0.3, size=(obs_dim, obs_dim))
        action = None if rng.random() < 0.5 else int(rng.integers(num_actions))
        rules.append(affine_rule(bias, mat, action=action, clauses=clauses))
    return make_fuzzy(rules, obs_dim, num_actions, tnorm)


@pytest.fixture
def rng0():
    return np.random.default_rng(0)
