"""Type-1 Takagi-Sugeno fuzzy model and inference.

A model is a set of IF-THEN rules over the observation components plus an
optional crisp action gate; consequents are affine functions of the
observation vector. Inference is the usual firing-strength-weighted average
of rule consequents, predicting the next observation.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .model import _count, _frozen_array, _non_finite, _read_json, _set, write_json

log = logging.getLogger(__name__)

TNORMS = ("product", "minimum")
SHAPE_ARITY = {"triangular": 3, "trapezoidal": 4, "gaussian": 2}


@dataclass(frozen=True)
class MembershipFunction:
    """One linguistic term: triangular(a,b,c), trapezoidal(a,b,c,d) or
    gaussian(center, sigma). Output is always within [0, 1]."""

    shape: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.shape not in SHAPE_ARITY:
            raise ValueError(f"unknown membership shape {self.shape!r}")
        params = tuple(float(p) for p in self.params)
        if len(params) != SHAPE_ARITY[self.shape]:
            raise ValueError(
                f"{self.shape} takes {SHAPE_ARITY[self.shape]} parameters, got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"{self.shape} parameters must be finite: {params}")
        if self.shape in ("triangular", "trapezoidal"):
            if any(b < a for a, b in zip(params, params[1:])):
                raise ValueError(f"{self.shape} breakpoints must be non-decreasing: {params}")
        elif params[1] <= 0:
            raise ValueError("gaussian sigma must be > 0")
        _set(self, "params", params)


def _ramp_up(x, lo, hi):
    # 0 at lo rising to 1 at hi; a vertical edge degenerates to a step.
    # Clipping before dividing keeps the quotient in [0, 1], so an edge of
    # subnormal width cannot overflow.
    if hi > lo:
        return np.clip(x - lo, 0.0, hi - lo) / (hi - lo)
    return np.where(x >= lo, 1.0, 0.0)


def _ramp_down(x, lo, hi):
    if hi > lo:
        return np.clip(hi - x, 0.0, hi - lo) / (hi - lo)
    return np.where(x <= hi, 1.0, 0.0)


def membership(mf: MembershipFunction, x):
    """Degree in [0, 1] to which x belongs to the term; vectorizes over x."""
    x = np.asarray(x, dtype=float)
    if mf.shape == "triangular":
        a, b, c = mf.params
        value = np.minimum(_ramp_up(x, a, b), _ramp_down(x, b, c))
    elif mf.shape == "trapezoidal":
        a, b, c, d = mf.params
        value = np.minimum(_ramp_up(x, a, b), _ramp_down(x, c, d))
    else:
        center, sigma = mf.params
        value = np.exp(-0.5 * ((x - center) / sigma) ** 2)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class FuzzyClause:
    """One antecedent condition: observation component `dim` is `term`, the
    term its variable's table lists under `term_label`."""

    dim: int
    term: MembershipFunction
    term_label: str


@dataclass(frozen=True)
class FuzzyRule:
    """IF clauses (AND action = selector) THEN next_obs = consequent @ [1, obs].

    consequent has one affine coefficient row per output dimension:
    row j is (c0, c1, ..., cd) meaning c0 + sum_k ck * obs_k. A None action
    leaves the rule active for every action.
    """

    clauses: tuple[FuzzyClause, ...]
    consequent: np.ndarray
    action: int | None = None

    def __post_init__(self):
        clauses = tuple(self.clauses)
        dims = [c.dim for c in clauses]
        if len(set(dims)) != len(dims):
            raise ValueError("at most one clause per input slot")
        cons = np.array(self.consequent, dtype=float)
        if cons.ndim != 2:
            raise ValueError("consequent must be a (obs_dim, obs_dim+1) coefficient array")
        if not np.isfinite(cons).all():
            raise ValueError(f"consequent entries must be finite: {cons.tolist()}")
        cons.flags.writeable = False
        _set(self, "clauses", clauses)
        _set(self, "consequent", cons)


@dataclass(frozen=True)
class FuzzyVariable:
    """Input variable metadata: display name, term dictionary, value range.

    terms is kept as a read-only mapping over a copy of the one given, so a
    model's clause labels stay checked against the terms it was built with.
    """

    name: str
    terms: Mapping[str, MembershipFunction] = field(default_factory=dict)
    range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        lo, hi = self.range
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError(f"variable {self.name!r} range must be finite with lo < hi")
        _set(self, "range", (float(lo), float(hi)))
        _set(self, "terms", MappingProxyType(dict(self.terms)))


@dataclass(frozen=True)
class GaussianGroup:
    """The distinct antecedents of the rules whose clauses are all Gaussian,
    on the same k dims in the same order.

    dims holds the clause dims. Rules that share their clauses' centers and
    widths share one antecedent: centers (U, k) has one row per distinct
    antecedent, in order of first appearance, and one column per clause dim;
    a rule's RuleTables.antecedent_columns entry is its row plus the group's
    first strength-table column. variance_diagonals (U, k, k) holds each
    row's squared widths as a diagonal matrix and variance_products (U,)
    their product. cov_cells (k, k) holds the index of each (dims[i],
    dims[j]) cell in a d*d row of flattened d x d covariances, so one take
    gathers the clause dims' covariance block of every state.
    """

    dims: np.ndarray
    centers: np.ndarray
    variance_diagonals: np.ndarray
    variance_products: np.ndarray
    cov_cells: np.ndarray


@dataclass(frozen=True)
class RuleTables:
    """A rule base in read-only array form, built once per FuzzyModel.

    gaussian_groups: the rules with a closed-form expected firing strength
    (all clauses Gaussian, product t-norm), grouped by clause-dim tuple,
    each group's distinct antecedents stored once.
    mc_rules: the other rules with a non-empty antecedent, matched by
    Monte Carlo. actions[r]: rule r's action selector, -1 when the rule is
    active for every action. consequents: the (R, d, d+1) stacked affine
    consequents; consequent_matrix: the same as one (d+1, R*d) matrix, so
    that inputs (S, d+1) @ consequent_matrix gives every rule's consequent
    under every input row.

    The strength table of a model has one column per distinct antecedent,
    group after group in order (strength_width columns), then a column of
    ones and a column of zeros. antecedent_columns[r] is rule r's column:
    its antecedent's, or the ones column for a rule outside every group
    (an empty antecedent fires at 1; a Monte-Carlo rule's cells are
    overwritten).
    """

    gaussian_groups: tuple[GaussianGroup, ...]
    mc_rules: tuple[int, ...]
    actions: np.ndarray
    consequents: np.ndarray
    consequent_matrix: np.ndarray
    strength_width: int
    antecedent_columns: np.ndarray
    _cell_columns: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    def cell_columns(self, num_actions: int) -> np.ndarray:
        """(A, R) read-only: the strength-table column of cell (a, r) for
        num_actions actions, rule r's antecedent column where r may fire
        under action a and the zeros column where its action gate shuts
        it; built once per action count and kept."""
        columns = self._cell_columns.get(num_actions)
        if columns is None:
            gate = (self.actions < 0) | (self.actions == np.arange(num_actions)[:, None])
            columns = np.where(gate, self.antecedent_columns, self.strength_width + 1)
            columns.flags.writeable = False
            self._cell_columns[num_actions] = columns
        return columns


@dataclass(frozen=True)
class FuzzyModel:
    """Rule base plus the t-norm used to combine clause memberships.

    variables: one per observation dimension, with distinct names; each
    clause's term_label names a term of its variable equal to its term.
    """

    obs_dim: int
    num_actions: int
    rules: tuple[FuzzyRule, ...]
    tnorm: str = "product"
    variables: tuple[FuzzyVariable, ...] = ()

    def __post_init__(self):
        if self.tnorm not in TNORMS:
            raise ValueError(f"tnorm must be one of {TNORMS}")
        # an empty rule tuple is representable (inference always falls back);
        # file loading rejects it so shipped models stay meaningful
        rules = tuple(self.rules)
        for i, rule in enumerate(rules):
            if rule.consequent.shape != (self.obs_dim, self.obs_dim + 1):
                raise ValueError(
                    f"rule {i}: consequent shape {rule.consequent.shape}, "
                    f"expected {(self.obs_dim, self.obs_dim + 1)}"
                )
            for clause in rule.clauses:
                if not 0 <= clause.dim < self.obs_dim:
                    raise ValueError(f"rule {i}: clause dim {clause.dim} out of range")
            if rule.action is not None and not 0 <= rule.action < self.num_actions:
                raise ValueError(f"rule {i}: action {rule.action} out of range")
        variables = tuple(self.variables)
        if len(variables) != self.obs_dim:
            raise ValueError("need one variable entry per observation dimension")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct, got {names}")
        for i, rule in enumerate(rules):
            for clause in rule.clauses:
                var = variables[clause.dim]
                if var.terms.get(clause.term_label) != clause.term:
                    raise ValueError(f"rule {i}: variable {var.name!r} has no term "
                                     f"{clause.term_label!r} equal to the clause's term")
        _set(self, "rules", rules)
        _set(self, "variables", variables)

    @cached_property
    def tables(self) -> RuleTables:
        """The rule base's arrays, built on first use and kept."""
        members: dict[tuple[int, ...], list[int]] = {}
        mc_rules = []
        for r, rule in enumerate(self.rules):
            if not rule.clauses:
                continue
            if self.tnorm == "product" and all(c.term.shape == "gaussian" for c in rule.clauses):
                members.setdefault(tuple(c.dim for c in rule.clauses), []).append(r)
            else:
                mc_rules.append(r)
        groups = []
        columns: dict[int, int] = {}  # strength-table column by grouped rule
        width = 0
        for dims, rules in members.items():
            params = np.array([[c.term.params for c in self.rules[r].clauses] for r in rules])
            # a rule's antecedent is the row of its centers and variances; keyed
            # by the row's bytes, so only bit-equal rows share one
            rows = np.stack([params[..., 0], params[..., 1] ** 2], axis=1)  # (G, 2, k)
            distinct: dict[bytes, int] = {}
            index = [distinct.setdefault(row.tobytes(), len(distinct)) for row in rows]
            # each distinct row, taken from the first rule that has it: (U, 2, k)
            unique = rows[[index.index(u) for u in range(len(distinct))]]
            variances = unique[:, 1]
            columns.update((r, width + u) for r, u in zip(rules, index))
            width += len(unique)
            clause_dims = np.array(dims)
            groups.append(GaussianGroup(
                dims=_frozen_array(clause_dims, int),
                centers=_frozen_array(unique[:, 0]),
                variance_diagonals=_frozen_array(variances[:, :, None] * np.eye(len(dims))),
                variance_products=_frozen_array(variances.prod(axis=1)),
                cov_cells=_frozen_array(clause_dims[:, None] * self.obs_dim + clause_dims, int),
            ))
        actions = [-1 if rule.action is None else rule.action for rule in self.rules]
        consequents = np.array([rule.consequent for rule in self.rules])
        consequents = _frozen_array(consequents.reshape(-1, self.obs_dim, self.obs_dim + 1))
        matrix = consequents.reshape(-1, self.obs_dim + 1).T
        matrix.flags.writeable = False
        return RuleTables(
            gaussian_groups=tuple(groups),
            mc_rules=tuple(mc_rules),
            actions=_frozen_array(actions, int),
            consequents=consequents,
            consequent_matrix=matrix,
            strength_width=width,
            # a rule outside every group reads the ones column, after the groups'
            antecedent_columns=_frozen_array(
                [columns.get(r, width) for r in range(len(self.rules))], int),
        )

    @property
    def variable_ranges(self) -> np.ndarray:
        """(obs_dim, 2) array of per-variable value ranges."""
        return np.array([v.range for v in self.variables], dtype=float)


def antecedent_strengths(rule: FuzzyRule, obs_batch, tnorm: str) -> np.ndarray:
    """t-norm aggregation of the rule's clause memberships, one per row of an
    (n, d) batch, action selector aside; an empty antecedent fires at 1."""
    obs_batch = np.atleast_2d(np.asarray(obs_batch, dtype=float))
    if not rule.clauses:
        return np.ones(len(obs_batch))
    values = np.column_stack([membership(c.term, obs_batch[:, c.dim]) for c in rule.clauses])
    return values.prod(axis=1) if tnorm == "product" else values.min(axis=1)


def infer(model: FuzzyModel, obs, action) -> np.ndarray:
    """Weighted-average Takagi-Sugeno prediction of the next observation.

    obs is one (d,) observation with one action, or an (n, d) batch with
    (n,) actions, which gives an (n, d) prediction. Rule weights come from
    the batched clause memberships, gated by each rule's action selector.
    An observation where no rule fires is returned unchanged (logged).
    """
    obs = np.asarray(obs, dtype=float)
    batch = np.atleast_2d(obs)
    actions = np.atleast_1d(np.asarray(action, dtype=int))
    if actions.shape != (len(batch),):
        raise ValueError(f"need one action per observation, got {actions.shape} for {len(batch)}")
    tables = model.tables
    weights = np.empty((len(batch), len(model.rules)))
    for r, rule in enumerate(model.rules):
        weights[:, r] = antecedent_strengths(rule, batch, model.tnorm)
    gate = (tables.actions < 0) | (tables.actions == actions[:, None])  # (n, R)
    weights = np.where(gate, weights, 0.0)
    total = weights.sum(axis=1)
    dead = total <= 0.0
    for row in np.flatnonzero(dead):
        log.debug("no rule fires for obs=%s action=%s; returning input", batch[row], actions[row])
    # outputs[n, r] = consequent_r[:, 0] + consequent_r[:, 1:] @ obs[n]
    cons = tables.consequents
    outputs = cons[:, :, 0] + (cons[None, :, :, 1:] @ batch[:, None, :, None])[..., 0]
    pred = np.divide((weights[:, None, :] @ outputs)[:, 0], total[:, None],
                     out=batch.copy(), where=~dead[:, None])
    return pred[0] if obs.ndim == 1 else pred


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------

def _mf_to_dict(label: str, mf: MembershipFunction) -> dict:
    return {"label": label, "shape": mf.shape, "params": list(mf.params)}


def fuzzy_model_to_dict(model: FuzzyModel) -> dict:
    return {
        "obs_dim": model.obs_dim,
        "num_actions": model.num_actions,
        "tnorm": model.tnorm,
        "variables": [
            {
                "name": v.name,
                "range": list(v.range),
                "terms": [_mf_to_dict(label, mf) for label, mf in v.terms.items()],
            }
            for v in model.variables
        ],
        "rules": [
            {
                "antecedent": [{"var": model.variables[c.dim].name, "term": c.term_label}
                               for c in rule.clauses],
                "action": rule.action,
                "consequent": rule.consequent.tolist(),
            }
            for rule in model.rules
        ],
    }


def _repeats(items) -> list:
    """Each item that occurs more than once, in order of first occurrence."""
    return [item for item, count in Counter(items).items() if count > 1]


def validate_fuzzy_dict(data: dict) -> list[str]:
    """One message per repeated variable name, term label repeated within
    one variable, and NaN or infinite number in a fuzzy model file.

    Term parameters and ranges are named by variable and term, consequent
    entries by rule and index.
    """
    problems = [f"variable name {name!r} repeats"
                for name in _repeats(entry["name"] for entry in data["variables"])]
    for entry in data["variables"]:
        name = entry["name"]
        problems += [f"variable {name!r}: term label {label!r} repeats"
                     for label in _repeats(term["label"] for term in entry["terms"])]
        ranges = np.asarray(entry.get("range", (0.0, 1.0)), float)
        problems += [f"variable {name!r}: {p}" for p in _non_finite("range", ranges, ("i",))]
        for term in entry["terms"]:
            params = np.asarray(term["params"], float)
            problems += [
                f"variable {name!r} term {term['label']!r}: {p}"
                for p in _non_finite("params", params, ("i",))
            ]
    for i, entry in enumerate(data["rules"]):
        consequent = np.asarray(entry["consequent"], float)
        problems += [
            f"rule {i}: {p}" for p in _non_finite("consequent", consequent, ("out", "coef"))
        ]
    return problems


def fuzzy_model_from_dict(data: dict) -> FuzzyModel:
    if not data.get("rules"):
        raise ValueError("fuzzy model file must declare at least one rule")
    problems = validate_fuzzy_dict(data)
    if problems:
        raise ValueError("; ".join(problems))
    variables = []
    for entry in data["variables"]:
        terms = {
            t["label"]: MembershipFunction(shape=t["shape"], params=tuple(t["params"]))
            for t in entry["terms"]
        }
        variables.append(
            FuzzyVariable(
                name=entry["name"],
                terms=terms,
                range=tuple(entry.get("range", (0.0, 1.0))),
            )
        )
    index_of = {v.name: j for j, v in enumerate(variables)}
    rules = []
    for i, entry in enumerate(data["rules"]):
        clauses = []
        for cond in entry.get("antecedent", ()):
            if cond["var"] not in index_of:
                raise ValueError(f"rule {i}: unknown variable {cond['var']!r}")
            dim = index_of[cond["var"]]
            var = variables[dim]
            if cond["term"] not in var.terms:
                raise ValueError(
                    f"rule {i}: variable {cond['var']!r} has no term {cond['term']!r}"
                )
            clauses.append(FuzzyClause(dim=dim, term=var.terms[cond["term"]],
                                       term_label=cond["term"]))
        rules.append(
            FuzzyRule(
                clauses=tuple(clauses),
                consequent=entry["consequent"],
                action=None if entry.get("action") is None else _count(entry, "action"),
            )
        )
    return FuzzyModel(
        obs_dim=_count(data, "obs_dim"),
        num_actions=_count(data, "num_actions"),
        rules=tuple(rules),
        tnorm=data.get("tnorm", "product"),
        variables=tuple(variables),
    )


def save_fuzzy_model(model: FuzzyModel, path) -> None:
    write_json(fuzzy_model_to_dict(model), path)


def load_fuzzy_model(path) -> FuzzyModel:
    return fuzzy_model_from_dict(_read_json(path, dict, "fuzzy model file"))
