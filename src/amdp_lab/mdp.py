"""Core tabular-MDP data model: transition/reward tables, policies, induced
chains, the span seminorm, and a canonical JSON file format.

Conventions used throughout the package:
  * transitions P have shape (S, A, S) with P[s, a, s'] = Pr(s' | s, a)
  * rewards r have shape (S, A), values in [0, 1] (perturbed models may
    exceed 1 by at most the perturbation size)
  * value vectors are plain 1-D numpy arrays of length S
  * Q tables are plain (S, A) numpy arrays
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROB_TOL = 1e-12  # row-sum tolerance for stochastic matrices


class MdpFormatError(ValueError):
    """Raised when an MDP/policy file is malformed or fails validation on load."""


class SolverConvergenceError(RuntimeError):
    """Raised when an iterative solver exceeds its iteration cap."""


class EnumerationBudgetError(RuntimeError):
    """Raised when a policy-enumeration operation would exceed its budget."""


class InfeasibleInstanceError(ValueError):
    """Raised when requested construction parameters admit no valid instance."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TabularMdp:
    """Ground-truth tabular MDP (S, A, P, r); immutable after construction."""

    num_states: int
    num_actions: int
    transitions: np.ndarray  # (S, A, S)
    rewards: np.ndarray      # (S, A)
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "transitions", _freeze(self.transitions))
        object.__setattr__(self, "rewards", _freeze(self.rewards))
        S, A = self.num_states, self.num_actions
        if self.transitions.shape != (S, A, S):
            raise ValueError(
                f"transitions shape {self.transitions.shape} != {(S, A, S)}")
        if self.rewards.shape != (S, A):
            raise ValueError(f"rewards shape {self.rewards.shape} != {(S, A)}")


@dataclass(frozen=True)
class DeterministicPolicy:
    """State -> action map, stored as an int array of length S."""

    actions: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.actions, dtype=int)
        a.flags.writeable = False
        object.__setattr__(self, "actions", a)
        if a.ndim != 1:
            raise ValueError("actions must be a 1-D array")

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class InducedChain:
    """Markov chain obtained by fixing a policy: matrix P_pi and reward r_pi."""

    matrix: np.ndarray  # (S, S)
    reward: np.ndarray  # (S,)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        object.__setattr__(self, "reward", _freeze(self.reward))


def validate_mdp(m: TabularMdp) -> list[str]:
    """Check the MDP invariants and return a list of violation descriptions.

    An empty list means the MDP is valid: every transition row is a
    probability distribution (sum 1 within PROB_TOL, entries >= 0) and every
    reward lies in [0, 1].  Violations are data, not exceptions.
    """
    violations: list[str] = []
    P, r = m.transitions, m.rewards
    if not np.all(np.isfinite(P)):
        violations.append("transitions contain non-finite entries")
    if not np.all(np.isfinite(r)):
        violations.append("rewards contain non-finite entries")
    if violations:
        return violations
    for s in range(m.num_states):
        for a in range(m.num_actions):
            row = P[s, a]
            if np.any(row < 0):
                j = int(np.argmin(row))
                violations.append(
                    f"P[{s}][{a}][{j}] = {row[j]:.6g} is negative")
            total = float(row.sum())
            if abs(total - 1.0) > PROB_TOL:
                violations.append(
                    f"row P[{s}][{a}] sums to {total!r}, not 1")
            rv = float(r[s, a])
            if rv < 0.0 or rv > 1.0:
                violations.append(f"r[{s}][{a}] = {rv:.6g} outside [0, 1]")
    return violations


def span(v: np.ndarray) -> float:
    """Span seminorm sp(v) = max(v) - min(v); rejects empty vectors."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("span of an empty vector is undefined")
    return float(np.max(v) - np.min(v))


def induce_chain(m: TabularMdp, pi: DeterministicPolicy) -> InducedChain:
    """Collapse the MDP under a policy by row selection:
    P_pi[s, s'] = P[s, pi(s), s'] and r_pi[s] = r[s, pi(s)]."""
    if not isinstance(pi, DeterministicPolicy):
        raise TypeError(f"not a policy: {type(pi).__name__}")
    if len(pi) != m.num_states:
        raise ValueError(f"policy has {len(pi)} states, MDP has {m.num_states}")
    if np.any(pi.actions < 0) or np.any(pi.actions >= m.num_actions):
        raise ValueError("policy selects an out-of-range action")
    idx = np.arange(m.num_states)
    return InducedChain(m.transitions[idx, pi.actions], m.rewards[idx, pi.actions])


# ---------------------------------------------------------------------------
# Canonical file format (JSON).  Floats are serialized with Python's repr,
# which round-trips every finite double exactly.


def _require(doc: dict, key: str):
    if key not in doc:
        raise MdpFormatError(f"missing field {key!r}")
    return doc[key]


def mdp_to_dict(m: TabularMdp) -> dict:
    doc = {
        "num_states": m.num_states,
        "num_actions": m.num_actions,
        "transitions": m.transitions.tolist(),
        "rewards": m.rewards.tolist(),
    }
    if m.metadata:
        doc["metadata"] = m.metadata
    return doc


def mdp_from_dict(doc: dict) -> TabularMdp:
    S = _require(doc, "num_states")
    A = _require(doc, "num_actions")
    # JSON true/false load as bool, which is an int subclass
    if (not all(isinstance(n, int) and not isinstance(n, bool) for n in (S, A))
            or S < 1 or A < 1):
        raise MdpFormatError("num_states and num_actions must be positive integers")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MdpFormatError("metadata must be an object")
    try:
        transitions = np.asarray(_require(doc, "transitions"), dtype=float)
        rewards = np.asarray(_require(doc, "rewards"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise MdpFormatError(f"malformed array field: {exc}") from exc
    if transitions.shape != (S, A, S):
        raise MdpFormatError(
            f"transitions shape {transitions.shape} does not match ({S}, {A}, {S})")
    if rewards.shape != (S, A):
        raise MdpFormatError(f"rewards shape {rewards.shape} does not match ({S}, {A})")
    m = TabularMdp(S, A, transitions, rewards, metadata)
    problems = validate_mdp(m)
    if problems:
        raise MdpFormatError("invalid MDP: " + "; ".join(problems))
    return m


def write_mdp(m: TabularMdp, path: str | Path) -> None:
    Path(path).write_text(json.dumps(mdp_to_dict(m), indent=1) + "\n")


def _read_json_object(path: str | Path) -> dict:
    """A JSON file's top-level object; MdpFormatError for anything else."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MdpFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MdpFormatError("top-level document must be an object")
    return doc


def read_mdp(path: str | Path) -> TabularMdp:
    return mdp_from_dict(_read_json_object(path))


def write_policy(pi: DeterministicPolicy, path: str | Path) -> None:
    doc = {"actions": [int(a) for a in pi.actions]}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_policy(path: str | Path) -> DeterministicPolicy:
    doc = _read_json_object(path)
    if "actions" in doc:
        actions = doc["actions"]
        # bool is an int subclass, and a negative index would wrap around
        if not (isinstance(actions, list)
                and all(type(a) is int and a >= 0 for a in actions)):
            raise MdpFormatError("'actions' must be a list of non-negative integers")
        return DeterministicPolicy(np.array(actions, dtype=int))
    raise MdpFormatError("policy file needs an 'actions' field")
