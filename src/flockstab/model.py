"""Flock models and system matrices.

Defines agent coupling parameters for the two supported periodic
arrangements (three types with nearest-neighbor coupling, two types with
next-nearest-neighbor coupling) and validates the decentralization
constraints.  Both arrangements are one model: a periodic stencil on a
line of vehicles.  Vehicle k (0 = leader) has type k mod t and cell
k // t; offset j couples it to vehicle k + j with weight g * rho[j], and
its own state enters with weight g.  The circle wraps k + j modulo the
vehicle count.  The open line zeroes the leader's row and truncates every
row that misses a neighbor:

- Type I: the centre weight becomes -sum(kept rho), so the row still
  sums to zero;
- Type II: the centre weight stays 1 and each missing rho[j] is added to
  the mirrored offset -j.

State ordering is block form throughout: all position blocks (one block of
n cells per agent type), then all velocity blocks in the same type order.
The head vehicle of the line is type 1 in cell 1, i.e. state index 0.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ConstraintViolation, ShapeError, SizeError

CONSTRAINT_TOL = 1e-12

ROW_SUM_TARGET = -1.0

#: a run whose states, dense operators or spectrum would take more bytes is refused
_MAX_BYTES = 2 * 1024**3


class Arrangement(Enum):
    TRIATOMIC_NN = "triatomic-nn"
    DIATOMIC_NNN = "diatomic-nnn"

    @property
    def n_types(self) -> int:
        return 3 if self is Arrangement.TRIATOMIC_NN else 2

    @property
    def offsets(self) -> tuple[int, ...]:
        if self is Arrangement.TRIATOMIC_NN:
            return (-1, 1)
        return (-2, -1, 1, 2)


class BoundaryCondition(Enum):
    TYPE_I = 1
    TYPE_II = 2


def check_budget(what: str, nbytes: int) -> None:
    """Refuse, before it is allocated, ``what`` that would take over 2 GiB."""
    if nbytes > _MAX_BYTES:
        raise ValueError(f"{what} take {nbytes} bytes, over the budget of {_MAX_BYTES} bytes")


def _freeze_rho(rho: Mapping[int, float]) -> Mapping[int, float]:
    return MappingProxyType({int(j): float(w) for j, w in sorted(rho.items())})


@dataclass(frozen=True)
class AgentParams:
    """Coupling gains and relative weights of one agent type.

    ``rho_x[j]`` weights the position of the neighbor ``j`` hops away
    (positive j looks rearward, negative j toward the head); ``rho_v``
    does the same for velocities.  Decentralization requires each weight
    map to sum to -1, which is validated by the owning spec.
    """

    g_x: float
    g_v: float
    rho_x: Mapping[int, float]
    rho_v: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "rho_x", _freeze_rho(self.rho_x))
        object.__setattr__(self, "rho_v", _freeze_rho(self.rho_v))
        values = [self.g_x, self.g_v, *self.rho_x.values(), *self.rho_v.values()]
        if not all(isinstance(v, numbers.Real) and np.isfinite(v) for v in values):
            raise ShapeError("agent parameters must be finite numbers")


@dataclass(frozen=True)
class FlockSpec:
    """A validated arrangement plus the parameters of every agent type."""

    arrangement: Arrangement
    agents: tuple[AgentParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        want = self.arrangement.n_types
        if len(self.agents) != want:
            raise ShapeError(
                f"{self.arrangement.value} needs {want} agent types, "
                f"got {len(self.agents)}"
            )
        allowed = set(self.arrangement.offsets)
        for i, agent in enumerate(self.agents):
            for which, rho in (("rho_x", agent.rho_x), ("rho_v", agent.rho_v)):
                if set(rho) != allowed:
                    raise ShapeError(
                        f"agent {i}: {which} offsets {sorted(rho)} do not match "
                        f"{sorted(allowed)} for {self.arrangement.value}"
                    )
                residual = sum(rho.values()) - ROW_SUM_TARGET
                if abs(residual) > CONSTRAINT_TOL:
                    raise ConstraintViolation(i, which, residual)

    @property
    def n_types(self) -> int:
        return self.arrangement.n_types


@dataclass(frozen=True)
class AlphaBeta:
    """Symmetric/antisymmetric weight combinations per type and offset.

    ``alpha[k][j] = rho[+j] + rho[-j]`` and ``beta[k][j] = rho[+j] - rho[-j]``
    for offset magnitudes j present in the arrangement; only the position
    weights' beta enters the conditions.
    """

    alpha_x: tuple[Mapping[int, float], ...]
    beta_x: tuple[Mapping[int, float], ...]
    alpha_v: tuple[Mapping[int, float], ...]


@dataclass(frozen=True)
class SystemMatrix:
    """Dense first-order system matrix in block (positions, velocities) form."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_agents(self) -> int:
        return self.dim // 2


def _as_agent(raw, offsets: Sequence[int]) -> AgentParams:
    if isinstance(raw, AgentParams):
        return raw
    try:
        g_x, g_v = raw["g_x"], raw["g_v"]
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"agent entry missing gain: {exc}") from exc
    try:
        rho_x, rho_v = dict(raw.get("rho_x", {})), dict(raw.get("rho_v", {}))
        infer = list(raw.get("infer", ()))
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"malformed agent entry: {exc}") from exc
    rho_x = _complete(rho_x, infer, "rho_x", offsets)
    rho_v = _complete(rho_v, infer, "rho_v", offsets)
    return AgentParams(g_x=g_x, g_v=g_v, rho_x=rho_x, rho_v=rho_v)


def _complete(rho: dict, infer, which: str, offsets: Sequence[int]) -> dict:
    """Fill omitted offsets with zero, optionally deriving one from the constraint."""
    try:
        rho = {int(j): float(w) for j, w in rho.items()}
    except TypeError as exc:
        raise ShapeError(f"{which}: weights must be numbers: {exc}") from exc
    for entry in infer:
        if not isinstance(entry, str) or ":" not in entry:
            raise ShapeError(f"infer entry {entry!r} must look like 'rho_x:-1'")
    inferred = [
        int(entry.split(":", 1)[1])
        for entry in infer
        if entry.split(":", 1)[0] == which
    ]
    if len(inferred) > 1:
        raise ShapeError(f"{which}: at most one offset may be inferred per row")
    for j in offsets:
        rho.setdefault(j, 0.0)
    if inferred:
        j = inferred[0]
        if j not in offsets:
            raise ShapeError(f"{which}: cannot infer offset {j}")
        rho[j] = ROW_SUM_TARGET - sum(w for k, w in rho.items() if k != j)
    return rho


def build_spec(arrangement: Arrangement, agents: Sequence) -> FlockSpec:
    """Build and validate a spec from agent parameter entries.

    Each entry is either an :class:`AgentParams` or a mapping with keys
    ``g_x``, ``g_v``, ``rho_x``, ``rho_v`` (offset -> weight, omitted
    offsets are zero) and an optional ``infer`` list such as
    ``["rho_x:-1"]`` naming one offset per weight map to derive from the
    sum-to--1 constraint.
    """
    arrangement = Arrangement(arrangement)
    if not isinstance(agents, Sequence):
        raise ShapeError(f"agents must be a list, got {type(agents).__name__}")
    return FlockSpec(arrangement, tuple(_as_agent(a, arrangement.offsets) for a in agents))


def alphas_betas(spec: FlockSpec) -> AlphaBeta:
    """Exact alpha/beta combinations of the spec's weights."""
    magnitudes = sorted({abs(j) for j in spec.arrangement.offsets})

    def combine(rhos, sign: float):
        return tuple(MappingProxyType({j: rho[j] + sign * rho[-j] for j in magnitudes})
                     for rho in rhos)

    rho_x = [agent.rho_x for agent in spec.agents]
    rho_v = [agent.rho_v for agent in spec.agents]
    return AlphaBeta(alpha_x=combine(rho_x, 1.0), beta_x=combine(rho_x, -1.0),
                     alpha_v=combine(rho_v, 1.0))


def _block_index(k, t: int, n: int):
    """Block-order state index of vehicle k (type k mod t, cell k // t)."""
    return (k % t) * n + k // t


def _couplings(agent: AgentParams, tn: int):
    """(column shift, gain, weights) of the position and velocity couplings."""
    return ((0, agent.g_x, agent.rho_x), (tn, agent.g_v, agent.rho_v))


def assemble_periodic(spec: FlockSpec, n: int) -> SystemMatrix:
    """Dense system matrix of the flock closed into a circle of n cells."""
    if n < 3:
        raise SizeError(f"need n >= 3 cells per type, got {n}")
    t = spec.n_types
    tn = t * n
    m = np.zeros((2 * tn, 2 * tn))
    m[:tn, tn:] = np.eye(tn)
    for a, agent in enumerate(spec.agents):
        k = np.arange(a, tn, t)
        rows = tn + _block_index(k, t, n)
        for shift, g, rho in _couplings(agent, tn):
            for j, w in ((0, 1.0), *rho.items()):
                m[rows, shift + _block_index((k + j) % tn, t, n)] += g * w
    return SystemMatrix(m)


def _truncated_row(rho: Mapping[int, float], k: int, tn: int, bc: BoundaryCondition):
    """Neighbor vehicle -> weight (before the gain) of line vehicle k's row."""
    kept = {j: w for j, w in rho.items() if 0 <= k + j < tn}
    if bc is BoundaryCondition.TYPE_I:
        centre = -sum(kept[j] for j in sorted(kept, key=abs))
    else:
        centre = 1.0
        for j, w in rho.items():
            if j not in kept:
                kept[-j] += w
    return {k: centre, **{k + j: w for j, w in kept.items()}}


def assemble_line(spec: FlockSpec, n: int, bc: BoundaryCondition) -> SystemMatrix:
    """System matrix of the open line: periodic interior, truncated ends.

    The head vehicle's acceleration row is identically zero (it drives the
    flock); every other row that misses a neighbor takes the Type I or
    Type II truncation, both of which keep the row sum at zero.
    """
    bc = BoundaryCondition(bc)
    m = assemble_periodic(spec, n).entries.copy()
    t = spec.n_types
    tn = t * n
    m[tn, :] = 0.0  # leader: type 1, cell 1
    for k in range(1, tn):
        agent = spec.agents[k % t]
        if all(0 <= k + j < tn for j in agent.rho_x):
            continue
        row = tn + _block_index(k, t, n)
        m[row, :] = 0.0
        for shift, g, rho in _couplings(agent, tn):
            for c, w in _truncated_row(rho, k, tn, bc).items():
                m[row, shift + _block_index(c, t, n)] = g * w
    return SystemMatrix(m)


# --- JSON serialization ----------------------------------------------------

def spec_to_dict(spec: FlockSpec) -> dict:
    return {
        "arrangement": spec.arrangement.value,
        "agents": [
            {
                "g_x": a.g_x,
                "g_v": a.g_v,
                "rho_x": {str(j): w for j, w in a.rho_x.items()},
                "rho_v": {str(j): w for j, w in a.rho_v.items()},
            }
            for a in spec.agents
        ],
    }


def spec_from_dict(obj: dict) -> FlockSpec:
    try:
        arrangement = Arrangement(obj["arrangement"])
        agents = obj["agents"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed spec document: {exc}") from exc
    return build_spec(arrangement, agents)


def load_spec(path) -> FlockSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def save_spec(spec: FlockSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")
