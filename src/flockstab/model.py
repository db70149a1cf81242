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

:func:`_stencil` is the one reading of it.  The dense matrices (the tests'
oracle; no run builds one) put the positions of vehicles 0..N-1 in line
order before their velocities in the same order; the leader is index 0.
"""

from __future__ import annotations

import json
import numbers
import re
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


def _weight(w) -> float:
    """float(w) of a real number, refusing a bool (JSON's true would read as 1.0)
    and a string ("-0.6" would read as the number)."""
    if not isinstance(w, numbers.Real) or isinstance(w, bool):
        raise ShapeError(f"weights must be numbers, got {w!r}")
    return float(w)


def _offset(j) -> int:
    """int(j) of an integer or an integer literal such as JSON's "-1" key."""
    if isinstance(j, str) and re.fullmatch(r"[+-]?[0-9]+", j):
        return int(j)
    if not isinstance(j, numbers.Integral) or isinstance(j, bool):
        raise ShapeError(f"offsets must be integers, got {j!r}")
    return int(j)


def _rho(rho: Mapping) -> dict[int, float]:
    return {_offset(j): _weight(w) for j, w in rho.items()}


def _freeze_rho(rho: Mapping[int, float]) -> Mapping[int, float]:
    return MappingProxyType(dict(sorted(_rho(rho).items())))


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
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and np.isfinite(v)
                   for v in values):
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
class SystemMatrix:
    """Dense first-order system matrix [[0, I], [Lx, Lv]] of the state
    [positions; velocities], each of vehicles 0..N-1 in line order."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


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
    rho = _rho(rho)
    for entry in infer:
        if not isinstance(entry, str) or ":" not in entry:
            raise ShapeError(f"infer entry {entry!r} must look like 'rho_x:-1'")
    inferred = [
        _offset(entry.split(":", 1)[1])
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


def _row(rho: Mapping[int, float], k: int, tn: int, bc: BoundaryCondition | None):
    """Neighbor vehicle -> weight (before the gain) of vehicle k's row: the circle's,
    k + j not wrapped, unless the line's row misses a neighbor and is truncated."""
    kept = {j: w for j, w in rho.items() if bc is None or 0 <= k + j < tn}
    missing = {j: w for j, w in rho.items() if j not in kept}
    centre = 1.0
    if missing and bc is BoundaryCondition.TYPE_I:
        centre = -sum(kept[j] for j in sorted(kept, key=abs))
    elif missing:  # Type II: each missing weight moves to the mirrored offset
        kept = {j: w + missing.get(-j, 0.0) for j, w in kept.items()}
    return {k: centre, **{k + j: w for j, w in kept.items()}}


def _stencil(spec: FlockSpec, n: int, bc: BoundaryCondition | None = None):
    """Every acceleration term of n cells per type as arrays (k, kind, c, g * w):
    vehicle k's acceleration takes g * w times the position (kind 0) or velocity
    (kind 1) of vehicle c.  With no bc the circle, c not wrapped; with a bc the
    open line, whose leader has no terms."""
    if n < 3:
        raise SizeError(f"need n >= 3 cells per type, got {n}")
    t = spec.n_types
    tn = t * n
    terms = []
    for k in range(0 if bc is None else 1, tn):
        agent = spec.agents[k % t]
        for kind, (g, rho) in enumerate(((agent.g_x, agent.rho_x), (agent.g_v, agent.rho_v))):
            terms.extend((k, kind, c, g * w) for c, w in _row(rho, k, tn, bc).items())
    return tuple(np.array(column) for column in zip(*terms))


def _assemble(spec: FlockSpec, n: int, bc: BoundaryCondition | None) -> SystemMatrix:
    """The dense matrix of :func:`_stencil`'s terms, the circle's wrapped."""
    k, kind, c, gw = _stencil(spec, n, bc)
    tn = spec.n_types * n
    m = np.zeros((2 * tn, 2 * tn))
    m[:tn, tn:] = np.eye(tn)
    m[tn + k, kind * tn + c % tn] += gw
    return SystemMatrix(m)


def assemble_periodic(spec: FlockSpec, n: int) -> SystemMatrix:
    """Dense system matrix of the flock closed into a circle of n cells."""
    return _assemble(spec, n, None)


def assemble_line(spec: FlockSpec, n: int, bc: BoundaryCondition) -> SystemMatrix:
    """Dense system matrix of the open line: periodic interior, truncated ends.

    The head vehicle's acceleration row is identically zero (it drives the
    flock); every other row that misses a neighbor takes the Type I or
    Type II truncation, both of which keep the row sum at zero.
    """
    return _assemble(spec, n, BoundaryCondition(bc))


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
