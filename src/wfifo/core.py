"""Shared types for queue/flow configuration, channel states, and policies.

A network is a set of FIFO queues sharing one transmission resource. Each
queue carries several flows; a flow's channel is i.i.d. ON/OFF per slot with
P[OFF] = p_off. A queue can transmit only when the channel of its
head-of-line packet is ON, so one bad flow can block a whole queue.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

OFF = 0
ON = 1

# Dense state enumeration is exponential in the queue count; keep it sane.
MAX_QUEUES_ENUMERATED = 16

FEAS_TOL = 1e-9


class ConfigError(ValueError):
    """Raised when a configuration fails validation; message lists field paths."""


@dataclass
class Utility:
    """Concave per-flow utility. Only the weighted logarithm is supported."""

    kind: str = "log"
    weight: float = 1.0

    def value(self, x: float) -> float:
        return self.weight * math.log(x)

    def validate(self, path: str = "utility") -> list[str]:
        errs = []
        if self.kind != "log":
            errs.append(f"{path}.kind: unsupported utility {self.kind!r} (only 'log')")
        if not (self.weight > 0):
            errs.append(f"{path}.weight: must be > 0, got {self.weight!r}")
        return errs


@dataclass
class FlowSpec:
    """One flow through a queue.

    p_off: per-slot probability the flow's channel is OFF.
    lam:   mean exogenous arrival rate (packets/slot). Optional because the
           closed-loop controllers pick their own admission rates; analysis
           commands require it.
    """

    p_off: float
    lam: float | None = None

    @property
    def p_on(self) -> float:
        return 1.0 - self.p_off

    def validate(self, path: str) -> list[str]:
        errs = []
        if not isinstance(self.p_off, (int, float)) or isinstance(self.p_off, bool):
            errs.append(f"{path}.p_off: must be a number, got {self.p_off!r}")
        elif not (0.0 <= self.p_off <= 1.0):
            errs.append(f"{path}.p_off: must be in [0, 1], got {self.p_off!r}")
        if self.lam is not None:
            if not isinstance(self.lam, (int, float)) or isinstance(self.lam, bool):
                errs.append(f"{path}.lambda: must be a number, got {self.lam!r}")
            elif not (0.0 <= self.lam <= sys.float_info.max):  # NaN fails too
                errs.append(f"{path}.lambda: must be finite and >= 0, got {self.lam!r}")
        return errs


@dataclass
class QueueSpec:
    flows: list[FlowSpec] = field(default_factory=list)

    def validate(self, path: str) -> list[str]:
        errs = []
        if not self.flows:
            errs.append(f"{path}.flows: queue must carry at least one flow")
        for k, f in enumerate(self.flows):
            errs.extend(f.validate(f"{path}.flows[{k}]"))
        return errs


@dataclass
class NetworkConfig:
    """Full system description: queues/flows plus controller constants.

    beta:  channel exponent used by the inner rate region and controllers
           (admitted rates follow a_n * p_on**beta), beta >= 1.
    M:     utility weight of the drift-plus-penalty controllers.
    r_max: per-slot cap on any admission decision.
    """

    queues: list[QueueSpec]
    beta: float = 1.0
    M: float = 1000.0
    r_max: float = 2.0
    utility: Utility = field(default_factory=Utility)

    @property
    def n_queues(self) -> int:
        return len(self.queues)

    def n_flows(self, n: int) -> int:
        return len(self.queues[n].flows)

    def p_off_row(self, n: int) -> list[float]:
        return [f.p_off for f in self.queues[n].flows]

    def p_on_row(self, n: int) -> list[float]:
        return [f.p_on for f in self.queues[n].flows]

    def lambda_row(self, n: int) -> list[float]:
        return [0.0 if f.lam is None else f.lam for f in self.queues[n].flows]

    def lambdas(self) -> list[list[float]]:
        return [self.lambda_row(n) for n in range(self.n_queues)]

    def validate(self) -> list[str]:
        errs = []
        if not self.queues:
            errs.append("queues: network must contain at least one queue")
        if len(self.queues) > MAX_QUEUES_ENUMERATED:
            errs.append(
                f"queues: at most {MAX_QUEUES_ENUMERATED} queues supported "
                f"(state enumeration is 2**N), got {len(self.queues)}"
            )
        for n, q in enumerate(self.queues):
            errs.extend(q.validate(f"queues[{n}]"))
        if not (self.beta >= 1.0) or not math.isfinite(self.beta):
            errs.append(f"beta: must be finite and >= 1, got {self.beta!r}")
        if not (self.M > 0) or not math.isfinite(self.M):
            errs.append(f"M: must be finite and > 0, got {self.M!r}")
        if not (self.r_max > 0) or not math.isfinite(self.r_max):
            errs.append(f"r_max: must be finite and > 0, got {self.r_max!r}")
        errs.extend(self.utility.validate())
        # the planner weighs queue n by weight * K_n and qfc by M * weight * K_n
        w, k = self.utility.weight, max(map(self.n_flows, range(self.n_queues)), default=1)
        if not errs and not (math.isfinite(w * k) and math.isfinite(self.M * w * k)):
            errs.append(f"utility.weight: weight * flow count and M * weight * flow count "
                        f"must be finite, got weight {w!r} with M = {self.M!r} and {k} flows")
        # flows admit on the ray a * p_on**beta; once that leaves the normal
        # float range, the reciprocal of a queue's sum of p_on**(beta - 1)
        # overflows
        live = [] if errs else [f.p_on for q in self.queues for f in q.flows
                                if 0.0 < f.p_on < 1.0]
        if live and min(live)**self.beta < sys.float_info.min:
            cap = math.log(sys.float_info.min) / math.log(min(live))
            errs.append(f"beta: p_on**beta leaves float range; must be at most "
                        f"{cap:.6g} for p_on = {min(live)!r}, got {self.beta!r}")
        return errs

    def missing_lambda_fields(self) -> list[str]:
        """Field paths of flows lacking an arrival rate (needed for analysis)."""
        out = []
        for n, q in enumerate(self.queues):
            for k, f in enumerate(q.flows):
                if f.lam is None:
                    out.append(f"queues[{n}].flows[{k}].lambda")
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "beta": self.beta,
            "M": self.M,
            "r_max": self.r_max,
            "utility": {"kind": self.utility.kind, "weight": self.utility.weight},
            "queues": [
                {
                    "flows": [
                        {"p_off": f.p_off} | ({} if f.lam is None else {"lambda": f.lam})
                        for f in q.flows
                    ]
                }
                for q in self.queues
            ],
        }


def _expect_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list, got {type(obj).__name__}")
    return obj


def _number(obj: dict, key: str, default: float, path: str) -> float:
    # a JSON number, as for p_off and lambda: not a bool, not a numeric string
    value = obj.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{path}: must be a number, got {value!r}")


def config_from_dict(data: Any) -> NetworkConfig:
    """Build and validate a NetworkConfig from parsed JSON data."""
    top = _expect_mapping(data, "config")
    util_raw = _expect_mapping(top.get("utility", {}), "utility")
    utility = Utility(
        kind=util_raw.get("kind", "log"),
        weight=_number(util_raw, "weight", 1.0, "utility.weight"),
    )
    queues = []
    for n, q_raw in enumerate(_expect_list(top.get("queues", []), "queues")):
        q = _expect_mapping(q_raw, f"queues[{n}]")
        flows = []
        for k, f_raw in enumerate(_expect_list(q.get("flows", []), f"queues[{n}].flows")):
            f = _expect_mapping(f_raw, f"queues[{n}].flows[{k}]")
            if "p_off" not in f:
                raise ConfigError(f"queues[{n}].flows[{k}].p_off: missing required field")
            lam = f.get("lambda")
            flows.append(FlowSpec(p_off=f["p_off"], lam=lam))
        queues.append(QueueSpec(flows=flows))
    cfg = NetworkConfig(
        queues=queues,
        beta=_number(top, "beta", 1.0, "beta"),
        M=_number(top, "M", 1000.0, "M"),
        r_max=_number(top, "r_max", 2.0, "r_max"),
        utility=utility,
    )
    errs = cfg.validate()
    if errs:
        raise ConfigError("; ".join(errs))
    return cfg


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; any text that is not usable JSON is a ConfigError.

    Besides malformed JSON that covers bytes that are not UTF-8 and integer
    literals beyond Python's digit limit for int conversion (4,300 digits).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON ({e.msg})") from e
        except ValueError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e


def load_config(path: str) -> NetworkConfig:
    return config_from_dict(read_json(path))


def config_digest(cfg: NetworkConfig) -> str:
    """Stable short hash of the full configuration, for output provenance."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----- Channel-state vectors -----
#
# A joint state is a vector of per-queue ON/OFF values encoded as a bitmask:
# queue n contributes bit n (queue 0 is the least-significant bit, OFF=0).


def state_bit(state: int, n: int) -> int:
    return (state >> n) & 1


@dataclass
class SchedulingPolicy:
    """Stationary randomized scheduler: tau[s, n] is the probability of
    granting the slot to queue n when the joint channel state is s.

    Per state the grants satisfy tau >= 0 and sum <= 1 (the remainder idles).
    """

    tau: np.ndarray  # shape (2**N, N)

    def __post_init__(self) -> None:
        self.tau = np.asarray(self.tau, dtype=float)
        if self.tau.ndim != 2:
            raise ValueError("tau must be a (2**N, N) array")
        n = self.tau.shape[1]
        if self.tau.shape[0] != (1 << n):
            raise ValueError(
                f"tau has {self.tau.shape[0]} states for {n} queues, expected {1 << n}"
            )
        if not np.isfinite(self.tau).all():
            s, n = np.argwhere(~np.isfinite(self.tau))[0]
            raise ValueError(f"state {s:#b}, queue {n}: grant probability must be "
                             f"finite, got {self.tau[s, n]}")
        if np.any(self.tau < -FEAS_TOL):
            raise ValueError("tau entries must be >= 0")
        sums = self.tau.sum(axis=1)
        if np.any(sums > 1.0 + FEAS_TOL):
            bad = int(np.argmax(sums))
            raise ValueError(f"state {bad:#b}: grant probabilities sum to {sums[bad]} > 1")

    @property
    def n_queues(self) -> int:
        return int(self.tau.shape[1])

    @classmethod
    def uniform_over_on(cls, n_queues: int) -> "SchedulingPolicy":
        """Split the slot evenly among queues whose channel is ON."""
        tau = np.zeros((1 << n_queues, n_queues))
        for s in range(1 << n_queues):
            on = [n for n in range(n_queues) if (s >> n) & 1]
            for n in on:
                tau[s, n] = 1.0 / len(on)
        return cls(tau)
