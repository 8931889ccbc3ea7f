"""Domain types for star-probing and online-matching instances.

All types here are immutable after construction and safe to share between
concurrent readers.  Probabilities and weights are stored as 64-bit floats;
tolerance-based invariant checks use ``ABS_TOL`` unless noted otherwise.
``validate`` reports every violation of a star instance, a matching
instance or a policy mixture without raising; ``check_policy`` is the one
check of a probing order, and raises.  ``save_instance`` and
``load_instance`` round-trip instances through JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

ABS_TOL = 1e-9
MASS_TOL = 1e-6  # tolerance for policy-mixture mass bookkeeping

DETERMINISTIC = "deterministic"
SURVIVAL = "survival"
HAZARD = "hazard"

ADVERSARIAL = "adversarial"
PROPHET = "prophet"
IID = "iid"


class StochmatchError(Exception):
    """Base class for all library errors."""


class InstanceFormatError(StochmatchError):
    """Raised when an instance file cannot be parsed or fails validation."""


class CapabilityError(StochmatchError):
    """Raised when an operation cannot serve this instance (wrong patience
    variant, wrong arrival model, or size beyond an exact method's cap)."""


class PatienceVariantError(CapabilityError):
    """Raised when an operation is called with an unsupported patience model."""


class CapacityError(CapabilityError):
    """Raised when an exact method is asked for an instance beyond its size cap."""


class LpNumericalError(StochmatchError):
    """Raised when the LP solver cannot make progress within its pivot tolerance."""


# ---------------------------------------------------------------------------
# Patience models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatienceModel:
    """How many failed probes an arrival tolerates before leaving.

    Three variants:

    * ``deterministic``: a fixed number ``theta`` of allowed probes
      (``theta = 0`` means no probes at all).
    * ``survival``: an explicit survival curve ``q`` with ``q[k-1] =
      Pr[patience >= k]``; must satisfy ``1 = q_1 >= q_2 >= ... >= 0``.
    * ``hazard``: after each unsuccessful probe of item ``i`` the arrival
      balks with probability ``r_i``.  A single global ``rate`` means the
      patience itself has a geometric (constant hazard) distribution; only
      in that case is the patience independent of the probing order.
    """

    kind: str
    theta: int | None = None
    q: tuple[float, ...] | None = None
    r: tuple[float, ...] | None = None
    rate: float | None = None

    @staticmethod
    def deterministic(theta: int) -> "PatienceModel":
        return PatienceModel(kind=DETERMINISTIC, theta=int(theta))

    @staticmethod
    def survival(q) -> "PatienceModel":
        return PatienceModel(kind=SURVIVAL, q=tuple(float(v) for v in q))

    @staticmethod
    def constant_hazard(rate: float | None = None, rates=None) -> "PatienceModel":
        if (rate is None) == (rates is None):
            raise ValueError("give exactly one of a global rate or per-item rates")
        if rates is not None:
            return PatienceModel(kind=HAZARD, r=tuple(float(v) for v in rates))
        return PatienceModel(kind=HAZARD, rate=float(rate))

    @property
    def is_deterministic(self) -> bool:
        return self.kind == DETERMINISTIC

    @property
    def is_survival(self) -> bool:
        return self.kind == SURVIVAL

    @property
    def is_hazard(self) -> bool:
        return self.kind == HAZARD

    @property
    def has_global_rate(self) -> bool:
        return self.kind == HAZARD and self.rate is not None

    def hazard_rates(self, n: int) -> np.ndarray:
        """Per-item hazard rates, expanding a global rate to length ``n``."""
        if self.kind != HAZARD:
            raise PatienceVariantError(f"hazard rates requested from {self.kind} patience")
        if self.rate is not None:
            return np.full(n, self.rate)
        if len(self.r) != n:
            raise PatienceVariantError(
                f"per-item hazard rates have length {len(self.r)}, instance has {n} items")
        return np.asarray(self.r, dtype=float)

    def survival_curve(self, n: int) -> np.ndarray:
        """Survival values ``q_1..q_n`` capped at ``n`` attempts.

        An item can be probed at most once, so no policy ever makes more than
        ``n`` probes: curves longer than ``n`` are truncated and shorter ones
        are padded with zeros.  Deterministic patience maps to a 0/1 step
        curve (all zeros for a negative budget, as ``max_probes`` counts it)
        and a global hazard rate to the geometric curve
        ``(1 - rate)**(k-1)``.  Per-item hazard rates have no policy-free
        survival curve and are rejected.
        """
        if self.kind == DETERMINISTIC:
            out = np.zeros(n)
            out[: max(0, min(self.theta, n))] = 1.0
            return out
        if self.kind == SURVIVAL:
            out = np.zeros(n)
            upto = min(len(self.q), n)
            out[:upto] = self.q[:upto]
            return out
        if self.kind == HAZARD and self.rate is not None:
            return (1.0 - self.rate) ** np.arange(n)
        raise PatienceVariantError(
            "per-item hazard patience has no policy-independent survival curve")

    def mean_patience(self, n: int) -> float:
        """Upper bound on the expected number of probes an arrival allows.

        Exact for deterministic and survival patience (``E[theta] = sum_k
        q_k`` over the capped support).  For hazard patience the number of
        probes depends on the probing order, so a valid upper bound is
        returned instead: ``min(n, 1/min_i r_i)``, or ``n`` if some rate is
        zero.
        """
        if self.kind == HAZARD:
            rates = self.hazard_rates(n)
            rmin = float(rates.min()) if rates.size else 0.0
            return float(n) if rmin <= 0.0 else float(min(n, 1.0 / rmin))
        return float(np.sum(self.survival_curve(n)))

    def max_probes(self, n: int) -> int:
        """Most probes one arrival can make over ``n`` items: its budget for
        deterministic patience, the support of a survival curve (up to its
        last positive ``q``) and every item for hazard patience."""
        if self.kind == DETERMINISTIC:
            return max(0, min(self.theta, n))
        if self.kind == SURVIVAL:
            return min(max((k + 1 for k, qk in enumerate(self.q) if qk > 0.0), default=0), n)
        return n

    def subset(self, indices) -> "PatienceModel":
        """Patience model induced on a subset of items (matters for per-item rates)."""
        if self.kind == HAZARD and self.r is not None:
            return PatienceModel(kind=HAZARD, r=tuple(self.r[i] for i in indices))
        return self

    def to_json_dict(self) -> dict:
        if self.kind == DETERMINISTIC:
            return {"type": DETERMINISTIC, "theta": self.theta}
        if self.kind == SURVIVAL:
            return {"type": SURVIVAL, "q": list(self.q)}
        if self.rate is not None:
            return {"type": HAZARD, "rate": self.rate}
        return {"type": HAZARD, "r": list(self.r)}

    @staticmethod
    def from_json_dict(d: dict) -> "PatienceModel":
        kind = _require(d, "type", "patience")
        if kind == DETERMINISTIC:
            return PatienceModel.deterministic(_require(d, "theta", "patience"))
        if kind == SURVIVAL:
            return PatienceModel.survival(_require(d, "q", "patience"))
        if kind == HAZARD:
            if "rate" in d:
                return PatienceModel.constant_hazard(rate=d["rate"])
            return PatienceModel.constant_hazard(rates=_require(d, "r", "patience"))
        raise InstanceFormatError(f"unknown patience type {kind!r}")


# ---------------------------------------------------------------------------
# Star instances and policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarInstance:
    """A single arrival's probing problem: items with weights, success
    probabilities, and one patience model."""

    weights: tuple[float, ...]
    probs: tuple[float, ...]
    patience: PatienceModel

    @staticmethod
    def make(weights, probs, patience: PatienceModel) -> "StarInstance":
        return StarInstance(tuple(float(w) for w in weights),
                            tuple(float(p) for p in probs), patience)

    @property
    def n(self) -> int:
        return len(self.weights)

    def with_items(self, indices) -> "StarInstance":
        indices = list(indices)
        return StarInstance(tuple(self.weights[i] for i in indices),
                            tuple(self.probs[i] for i in indices),
                            self.patience.subset(indices))

    def to_json_dict(self) -> dict:
        return {"kind": "star", "weights": list(self.weights),
                "probs": list(self.probs), "patience": self.patience.to_json_dict()}


@dataclass(frozen=True)
class Policy:
    """An ordered subset of item indices to probe, first to last."""

    order: tuple[int, ...]

    @staticmethod
    def of(*indices) -> "Policy":
        return Policy(tuple(int(i) for i in indices))

    def __len__(self):
        return len(self.order)


EMPTY_POLICY = Policy(())


@dataclass(frozen=True)
class PolicyMixture:
    """Per online type, a distribution (in expectation) over probing policies.

    ``per_type[v]`` lists ``(policy, mass)`` pairs; the masses for type ``v``
    must be nonnegative and sum to ``q_v`` within ``MASS_TOL``.
    """

    per_type: tuple[tuple[tuple[Policy, float], ...], ...]
    q_v: tuple[float, ...]


# ---------------------------------------------------------------------------
# Arrival models and matching instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ArrivalModel:
    """How online vertices arrive.

    * ``adversarial``: a fixed order over the online vertices.
    * ``prophet``: at step ``t`` a type ``v`` arrives with probability
      ``q_tv[t, v]``; row sums may be below 1, the slack being a "no
      arrival" step.
    * ``iid``: the prophet special case with ``q_tv[t, v] = q_v / T``.
    """

    kind: str
    order: tuple[int, ...] | None = None
    q_tv: np.ndarray | None = None
    q_v: tuple[float, ...] | None = None
    horizon: int | None = None

    @staticmethod
    def adversarial(order) -> "ArrivalModel":
        return ArrivalModel(kind=ADVERSARIAL, order=tuple(int(i) for i in order))

    @staticmethod
    def prophet(q_tv) -> "ArrivalModel":
        m = np.array(q_tv, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"q_tv must be a steps-by-types matrix, got {m.ndim}-D")
        m.flags.writeable = False
        return ArrivalModel(kind=PROPHET, q_tv=m, horizon=m.shape[0])

    @staticmethod
    def iid(q_v, horizon: int) -> "ArrivalModel":
        return ArrivalModel(kind=IID, q_v=tuple(float(v) for v in q_v),
                            horizon=int(horizon))

    @property
    def n_steps(self) -> int:
        if self.kind == ADVERSARIAL:
            return len(self.order)
        return self.horizon

    def step_probs(self, t: int) -> np.ndarray:
        """Arrival-type probabilities at step ``t`` (0-based)."""
        if self.kind == PROPHET:
            return self.q_tv[t]
        if self.kind == IID:
            return np.asarray(self.q_v) / self.horizon
        raise StochmatchError("adversarial arrivals are not probabilistic")

    def expected_arrivals(self, n_types: int) -> np.ndarray:
        """Expected number of arrivals per type over the whole horizon
        (prophet and IID arrivals only)."""
        if self.kind == IID:
            return np.asarray(self.q_v, dtype=float)
        return self.q_tv.sum(axis=0)

    def __eq__(self, other):
        if not isinstance(other, ArrivalModel):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == ADVERSARIAL:
            return self.order == other.order
        if self.kind == PROPHET:
            return np.array_equal(self.q_tv, other.q_tv)
        return self.q_v == other.q_v and self.horizon == other.horizon

    def to_json_dict(self) -> dict:
        if self.kind == ADVERSARIAL:
            return {"type": ADVERSARIAL, "order": list(self.order)}
        if self.kind == PROPHET:
            return {"type": PROPHET, "q_tv": self.q_tv.tolist()}
        return {"type": IID, "q_v": list(self.q_v), "T": self.horizon}

    @staticmethod
    def from_json_dict(d: dict) -> "ArrivalModel":
        kind = _require(d, "type", "arrivals")
        if kind == ADVERSARIAL:
            return ArrivalModel.adversarial(_require(d, "order", "arrivals"))
        if kind == PROPHET:
            return ArrivalModel.prophet(_require(d, "q_tv", "arrivals"))
        if kind == IID:
            return ArrivalModel.iid(_require(d, "q_v", "arrivals"),
                                    _require(d, "T", "arrivals"))
        raise InstanceFormatError(f"unknown arrival type {kind!r}")


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """Bipartite instance: ``m`` offline vertices against ``n`` online types.

    Exactly one of ``vertex_weights`` (weight depends on the offline vertex
    only) or ``edge_weights`` is set; ``weight(u, v)`` and
    ``weights_matrix()`` expand either form on demand.
    """

    probs: np.ndarray  # (m, n), edge existence probabilities
    patience: tuple[PatienceModel, ...]  # one per online type
    arrivals: ArrivalModel
    vertex_weights: tuple[float, ...] | None = None
    edge_weights: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @staticmethod
    def make(probs, patience, arrivals, vertex_weights=None, edge_weights=None,
             meta=None) -> "MatchingInstance":
        probs = np.array(probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError(f"probs must be an offline-by-types matrix, got {probs.ndim}-D")
        probs.flags.writeable = False
        if isinstance(patience, PatienceModel):
            patience = (patience,) * probs.shape[1]
        else:
            # equal models become one object, so per-model work runs once
            shared = {}
            patience = tuple(shared.setdefault(p, p) for p in patience)
        if (vertex_weights is None) == (edge_weights is None):
            raise ValueError("give exactly one of vertex_weights or edge_weights")
        if vertex_weights is not None:
            vertex_weights = tuple(float(w) for w in vertex_weights)
        if edge_weights is not None:
            edge_weights = np.array(edge_weights, dtype=float)
            edge_weights.flags.writeable = False
        return MatchingInstance(probs=probs, patience=patience, arrivals=arrivals,
                                vertex_weights=vertex_weights,
                                edge_weights=edge_weights, meta=dict(meta or {}))

    @property
    def m(self) -> int:
        return self.probs.shape[0]

    @property
    def n_types(self) -> int:
        return self.probs.shape[1]

    def weight(self, u: int, v: int) -> float:
        if self.vertex_weights is not None:
            return self.vertex_weights[u]
        return float(self.edge_weights[u, v])

    def weights_matrix(self) -> np.ndarray:
        if self.vertex_weights is not None:
            return np.tile(np.asarray(self.vertex_weights)[:, None], (1, self.n_types))
        return np.asarray(self.edge_weights)

    def __eq__(self, other):
        if not isinstance(other, MatchingInstance):
            return NotImplemented
        return (np.array_equal(self.probs, other.probs)
                and self.patience == other.patience
                and self.arrivals == other.arrivals
                and self.vertex_weights == other.vertex_weights
                and ((self.edge_weights is None) == (other.edge_weights is None))
                and (self.edge_weights is None
                     or np.array_equal(self.edge_weights, other.edge_weights))
                and self.meta == other.meta)

    def to_json_dict(self) -> dict:
        d = {"kind": "matching", "probs": self.probs.tolist()}
        if self.vertex_weights is not None:
            d["weights"] = list(self.vertex_weights)
        else:
            d["edge_weights"] = self.edge_weights.tolist()
        d["patience"] = [p.to_json_dict() for p in self.patience]
        d["arrivals"] = self.arrivals.to_json_dict()
        if self.meta:
            d["meta"] = self.meta
        return d


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


def _check_finite(values, what: str, out: list[str], label: str = "") -> None:
    # a NaN makes every comparison false, so the range checks let it through
    if not np.isfinite(np.asarray(values, dtype=float)).all():
        out.append(f"{label}non-finite {what}")


def _check_patience(p: PatienceModel, items: int, out: list[str], label: str = "") -> None:
    """Report what is wrong with patience ``p`` over ``items`` items."""
    if p.kind == DETERMINISTIC:
        if p.theta is None or p.theta < 0:
            out.append(f"{label}deterministic patience must be >= 0, got {p.theta}")
    elif p.kind == SURVIVAL:
        q = p.q or ()
        if len(q) == 0:
            out.append(f"{label}survival curve is empty")
            return
        _check_finite(q, "survival value", out, label)
        if abs(q[0] - 1.0) > ABS_TOL:
            out.append(f"{label}survival curve must start at q_1 = 1, got {q[0]}")
        for i in range(1, len(q)):
            if q[i] > q[i - 1] + ABS_TOL:
                out.append(f"{label}q not non-increasing at index {i + 1}")
        if q[-1] < -ABS_TOL:
            out.append(f"{label}survival values must be nonnegative")
    elif p.kind == HAZARD:
        rates = p.r if p.r is not None else (p.rate,)
        for i, r in enumerate(rates):
            if not (0.0 - ABS_TOL <= r <= 1.0 + ABS_TOL):
                out.append(f"{label}hazard rate out of range at index {i + 1}: {r}")
        if p.r is not None and len(p.r) != items:
            out.append(f"{label}per-item hazard rates do not match item count")
    else:
        out.append(f"{label}unknown patience kind {p.kind!r}")


def validate(instance) -> ValidationReport:
    """Report-style invariant check; never raises on bad data."""
    out: list[str] = []
    if isinstance(instance, StarInstance):
        if len(instance.weights) != len(instance.probs):
            out.append("weights and probs have different lengths")
        _check_finite(instance.probs, "probability", out)
        _check_finite(instance.weights, "weight", out)
        for i, p in enumerate(instance.probs):
            if not (0.0 - ABS_TOL <= p <= 1.0 + ABS_TOL):
                out.append(f"probability out of range at item {i + 1}: {p}")
        for i, w in enumerate(instance.weights):
            if w < -ABS_TOL:
                out.append(f"negative weight at item {i + 1}: {w}")
        _check_patience(instance.patience, instance.n, out)
    elif isinstance(instance, MatchingInstance):
        m, n = instance.probs.shape
        if instance.edge_weights is not None and instance.edge_weights.shape != (m, n):
            out.append("edge_weights shape does not match probs")
        if instance.vertex_weights is not None and len(instance.vertex_weights) != m:
            out.append("vertex_weights length does not match offline count")
        wmat = instance.weights_matrix()
        _check_finite(instance.probs, "probability", out)
        _check_finite(wmat, "weight", out)
        bad = np.argwhere((instance.probs < -ABS_TOL) | (instance.probs > 1 + ABS_TOL))
        for u, v in bad:
            out.append(f"probability out of range at edge ({u + 1},{v + 1})")
        if np.any(wmat < -ABS_TOL):
            out.append("negative edge weight")
        if len(instance.patience) != n:
            out.append("patience list length does not match online type count")
        for v, p in enumerate(instance.patience):
            _check_patience(p, m, out, label=f"type {v + 1}: ")
        arr = instance.arrivals
        if arr.kind == ADVERSARIAL:
            if sorted(arr.order) != list(range(n)):
                out.append("adversarial order is not a permutation of the online vertices")
        elif arr.kind == PROPHET:
            _check_finite(arr.q_tv, "arrival probability", out)
            if arr.q_tv.shape[1] != n:
                out.append("q_tv column count does not match online type count")
            if np.any(arr.q_tv < -ABS_TOL):
                out.append("negative arrival probability")
            rows = arr.q_tv.sum(axis=1)
            for t in np.nonzero(rows > 1 + MASS_TOL)[0]:
                out.append(f"arrival probabilities at step {t + 1} sum to {rows[t]} > 1")
        elif arr.kind == IID:
            if len(arr.q_v) != n:
                out.append("q_v length does not match online type count")
            _check_finite(arr.q_v, "arrival rate", out)
            if any(q < -ABS_TOL for q in arr.q_v):
                out.append("negative arrival rate")
            if sum(arr.q_v) > arr.horizon * (1 + MASS_TOL):
                out.append("per-step arrival probability exceeds 1")
        else:
            out.append(f"unknown arrival kind {arr.kind!r}")
    elif isinstance(instance, PolicyMixture):
        for v, entries in enumerate(instance.per_type):
            total = 0.0
            for pol, mass in entries:
                if mass < -ABS_TOL:
                    out.append(f"type {v + 1}: negative policy mass")
                total += mass
            if abs(total - instance.q_v[v]) > MASS_TOL:
                out.append(f"type {v + 1}: policy masses sum to {total}, expected {instance.q_v[v]}")
    else:
        out.append(f"cannot validate object of type {type(instance).__name__}")
    return ValidationReport(ok=not out, violations=out)


def check_policy(policy: Policy, n: int) -> None:
    """Raise unless ``policy`` probes distinct, in-range items."""
    seen = set()
    for i in policy.order:
        if not 0 <= i < n:
            raise StochmatchError(f"policy index {i} out of range for {n} items")
        if i in seen:
            raise StochmatchError(f"policy probes item {i} twice")
        seen.add(i)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _require(d: dict, key: str, where: str):
    if key not in d:
        raise InstanceFormatError(f"missing key {key!r} in {where}")
    return d[key]


def instance_from_json_dict(d: dict):
    kind = _require(d, "kind", "instance")
    if kind == "star":
        star = StarInstance.make(_require(d, "weights", "star instance"),
                                 _require(d, "probs", "star instance"),
                                 PatienceModel.from_json_dict(_require(d, "patience", "star instance")))
        return star
    if kind == "matching":
        probs = _require(d, "probs", "matching instance")
        pat = _require(d, "patience", "matching instance")
        if isinstance(pat, dict):
            patience = PatienceModel.from_json_dict(pat)
        else:
            patience = tuple(PatienceModel.from_json_dict(p) for p in pat)
        arrivals = ArrivalModel.from_json_dict(_require(d, "arrivals", "matching instance"))
        vw = d.get("weights")
        ew = d.get("edge_weights")
        if (vw is None) and (ew is None):
            raise InstanceFormatError("missing key 'weights' or 'edge_weights' in matching instance")
        return MatchingInstance.make(probs, patience, arrivals,
                                     vertex_weights=vw, edge_weights=ew,
                                     meta=d.get("meta"))
    raise InstanceFormatError(f"unknown instance kind {kind!r}")


def loads_instance(text: str):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"not valid JSON: {e}") from e
    return instance_from_json_dict(d)


def load_instance(path):
    """Load a star or matching instance from a JSON file.  A file that
    cannot be read or decoded, or whose values have the wrong type or
    shape, raises ``InstanceFormatError`` like any other bad input."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            instance = loads_instance(f.read())
        report = validate(instance)
    except (OSError, ValueError, TypeError) as e:  # UnicodeDecodeError is a ValueError
        raise InstanceFormatError(f"cannot load {path}: {e}") from e
    if not report.ok:
        raise InstanceFormatError("invalid instance: " + "; ".join(report.violations))
    return instance


def save_instance(instance, path) -> None:
    """Write an instance to a JSON file; ``load_instance`` round-trips it."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(instance.to_json_dict(), f, indent=1)
        f.write("\n")

