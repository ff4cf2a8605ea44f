"""Geographic relay model: forwarding region, reward scales and quantized
reward distributions.

A source at distance ``v0`` from the sink forwards through relays located in
the lens-shaped region where the communication disk (radius ``comm_radius``
around the source) overlaps the disk of nonnegative progress (distance to the
sink no larger than ``v0``).  Each location carries a reward that mixes
progress and minimum transmit power,

    reward = Z^a / (gamma_n0 * d^beta)^(1-a) * E^(1-a),   E ~ Exponential(1),

which on the common [0, 1] grid yields a family of distributions totally
ordered by first-order stochastic dominance.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

# Pure-arithmetic identities (pmf sums, CDF comparisons) hold to this slack.
ORDER_TOL = 1e-12

WAKEUP_LAWS = ("exponential", "deterministic")


class ConfigError(ValueError):
    """Raised for configurations that violate the model's invariants."""


class TotalOrderError(ValueError):
    """Raised when a distribution family is not totally stochastically ordered."""


@dataclass(frozen=True)
class ModelConfig:
    """Full parameterization of one relay-selection instance.

    Defaults reproduce the reference numerical setup: source-sink distance 10,
    unit communication radius, 20 grid locations, 100 reward bins, 5 relays,
    exponential wake-ups with mean 0.2.
    """

    v0: float = 10.0
    comm_radius: float = 1.0
    n_locations: int = 20
    n_reward_bins: int = 100
    gamma_n0: float = 1.0
    beta: float = 2.0
    a: float = 0.5
    n_relays: int = 5
    tau: float = 0.2
    eta: float = 1.0
    delta: float = 0.1
    wakeup_law: str = "exponential"
    tail_mass: float = 0.3

    def validate(self) -> "ModelConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if f.type == "float" and not (number and math.isfinite(value)):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "int" and not (number and isinstance(value, numbers.Integral)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if not (self.v0 > self.comm_radius > 0.0):
            raise ConfigError(
                f"need v0 > comm_radius > 0, got v0={self.v0}, comm_radius={self.comm_radius}"
            )
        if not (0.0 <= self.a <= 1.0):
            raise ConfigError(f"tradeoff weight a must lie in [0,1], got {self.a}")
        if self.beta < 0.0:
            raise ConfigError(f"path-loss exponent must be >= 0, got {self.beta}")
        if self.gamma_n0 <= 0.0:
            raise ConfigError(f"gamma_n0 must be positive, got {self.gamma_n0}")
        if self.n_relays < 1:
            raise ConfigError(f"need at least one relay, got {self.n_relays}")
        if self.tau <= 0.0:
            raise ConfigError(f"mean inter-wake-up time must be positive, got {self.tau}")
        if self.eta < 0.0:
            raise ConfigError(f"Lagrange multiplier eta must be >= 0, got {self.eta}")
        if self.delta < 0.0:
            raise ConfigError(f"probe cost delta must be >= 0, got {self.delta}")
        if self.n_locations < 1:
            raise ConfigError(f"need at least one location, got {self.n_locations}")
        if self.n_reward_bins < 2:
            raise ConfigError(f"need at least two reward bins, got {self.n_reward_bins}")
        if self.wakeup_law not in WAKEUP_LAWS:
            raise ConfigError(
                f"wakeup_law must be one of {WAKEUP_LAWS}, got {self.wakeup_law!r}"
            )
        if not (0.0 < self.tail_mass < 1.0):
            raise ConfigError(f"tail_mass must lie in (0,1), got {self.tail_mass}")
        return self

    def with_overrides(self, **kwargs) -> "ModelConfig":
        return replace(self, **kwargs).validate()

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        unknown = set(data) - set(cls.field_names())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            # bools stay bools, so that validate() rejects them
            numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.type in ("float", float) and numeric:
                try:
                    value = float(value)
                except OverflowError:
                    raise ConfigError(f"{f.name} is an integer past the float range") from None
            elif f.type in ("int", int) and isinstance(value, float):
                if not value.is_integer():
                    raise ConfigError(f"{f.name} must be an integer, got {value}")
                value = int(value)
            coerced[f.name] = value
        return cls(**coerced).validate()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LocationGrid:
    """Discretized forwarding region: per-point progress and source distance.

    The sampling law A is uniform over the points.
    """

    progress: np.ndarray  # Z_l = v0 - (distance from sink), >= 0
    distance: np.ndarray  # d_l = distance from source, in (0, comm_radius]
    xy: np.ndarray        # (n, 2) coordinates, source at origin, sink at (v0, 0)

    def __len__(self) -> int:
        return len(self.progress)

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(float(z), float(d)) for z, d in zip(self.progress, self.distance)]


@dataclass(frozen=True)
class RewardDistribution:
    """Quantized reward law of one location on the common [0, 1] grid."""

    location_index: int
    scale: float          # c_l in reward units (pre-normalization)
    pmf: np.ndarray
    cdf: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.pmf)


class OrderResult(Enum):
    FIRST_GE = "first>=st"
    SECOND_GE = "second>=st"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderedFamily:
    """Location-indexed reward distributions, totally stochastically ordered.

    ``order`` lists location indices from stochastically largest to smallest;
    ``minimal_index`` is the location whose distribution every other member
    dominates.
    """

    distributions: tuple[RewardDistribution, ...]
    order: np.ndarray          # permutation, descending dominance
    minimal_index: int
    r_max: float               # normalization constant mapping rewards to [0,1]
    pmf_matrix: np.ndarray = field(repr=False)   # (n_locations, n_bins)
    cdf_matrix: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.distributions)

    @property
    def n_bins(self) -> int:
        return self.pmf_matrix.shape[1]

    @property
    def rank(self) -> np.ndarray:
        """rank[l] = position of location l in the dominance order (0 = largest)."""
        r = np.empty(len(self.order), dtype=int)
        r[self.order] = np.arange(len(self.order))
        return r

    def dominates(self, first: int, second: int) -> bool:
        """True when distribution ``first`` >=st distribution ``second``."""
        return bool(
            np.all(self.cdf_matrix[first] <= self.cdf_matrix[second] + ORDER_TOL)
        )


def reward_grid(n_bins: int) -> np.ndarray:
    """The common grid of normalized reward values: n_bins equally spaced
    points spanning [0, 1]."""
    return np.linspace(0.0, 1.0, n_bins)


def build_forwarding_region(config: ModelConfig) -> LocationGrid:
    """Discretize the forwarding region into ``n_locations`` points.

    A regular grid of cell centers is laid over the bounding box
    [0, comm_radius] x [-comm_radius, comm_radius]; points inside the region
    (d <= comm_radius, progress >= 0, d > 0) are kept in row-major order
    (y ascending, then x ascending) and the first n_locations are taken,
    refining the grid when fewer qualify.  Deterministic for a fixed config.
    """
    config.validate()
    rc = config.comm_radius
    v0 = config.v0
    n = config.n_locations
    m = max(2, math.isqrt(2 * n) + 1)
    while m <= 4096:
        xs = (np.arange(m) + 0.5) * rc / m
        ys = -rc + (np.arange(m) + 0.5) * 2.0 * rc / m
        yy, xx = np.meshgrid(ys, xs, indexing="ij")  # rows over y, columns over x
        xx = xx.ravel()
        yy = yy.ravel()
        d = np.hypot(xx, yy)
        v = np.hypot(xx - v0, yy)
        keep = (d <= rc) & (d > 0.0) & (v0 - v >= 0.0)
        if int(keep.sum()) >= n:
            xx, yy, d, v = xx[keep], yy[keep], d[keep], v[keep]
            sel = slice(0, n)
            return LocationGrid(
                progress=(v0 - v)[sel].copy(),
                distance=d[sel].copy(),
                xy=np.column_stack([xx, yy])[sel].copy(),
            )
        m += 1
    raise ConfigError(
        f"forwarding region admits fewer than {n} grid points "
        f"(v0={v0}, comm_radius={rc})"
    )


def reward_scale(point: tuple[float, float], config: ModelConfig) -> float:
    """Deterministic factor c_l = Z^a / (gamma_n0 * d^beta)^(1-a) of the
    location's reward; the reward itself is c_l * E^(1-a) with E ~ Exp(1)."""
    z, d = point
    if d <= 0.0:
        raise ValueError(f"source-relay distance must be positive, got {d}")
    if z < 0.0:
        raise ValueError(f"progress must be nonnegative, got {z}")
    a = config.a
    return z**a / (config.gamma_n0 * d**config.beta) ** (1.0 - a)


def normalization_constant(scales: Sequence[float], config: ModelConfig) -> float:
    """Reward value mapped to the top of the [0, 1] grid.

    Chosen as the (1 - tail_mass) quantile of the reward at the best scale,
    c_max * (-ln tail_mass)^(1-a), so that truncation folds only tail_mass of
    the largest distribution into the top bin.
    """
    c_max = float(max(scales))
    if c_max <= 0.0:
        raise ConfigError("all reward scales are zero; region has no usable progress")
    return c_max * (-math.log(config.tail_mass)) ** (1.0 - config.a)


def _analytic_cdf(x: np.ndarray, scale: float, r_max: float, a: float) -> np.ndarray:
    """CDF of the normalized reward at grid coordinates x in [0, 1]."""
    with np.errstate(over="ignore"):
        out = 1.0 - np.exp(-np.power(x * r_max / scale, 1.0 / (1.0 - a)))
    return np.where(np.isinf(x), 1.0, out)


def quantize_distribution(
    point: tuple[float, float],
    config: ModelConfig,
    r_max: float,
    location_index: int = 0,
) -> RewardDistribution:
    """Quantize a location's reward law onto the common grid.

    Bin i receives the analytic CDF mass between the midpoints around grid
    value i (nearest-point rounding); everything above the top edge folds into
    the last bin, so the quantized variable is the reward capped at r_max.
    Shared bin edges across locations preserve stochastic dominance exactly.
    """
    z, d = point
    n_bins = config.n_reward_bins
    grid = reward_grid(n_bins)
    scale = reward_scale((z, d), config)

    if config.a == 1.0:
        # Power plays no role: reward is the deterministic progress Z.
        log.warning("a = 1: degenerate point-mass reward at location %d", location_index)
        pmf = np.zeros(n_bins)
        pos = min(n_bins - 1, int(round(np.clip(z / r_max, 0.0, 1.0) * (n_bins - 1))))
        pmf[pos] = 1.0
    elif scale == 0.0:
        log.warning(
            "zero-progress location %d: reward degenerate at 0", location_index
        )
        pmf = np.zeros(n_bins)
        pmf[0] = 1.0
    else:
        edges = np.empty(n_bins + 1)
        edges[0] = 0.0
        edges[1:n_bins] = 0.5 * (grid[:-1] + grid[1:])
        edges[n_bins] = np.inf
        cdf_at_edges = _analytic_cdf(edges, scale, r_max, config.a)
        pmf = np.diff(cdf_at_edges)

    return RewardDistribution(
        location_index=location_index,
        scale=scale,
        pmf=pmf,
        cdf=np.cumsum(pmf),
    )


def stochastic_order_cmp(
    first: RewardDistribution, second: RewardDistribution, tol: float = ORDER_TOL
) -> OrderResult:
    """Pointwise CDF comparison on the shared grid.

    F >=st G exactly when F's CDF lies below G's everywhere.
    """
    if first.n_bins != second.n_bins:
        raise ValueError("distributions must share the reward grid")
    first_ge = bool(np.all(first.cdf <= second.cdf + tol))
    second_ge = bool(np.all(second.cdf <= first.cdf + tol))
    if first_ge and second_ge:
        return OrderResult.EQUAL
    if first_ge:
        return OrderResult.FIRST_GE
    if second_ge:
        return OrderResult.SECOND_GE
    return OrderResult.INCOMPARABLE


def build_ordered_family(grid: LocationGrid, config: ModelConfig) -> OrderedFamily:
    """Quantize every location and verify total stochastic ordering.

    Raises TotalOrderError when some pair of quantized distributions has
    crossing CDFs; for reward laws of the c_l * E^(1-a) form this cannot
    happen and the order coincides with the order of the scales c_l.
    """
    scales = [reward_scale(p, config) for p in grid.points]
    r_max = normalization_constant(scales, config)
    dists = tuple(
        quantize_distribution(p, config, r_max, location_index=i)
        for i, p in enumerate(grid.points)
    )
    return order_family(dists, r_max)


def order_family(
    dists: Sequence[RewardDistribution], r_max: float = 1.0
) -> OrderedFamily:
    """Sort an arbitrary family by stochastic dominance (see build_ordered_family)."""
    cdf_matrix = np.vstack([d.cdf for d in dists])
    # Smaller total CDF mass == stochastically larger. Scales too close to
    # tell apart at this bin width quantize to the same pmf; those ties go
    # to the larger scale, then to the lower index, so the order stays the
    # order of the scales. By transitivity, adjacent pairs verify the order.
    scales = np.array([d.scale for d in dists], dtype=float)
    order = np.lexsort((-scales, cdf_matrix.sum(axis=1)))
    for i, j in zip(order[:-1], order[1:]):
        if stochastic_order_cmp(dists[i], dists[j]) is OrderResult.INCOMPARABLE:
            raise TotalOrderError(
                f"distributions {i} and {j} have crossing CDFs; "
                "the family is not totally stochastically ordered"
            )
    return OrderedFamily(
        distributions=tuple(dists),
        order=order,
        minimal_index=int(order[-1]),
        r_max=r_max,
        pmf_matrix=np.vstack([d.pmf for d in dists]),
        cdf_matrix=cdf_matrix,
    )


def family_to_json(grid: LocationGrid, family: OrderedFamily) -> dict:
    """JSON-friendly dump of the grid and quantized family for inspection."""
    return {
        "points": [[z, d] for z, d in grid.points],
        "scales": [d.scale for d in family.distributions],
        "r_max": family.r_max,
        "order": family.order.tolist(),
        "minimal_index": family.minimal_index,
        "pmf": family.pmf_matrix.tolist(),
    }
