"""Geographic relay model: forwarding region, reward scales and the family of
quantized reward distributions.

A source at distance ``v0`` from the sink forwards through relays located in
the lens-shaped region where the communication disk (radius ``comm_radius``
around the source) overlaps the disk of nonnegative progress (distance to the
sink no larger than ``v0``).  Each location carries a reward that mixes
progress and minimum transmit power,

    reward = Z^a / (gamma_n0 * d^beta)^(1-a) * E^(1-a),   E ~ Exponential(1),

which on the common [0, 1] grid yields a family of distributions totally
ordered by first-order stochastic dominance.  The family is one set of arrays
(``OrderedFamily``): the scales, the (n_locations, n_bins) pmf and CDF
matrices, one row per location, and the dominance order.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

log = logging.getLogger(__name__)

# Pure-arithmetic identities (pmf sums, CDF comparisons) hold to this slack.
ORDER_TOL = 1e-12

WAKEUP_LAWS = ("exponential", "deterministic")


class ConfigError(ValueError):
    """Raised for configurations that violate the model's invariants."""


class TotalOrderError(ValueError):
    """Raised when a distribution family is not totally stochastically ordered."""


def finite_number(value, name: str) -> float:
    """``value`` as a float: a real that is not a bool and is finite once
    converted, so an integer past the float range fails too.  Otherwise
    ConfigError naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{name} must be a finite number, got an integer past "
                              "the float range") from None
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


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
            if f.type == "float":
                finite_number(value, f.name)
            elif f.type == "int" and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Integral)):
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
            if f.type == "float":
                value = finite_number(value, f.name)
            elif f.type == "int" and isinstance(value, float):
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
class OrderedFamily:
    """The locations' reward laws as arrays, totally stochastically ordered.

    Row l of ``pmf_matrix`` and ``cdf_matrix`` is the quantized reward law of
    location l on the common grid and ``scales[l]`` its scale c_l; ``order``
    lists the locations from stochastically largest to smallest.
    """

    scales: np.ndarray                          # c_l in reward units (pre-normalization)
    pmf_matrix: np.ndarray = field(repr=False)  # (n_locations, n_bins)
    cdf_matrix: np.ndarray = field(repr=False)
    order: np.ndarray                           # permutation, descending dominance
    r_max: float                                # normalization mapping rewards to [0,1]

    def __len__(self) -> int:
        return len(self.order)

    @property
    def n_bins(self) -> int:
        return self.pmf_matrix.shape[1]

    @property
    def rank(self) -> np.ndarray:
        """rank[l] = position of location l in the dominance order (0 = largest)."""
        r = np.empty(len(self.order), dtype=int)
        r[self.order] = np.arange(len(self.order))
        return r

    @property
    def minimal_index(self) -> int:
        """The location whose law every other member dominates."""
        return int(self.order[-1])


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


def normalization_constant(scales: np.ndarray, config: ModelConfig) -> float:
    """Reward value mapped to the top of the [0, 1] grid.

    Chosen as the (1 - tail_mass) quantile of the reward at the best scale,
    c_max * (-ln tail_mass)^(1-a), so that truncation folds only tail_mass of
    the largest distribution into the top bin.
    """
    c_max = float(np.max(scales))
    if c_max <= 0.0:
        raise ConfigError("all reward scales are zero; region has no usable progress")
    return c_max * (-math.log(config.tail_mass)) ** (1.0 - config.a)


def quantize_family(
    grid: LocationGrid, scales: np.ndarray, r_max: float, config: ModelConfig
) -> np.ndarray:
    """Quantize every location's reward law onto the common grid: the
    (n_locations, n_bins) pmf.

    Bin i receives the analytic CDF mass between the midpoints around grid
    value i (nearest-point rounding); everything above the top edge folds into
    the last bin, so the quantized variable is the reward capped at r_max.
    Shared bin edges across locations preserve stochastic dominance exactly.
    With a = 1 the reward is the deterministic progress Z, and a location of
    scale 0 has reward 0: both are point masses.
    """
    n_bins = config.n_reward_bins
    a = config.a
    pmf = np.zeros((len(grid), n_bins))
    if a == 1.0:
        log.warning("a = 1: degenerate point-mass rewards at all %d locations", len(grid))
        pos = np.rint(np.clip(grid.progress / r_max, 0.0, 1.0) * (n_bins - 1))
        pmf[np.arange(len(grid)), pos.astype(np.intp)] = 1.0
        return pmf
    zero = scales == 0.0
    if zero.any():
        log.warning("%d of %d locations have zero progress (first: %d): reward "
                    "degenerate at 0", np.count_nonzero(zero), len(grid), np.argmax(zero))
        pmf[zero, 0] = 1.0
    grid_values = reward_grid(n_bins)
    edges = np.empty(n_bins + 1)
    edges[0] = 0.0
    edges[1:n_bins] = 0.5 * (grid_values[:-1] + grid_values[1:])
    edges[n_bins] = np.inf
    with np.errstate(over="ignore"):
        x = edges * r_max / scales[~zero, None]
        cdf_at_edges = 1.0 - np.exp(-np.power(x, 1.0 / (1.0 - a)))
    cdf_at_edges[:, n_bins] = 1.0
    pmf[~zero] = np.diff(cdf_at_edges, axis=1)
    return pmf


def build_ordered_family(grid: LocationGrid, config: ModelConfig) -> OrderedFamily:
    """Quantize every location and verify total stochastic ordering.

    Raises TotalOrderError when some pair of quantized distributions has
    crossing CDFs; for reward laws of the c_l * E^(1-a) form this cannot
    happen and the order coincides with the order of the scales c_l.
    """
    # one location at a time in Python floats: numpy's vectorised power can
    # differ from the scalar one in the last ulp
    scales = np.array([reward_scale(p, config) for p in grid.points], dtype=float)
    r_max = normalization_constant(scales, config)
    return order_family(quantize_family(grid, scales, r_max, config), scales, r_max)


def order_family(pmf: np.ndarray, scales: np.ndarray, r_max: float = 1.0) -> OrderedFamily:
    """Sort a family of pmfs on one grid by stochastic dominance (see
    build_ordered_family)."""
    pmf = np.asarray(pmf, dtype=float)
    scales = np.asarray(scales, dtype=float)
    cdf = np.cumsum(pmf, axis=1)
    # Smaller total CDF mass == stochastically larger. Scales too close to
    # tell apart at this bin width quantize to the same pmf; those ties go
    # to the larger scale, then to the lower index, so the order stays the
    # order of the scales. By transitivity, adjacent pairs verify the order.
    order = np.lexsort((-scales, cdf.sum(axis=1)))
    ranked = cdf[order]
    upper, lower = ranked[:-1], ranked[1:]
    comparable = (np.all(upper <= lower + ORDER_TOL, axis=1)
                  | np.all(lower <= upper + ORDER_TOL, axis=1))
    if not comparable.all():
        p = int(np.argmin(comparable))
        raise TotalOrderError(
            f"distributions {order[p]} and {order[p + 1]} have crossing CDFs; "
            "the family is not totally stochastically ordered"
        )
    return OrderedFamily(scales=scales, pmf_matrix=pmf, cdf_matrix=cdf, order=order,
                         r_max=r_max)


def family_to_json(grid: LocationGrid, family: OrderedFamily) -> dict:
    """JSON-friendly dump of the grid and quantized family for inspection."""
    return {
        "points": [[z, d] for z, d in grid.points],
        "scales": family.scales.tolist(),
        "r_max": family.r_max,
        "order": family.order.tolist(),
        "minimal_index": family.minimal_index,
        "pmf": family.pmf_matrix.tolist(),
    }
