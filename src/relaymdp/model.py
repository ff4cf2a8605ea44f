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
from functools import cached_property

import numpy as np

from ._kernels import excess_bound

log = logging.getLogger(__name__)

# Pure-arithmetic identities (pmf sums, CDF comparisons) hold to this slack.
ORDER_TOL = 1e-12

WAKEUP_LAWS = ("exponential", "deterministic")

# entries a solve or a simulation may allocate; check_budget reads it at each call
DEFAULT_STATE_BUDGET = 50_000_000


class ConfigError(ValueError):
    """Raised for configurations that violate the model's invariants."""


class TotalOrderError(ValueError):
    """Raised when a distribution family is not totally stochastically ordered."""


class BudgetExceededError(ConfigError):
    """Sizes past the state budget: ``projected`` entries against ``budget``."""


def _shown(value) -> str:
    """``value``'s repr, or an integer past Python's digit limit for one by its size."""
    try:
        return repr(value)
    except ValueError:
        return f"<an integer of {value.bit_length()} bits>"


def check_budget(entries: int, what: str) -> None:
    """BudgetExceededError naming ``what`` if its ``entries`` exceed DEFAULT_STATE_BUDGET."""
    if entries > DEFAULT_STATE_BUDGET:
        err = BudgetExceededError(f"{what} = {_shown(entries)} memo entries, over the state "
                                  f"budget of {DEFAULT_STATE_BUDGET}")
        err.projected, err.budget = entries, DEFAULT_STATE_BUDGET
        raise err


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


def whole_number(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int: an integer that is not a bool, with low <= value
    and, when ``high`` is given, value < high.  Otherwise ConfigError naming
    ``name`` and its range."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value and (high is None or value < high)):
        return int(value)
    wanted = f">= {low}" if high is None else f"in {low} .. {high - 1}"
    raise ConfigError(f"{name} must be an integer {wanted}, got {_shown(value)}")


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
    # the lowest value of each integer field (a plain class attribute)
    _LOWEST = {"n_locations": 1, "n_reward_bins": 2, "n_relays": 1}

    def validate(self) -> "ModelConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                finite_number(value, f.name)
            elif f.type == "int":
                whole_number(value, f.name, self._LOWEST[f.name])
        # the restricted class's values, which every reader holds at least,
        # in Python ints, which cannot wrap as a numpy integer field would;
        # a solve counts what it stores besides
        n, bins, types = int(self.n_relays), int(self.n_reward_bins), int(self.n_locations)
        check_budget((bins + 1) * n * (types + 1),
                     "(n_reward_bins + 1) * n_relays * (n_locations + 1)")
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
        if self.tau <= 0.0:
            raise ConfigError(f"mean inter-wake-up time must be positive, got {self.tau}")
        if self.eta < 0.0:
            raise ConfigError(f"Lagrange multiplier eta must be >= 0, got {self.eta}")
        if self.delta < 0.0:
            raise ConfigError(f"probe cost delta must be >= 0, got {self.delta}")
        if self.wakeup_law not in WAKEUP_LAWS:
            raise ConfigError(
                f"wakeup_law must be one of {WAKEUP_LAWS}, got {self.wakeup_law!r}"
            )
        if not (0.0 < self.tail_mass < 1.0):
            raise ConfigError(f"tail_mass must lie in (0,1), got {self.tail_mass}")
        return self

    def with_overrides(self, **kwargs) -> "ModelConfig":
        return replace(self, **kwargs).validate()

    def lagrangian(self, waiting, reward, probes):
        """The Lagrangian cost W - eta R + eta delta M and the effective
        reward R - delta M of a waiting time, reward and probe count (floats
        or arrays)."""
        return (waiting - self.eta * reward + self.eta * self.delta * probes,
                reward - self.delta * probes)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if f.type == "float":
                value = finite_number(value, f.name)
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

    @cached_property
    def excess_bound(self) -> np.ndarray:
        """An upper bound on E[(X_l - r_b)^+] at every real bin b, bins
        leading (``_kernels.excess_bound``), built on first use: every solve
        on the family reads it for its dead bins."""
        bound = excess_bound(self.pmf_matrix, reward_grid(self.n_bins))
        bound.flags.writeable = False  # shared by every caller
        return bound

    @cached_property
    def laws_by_bin(self) -> tuple[np.ndarray, np.ndarray]:
        """The pmf and cdf matrices transposed, (n_bins, n_locations, 1) and
        row-major, built on first use: the probe kernel's running sums add
        whole (type, set) planes bin by bin."""
        laws = tuple(np.ascontiguousarray(law.T)[:, :, None]
                     for law in (self.pmf_matrix, self.cdf_matrix))
        for law in laws:
            law.flags.writeable = False  # shared by every caller
        return laws

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

    A regular m x m grid of cell centers, m = isqrt(2 * n_locations) + 1, is
    laid over the bounding box [0, comm_radius] x [-comm_radius, comm_radius];
    points inside the region (d <= comm_radius, progress >= 0, d > 0) are kept
    in row-major order (y ascending, then x ascending) and the first
    n_locations are taken.  The region covers at least 61% of the box (the
    lens at v0 = comm_radius), so the 2 * n_locations or more cells hold
    enough points.  The grid's arrays, about 8 m^2 floats, are charged to the
    state budget first.  Deterministic for a fixed config.
    """
    config.validate()
    rc = config.comm_radius
    v0 = config.v0
    n = config.n_locations
    m = max(2, math.isqrt(2 * n) + 1)
    check_budget(8 * m * m, f"the region grid, 8 floats x its {m} x {m} cells")
    xs = (np.arange(m) + 0.5) * rc / m
    ys = -rc + (np.arange(m) + 0.5) * 2.0 * rc / m
    yy, xx = np.meshgrid(ys, xs, indexing="ij")  # rows over y, columns over x
    xx = xx.ravel()
    yy = yy.ravel()
    d = np.hypot(xx, yy)
    v = np.hypot(xx - v0, yy)
    keep = (d <= rc) & (d > 0.0) & (v0 - v >= 0.0)
    found = int(keep.sum())
    if found < n:
        raise ConfigError(f"forwarding region admits {found} of the {n} grid points wanted "
                          f"(v0={v0}, comm_radius={rc}, m={m})")
    xx, yy, d, v = xx[keep], yy[keep], d[keep], v[keep]
    sel = slice(0, n)
    return LocationGrid(
        progress=(v0 - v)[sel].copy(),
        distance=d[sel].copy(),
        xy=np.column_stack([xx, yy])[sel].copy(),
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
        "scales": family.scales,
        "r_max": family.r_max,
        "order": family.order,
        "minimal_index": family.minimal_index,
        "pmf": family.pmf_matrix,
    }
