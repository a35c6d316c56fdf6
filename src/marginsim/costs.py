"""Leasing economics: container fitting, violation clocks, day settlement.

Reclaimed capacity is leased out as fixed-size containers billed per minute.
Every simulated step the number of containers that fit under the current
headroom earns money; SLA violations accumulate a per-day violation clock
which, at settlement, refunds a fraction of the day's earnings according to
a tiered discount table (the longer the violations, the larger the refund).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from marginsim.errors import DomainError
from marginsim.traces import MINUTES_PER_DAY, HostSpec

# (lower_minutes_exclusive, upper_minutes_inclusive, refund_fraction); the
# first tier starts at zero inclusive, the last upper bound is infinite.
DEFAULT_DISCOUNT_TIERS = (
    (0.0, 15.0, 0.0),
    (15.0, 120.0, 0.10),
    (120.0, 720.0, 0.15),
    (720.0, math.inf, 0.30),
)


@dataclass(frozen=True)
class CostModel:
    """Container size, unit price, and the violation discount table."""

    container_cpu: float = 2.0
    container_ram_gb: float = 8.0
    price_per_hour: float = 0.0317
    discount_tiers: tuple[tuple[float, float, float], ...] = DEFAULT_DISCOUNT_TIERS

    @property
    def price_per_minute(self) -> float:
        return self.price_per_hour / 60.0

    def validate(self) -> None:
        if self.container_cpu <= 0 or self.container_ram_gb <= 0:
            raise DomainError("container dimensions must be positive")
        if self.price_per_hour < 0:
            raise DomainError("price_per_hour must be >= 0")
        tiers = self.discount_tiers
        if not tiers:
            raise DomainError("discount_tiers must be non-empty")
        if tiers[0][0] != 0.0:
            raise DomainError("first discount tier must start at 0 minutes")
        if not math.isinf(tiers[-1][1]):
            raise DomainError("last discount tier must have an infinite upper bound")
        prev_disc = -1.0
        for i, (lo, hi, disc) in enumerate(tiers):
            if hi <= lo:
                raise DomainError(f"tier {i}: upper bound {hi} must exceed lower bound {lo}")
            if i > 0 and lo != tiers[i - 1][1]:
                raise DomainError(f"tier {i}: lower bound {lo} leaves a gap or overlap")
            if not (0.0 <= disc <= 1.0):
                raise DomainError(f"tier {i}: discount {disc} must be in [0, 1]")
            if disc < prev_disc:
                raise DomainError(f"tier {i}: discounts must be non-decreasing")
            prev_disc = disc


def discount_for(model: CostModel, violation_minutes: float) -> float:
    """Refund fraction owed for a day with `violation_minutes` of violations."""
    if not (0 <= violation_minutes <= MINUTES_PER_DAY):
        raise DomainError(
            f"violation_minutes must be in [0, {MINUTES_PER_DAY}], got {violation_minutes}")
    for _, upper, disc in model.discount_tiers:
        if violation_minutes <= upper:
            return disc
    raise AssertionError("unreachable: last tier is unbounded")


def containers_fitting(model: CostModel, spec: HostSpec, headroom_cpu, headroom_ram):
    """Containers that fit in the given headroom fractions of `spec`.

    Headrooms are clamped to [0, 1], so degenerate inputs yield 0 rather
    than an error; the result is the binding minimum over both resources.
    Scalars give a numpy integer; arrays give an integer array of their
    broadcast shape, elementwise the same counts.  A NaN headroom raises
    `ValueError`, as `math.floor` does.
    """
    # Criterion 1's min(max(h, 0.0), 1.0); it keeps -0.0 where np.maximum gives
    # 0.0, but either floors to 0 containers.  NaN passes through to the check.
    h_cpu = np.minimum(np.maximum(headroom_cpu, 0.0), 1.0)
    h_ram = np.minimum(np.maximum(headroom_ram, 0.0), 1.0)
    fits = np.minimum(np.floor(h_cpu * spec.cpu_cores / model.container_cpu),
                      np.floor(h_ram * spec.ram_gb / model.container_ram_gb))
    if np.isnan(fits).any():
        raise ValueError("cannot convert float NaN to integer")
    return fits.astype(np.int64)


@dataclass(frozen=True)
class DaySettlement:
    potential_saving: float
    penalty: float
    net_saving: float


def settle_day(model: CostModel, per_step_containers: np.ndarray | list[int],
               violation_minutes: float, step_minutes: int) -> DaySettlement:
    """Close one host-day: earnings, refund for violations, and the net.

    `per_step_containers`, an array or a list of counts, must cover exactly
    one day on the `step_minutes` grid.  Earnings accumulate step by step in
    order as a `np.cumsum` of `nb * ppm * step_minutes`, which adds in order
    and so keeps the arithmetic reproducible against a straight-line
    recomputation.
    """
    steps_per_day = MINUTES_PER_DAY // step_minutes
    if MINUTES_PER_DAY % step_minutes != 0:
        raise DomainError(f"step_minutes {step_minutes} must divide {MINUTES_PER_DAY}")
    if len(per_step_containers) != steps_per_day:
        raise DomainError(
            f"expected {steps_per_day} per-step counts, got {len(per_step_containers)}")
    counts = np.asarray(per_step_containers)
    negative = counts < 0
    if negative.any():
        raise DomainError(f"negative container count {counts[np.argmax(negative)].item()}")
    # Summed from 0.0, as a loop does: a day of -0.0 terms (price -0.0) is 0.0.
    potential = 0.0 + np.cumsum(counts * model.price_per_minute * step_minutes)[-1].item()
    penalty = potential * discount_for(model, violation_minutes)
    return DaySettlement(potential, penalty, potential - penalty)


def accumulate_violation(violation_minutes: int, violated: bool, step_minutes: int) -> int:
    """Advance a day's violation clock by one step when `violated`."""
    if violation_minutes < 0 or violation_minutes > MINUTES_PER_DAY:
        raise DomainError(f"violation_minutes out of range: {violation_minutes}")
    if not violated:
        return violation_minutes
    advanced = violation_minutes + step_minutes
    if advanced > MINUTES_PER_DAY:
        raise DomainError(f"violation clock would exceed one day: {advanced}")
    return advanced


@dataclass
class DayLedger:
    """Settled figures for one host-day."""

    host_id: str
    day_index: int
    violation_minutes: int
    potential_saving: float
    penalty: float
    net_saving: float
