"""Cost model tests: tier table, fitting arithmetic, day settlement.

The settlement tests compare against a test-local straight-line walker that
recomputes a host-day from scratch (its own price arithmetic and its own
discount table scan), so an implementation bug cannot hide in both places.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from marginsim.costs import (
    DEFAULT_DISCOUNT_TIERS,
    CostModel,
    DayLedger,
    DaySettlement,
    accumulate_violation,
    containers_fitting,
    discount_for,
    settle_day,
)
from marginsim.errors import DomainError
from marginsim.traces import HostSpec

MODEL = CostModel()
SPEC = HostSpec("h0", 8, 256.0)


def walk_host_day(price_per_hour, per_step_containers, violated_flags, step_minutes):
    """Independent recomputation of one host-day, step by step."""
    ppm = price_per_hour / 60.0
    potential = 0.0
    minutes = 0
    for nb, violated in zip(per_step_containers, violated_flags):
        potential += nb * ppm * step_minutes
        if violated:
            minutes += step_minutes
    if minutes <= 15:
        discount = 0.0
    elif minutes <= 120:
        discount = 0.10
    elif minutes <= 720:
        discount = 0.15
    else:
        discount = 0.30
    penalty = potential * discount
    return minutes, potential, penalty, potential - penalty


class TestDiscountTiers:
    @pytest.mark.parametrize("minutes,expected", [
        (0, 0.0), (3, 0.0), (15, 0.0),
        (16, 0.10), (60, 0.10), (120, 0.10),
        (121, 0.15), (400, 0.15), (720, 0.15),
        (721, 0.30), (1000, 0.30), (1440, 0.30),
    ])
    def test_boundaries(self, minutes, expected):
        assert discount_for(MODEL, minutes) == expected

    @pytest.mark.parametrize("minutes", [-1, -0.5, 1441, 2000])
    def test_domain(self, minutes):
        with pytest.raises(DomainError):
            discount_for(MODEL, minutes)

    @given(st.floats(min_value=0, max_value=1440), st.floats(min_value=0, max_value=1440))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert discount_for(MODEL, lo) <= discount_for(MODEL, hi)

    def test_bad_tables_rejected(self):
        bad_tables = [
            (),  # empty
            ((5.0, 15.0, 0.0), (15.0, math.inf, 0.1)),  # first lower != 0
            ((0.0, 15.0, 0.0), (20.0, math.inf, 0.1)),  # gap
            ((0.0, 15.0, 0.0), (10.0, math.inf, 0.1)),  # overlap
            ((0.0, 15.0, 0.2), (15.0, math.inf, 0.1)),  # decreasing discount
            ((0.0, 15.0, 0.0), (15.0, 100.0, 0.1)),  # bounded last tier
            ((0.0, 15.0, 0.0), (15.0, math.inf, 1.5)),  # discount > 1
        ]
        for tiers in bad_tables:
            with pytest.raises(DomainError):
                CostModel(discount_tiers=tiers).validate()

    def test_default_table_valid(self):
        MODEL.validate()
        assert MODEL.discount_tiers == DEFAULT_DISCOUNT_TIERS


class TestContainersFitting:
    def test_worked_example(self):
        # 8 cores at full headroom take 4 two-core containers; RAM would
        # allow 8, so CPU binds.
        assert containers_fitting(MODEL, SPEC, 1.0, 0.25) == 4

    def test_ram_binds(self):
        assert containers_fitting(MODEL, SPEC, 1.0, 0.03125) == 1

    def test_zero_headroom(self):
        assert containers_fitting(MODEL, SPEC, 0.0, 1.0) == 0
        assert containers_fitting(MODEL, SPEC, 1.0, 0.0) == 0

    def test_degenerate_inputs_clamp(self):
        assert containers_fitting(MODEL, SPEC, -0.5, -1.0) == 0
        assert containers_fitting(MODEL, SPEC, 2.0, 2.0) == containers_fitting(
            MODEL, SPEC, 1.0, 1.0)

    @given(st.floats(allow_nan=False, min_value=-2, max_value=2),
           st.floats(allow_nan=False, min_value=-2, max_value=2))
    def test_never_negative(self, h_cpu, h_ram):
        assert containers_fitting(MODEL, SPEC, h_cpu, h_ram) >= 0

    @staticmethod
    def reference(h_cpu, h_ram):
        """Criterion 1's straight-line expression."""
        head_cpu = min(max(h_cpu, 0.0), 1.0)
        head_ram = min(max(h_ram, 0.0), 1.0)
        return min(math.floor(head_cpu * SPEC.cpu_cores / MODEL.container_cpu),
                   math.floor(head_ram * SPEC.ram_gb / MODEL.container_ram_gb))

    def test_matches_reference_clamp_at_the_edges(self):
        edges = (-0.0, 0.0, 1.0, 0.5, 0.999999, 1.0000001, 1.3, 3.0, math.inf,
                 -1e-300, -0.25, -math.inf)
        for h_cpu in edges:
            for h_ram in edges:
                assert (containers_fitting(MODEL, SPEC, h_cpu, h_ram)
                        == self.reference(h_cpu, h_ram)), (h_cpu, h_ram)

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_matches_reference_clamp_anywhere(self, h_cpu, h_ram):
        assert containers_fitting(MODEL, SPEC, h_cpu, h_ram) == self.reference(h_cpu, h_ram)

    @pytest.mark.parametrize("h_cpu,h_ram", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_headroom_raises_like_reference(self, h_cpu, h_ram):
        with pytest.raises(ValueError):
            self.reference(h_cpu, h_ram)
        with pytest.raises(ValueError):
            containers_fitting(MODEL, SPEC, h_cpu, h_ram)

    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                    min_size=1, max_size=50))
    @example([(-0.0, 1.0), (math.inf, -math.inf), (1.0, -0.0), (0.0, 0.0), (1.5, 0.25)])
    def test_arrays_match_the_reference_elementwise(self, pairs):
        h_cpu, h_ram = (np.array(column) for column in zip(*pairs))
        got = containers_fitting(MODEL, SPEC, h_cpu, h_ram)
        assert got.shape == h_cpu.shape
        assert got.tolist() == [self.reference(c, r) for c, r in pairs]

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30),
           st.data())
    def test_nan_anywhere_in_an_array_raises(self, values, data):
        where = data.draw(st.integers(0, len(values) - 1))
        metric = data.draw(st.sampled_from(("cpu", "ram")))
        with_nan = np.array(values)
        with_nan[where] = math.nan
        clean = np.full(len(values), 0.5)
        args = (with_nan, clean) if metric == "cpu" else (clean, with_nan)
        with pytest.raises(ValueError):
            containers_fitting(MODEL, SPEC, *args)


class TestSettleDay:
    def test_full_day_ten_containers(self):
        # 10 containers for all 480 three-minute steps of a day:
        # 10 * 0.0317 $/h * 24 h = 7.608 $.
        settled = settle_day(MODEL, [10] * 480, 0, 3)
        assert settled.potential_saving == pytest.approx(7.608, rel=1e-12)
        assert settled.penalty == 0.0
        assert settled.net_saving == settled.potential_saving

    def test_penalty_tier_three(self):
        # 200 violation minutes lands in the 15% tier: 7.608 * 0.15 = 1.1412.
        settled = settle_day(MODEL, [10] * 480, 200, 3)
        assert settled.penalty == pytest.approx(1.1412, rel=1e-12)
        assert settled.net_saving == pytest.approx(6.4668, rel=1e-12)

    def test_zero_containers(self):
        settled = settle_day(MODEL, [0] * 480, 700, 3)
        assert settled == settle_day(MODEL, [0] * 480, 0, 3)
        assert settled.potential_saving == 0.0
        assert settled.penalty == 0.0

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            settle_day(MODEL, [1] * 479, 0, 3)

    def test_negative_count(self):
        counts = [1] * 477 + [-2, 1, -1]
        for given_counts in (counts, np.array(counts)):
            with pytest.raises(DomainError, match=r"^negative container count -2$"):
                settle_day(MODEL, given_counts, 0, 3)

    @staticmethod
    def loop_potential(model, counts, ts):
        # The per-step loop settle_day once ran: an in-order sum from 0.0.
        potential = 0.0
        for nb in counts:
            potential += nb * model.price_per_minute * ts
        return potential

    @given(ts=st.sampled_from([3, 15, 96, 1440]),
           price=st.floats(min_value=0.0, max_value=100.0) | st.just(-0.0),
           data=st.data())
    @example(ts=96, price=-0.0, data=None)
    def test_potential_equals_the_in_order_loop(self, ts, price, data):
        steps = 1440 // ts
        counts = (data.draw(st.lists(st.integers(min_value=0, max_value=10**6),
                                     min_size=steps, max_size=steps))
                  if data is not None else ([0, 3] * steps)[:steps])
        model = CostModel(price_per_hour=price)
        expect = self.loop_potential(model, counts, ts)
        for given_counts in (counts, np.array(counts, np.int64)):
            # repr tells -0.0 from 0.0 and a numpy scalar from a float.
            assert repr(settle_day(model, given_counts, 0, ts).potential_saving) == repr(expect)

    def test_matches_walker_bitwise(self):
        import random
        rng = random.Random(1234)
        for _ in range(200):
            ts = rng.choice([1, 3, 5, 15, 96])
            steps = 1440 // ts
            counts = [rng.randint(0, 40) for _ in range(steps)]
            flags = [rng.random() < rng.random() for _ in range(steps)]
            minutes = 0
            for flag in flags:
                minutes = accumulate_violation(minutes, flag, ts)
            settled = settle_day(MODEL, counts, minutes, ts)
            w_minutes, w_pot, w_pen, w_net = walk_host_day(0.0317, counts, flags, ts)
            assert minutes == w_minutes
            assert settled.potential_saving == w_pot
            assert settled.penalty == w_pen
            assert settled.net_saving == w_net

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=15, max_size=15),
           st.integers(min_value=0, max_value=15))
    def test_price_linearity(self, counts, violated_steps):
        # Doubling the price doubles every money figure exactly (binary scaling).
        ts = 96
        minutes = violated_steps * ts
        a = settle_day(MODEL, counts, minutes, ts)
        doubled = CostModel(price_per_hour=MODEL.price_per_hour * 2)
        b = settle_day(doubled, counts, minutes, ts)
        assert b.potential_saving == 2 * a.potential_saving
        assert b.penalty == 2 * a.penalty
        assert b.net_saving == 2 * a.net_saving

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=15, max_size=15),
           st.integers(min_value=0, max_value=15))
    def test_net_bounds(self, counts, violated_steps):
        settled = settle_day(MODEL, counts, violated_steps * 96, 96)
        assert 0.0 <= settled.net_saving <= settled.potential_saving
        assert settled.net_saving >= 0.7 * settled.potential_saving - 1e-15
        assert settled.net_saving == settled.potential_saving - settled.penalty


class TestViolationClock:
    def test_advance(self):
        assert accumulate_violation(0, True, 3) == 3
        assert accumulate_violation(117, True, 3) == 120

    def test_no_op(self):
        assert accumulate_violation(42, False, 3) == 42

    def test_saturates_at_full_day(self):
        minutes = 0
        for _ in range(480):
            minutes = accumulate_violation(minutes, True, 3)
        assert minutes == 1440
        with pytest.raises(DomainError):
            accumulate_violation(minutes, True, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            accumulate_violation(-3, True, 3)


class TestDayLedger:
    """A ledger re-settles: settle_day on the day's counts reproduces it."""

    @staticmethod
    def resettles(ledger, counts):
        return settle_day(MODEL, counts, ledger.violation_minutes, 3) == DaySettlement(
            ledger.potential_saving, ledger.penalty, ledger.net_saving)

    def test_validate_round_trip(self):
        counts = [3] * 480
        settled = settle_day(MODEL, counts, 30, 3)
        ledger = DayLedger("h0", 2, 30, settled.potential_saving, settled.penalty,
                           settled.net_saving)
        assert ledger.violation_minutes % 3 == 0
        assert self.resettles(ledger, counts)

    def test_validate_catches_tampering(self):
        counts = [3] * 480
        settled = settle_day(MODEL, counts, 30, 3)
        ledger = DayLedger("h0", 2, 30, settled.potential_saving, settled.penalty,
                           settled.net_saving + 1e-9)
        assert not self.resettles(ledger, counts)
