"""Trace-driven simulation of safety-margin strategies for reclaimed capacity.

A datacenter trace (per-host usage and predicted usage, for CPU and RAM)
is replayed step by step.  At every step a margin strategy decides how much
headroom to keep above the predicted usage; the remaining capacity is leased
out as containers.  Underestimating usage causes SLA violations, which are
billed back as a penalty against the day's earnings.  The package ships a
few hand-written strategies plus a small actor-critic agent that learns the
margin from the prediction-error history.
"""

from marginsim.agent import DdpgAgent, DdpgConfig, OuProcess, ReplayBuffer
from marginsim.costs import CostModel, DayLedger, containers_fitting, discount_for, settle_day
from marginsim.engine import SimulationConfig, compare_strategies, run, train_test_split
from marginsim.strategies import (
    ErrorFeedbackMargin,
    FixedMargin,
    LearnedMargin,
    MarginStrategy,
    RandomMargin,
    UsageStddevMargin,
)
from marginsim.traces import (
    Datacenter,
    HostSpec,
    HostTrace,
    MetricKind,
    SyntheticConfig,
    error_cdf,
    generate_synthetic,
    load_traces,
    write_traces,
)

__version__ = "0.1.0"
