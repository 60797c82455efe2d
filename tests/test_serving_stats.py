"""ServingStats: the nearest-rank percentile and the new fleet counters.

The percentile regression (satellite): ``int(round(...))`` uses
banker's rounding, which lands on the wrong sample at exact ``.5``
ranks — p50 of four samples came back as the *third* smallest instead
of the second.  The fix is the standard nearest-rank formula
(``ceil(fraction * n)``); the property test here pins it against an
independent reference over arbitrary float lists.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.stats import ServingStats, percentile

SAMPLES = st.lists(
    st.floats(
        min_value=-1e9,
        max_value=1e9,
        allow_nan=False,
        allow_infinity=False,
    ),
    max_size=200,
)
FRACTIONS = st.floats(min_value=0.0, max_value=1.0)


def reference_nearest_rank(values, fraction):
    """Independent nearest-rank: smallest sample with at least
    ``fraction`` of the data at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]


class TestPercentile:
    @settings(max_examples=200)
    @given(SAMPLES, FRACTIONS)
    def test_matches_reference(self, values, fraction):
        assert percentile(values, fraction) == reference_nearest_rank(
            values, fraction
        )

    @settings(max_examples=100)
    @given(
        st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=100,
        ),
        FRACTIONS,
    )
    def test_result_is_always_a_sample(self, values, fraction):
        assert percentile(values, fraction) in values

    @settings(max_examples=100)
    @given(SAMPLES, FRACTIONS, FRACTIONS)
    def test_monotone_in_fraction(self, values, f1, f2):
        low, high = min(f1, f2), max(f1, f2)
        assert percentile(values, low) <= percentile(values, high)

    def test_bankers_rounding_regression(self):
        # p50 of 4 samples is the 2nd smallest (rank ceil(0.5*4)=2).
        # int(round(0.5*4)) rounds half-to-even to 2 as an *index*,
        # i.e. the 3rd sample — the old formula's off-by-one.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([5.0], 0.75) == 5.0
        assert percentile([], 0.5) == 0.0

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0


class TestFleetCounters:
    def test_response_hit_ratio(self):
        stats = ServingStats()
        assert stats.response_hit_ratio() == 0.0
        stats.response_misses = 3
        stats.response_hits = 1
        assert stats.response_hit_ratio() == 0.25

    def test_summary_reports_fleet_counters(self):
        stats = ServingStats()
        stats.response_hits = 4
        stats.response_misses = 4
        stats.quota_rejections = 2
        summary = stats.summary()
        assert summary["response_hits"] == 4
        assert summary["response_misses"] == 4
        assert summary["response_hit_ratio"] == 0.5
        assert summary["quota_rejections"] == 2


class TestIdleFlushes:
    def test_idle_flushes_count_within_batches(self):
        stats = ServingStats()
        stats.record_batch(3)
        stats.record_batch(1, idle=True)
        stats.record_batch(2, idle=True)
        assert (stats.batches, stats.batched_rows) == (3, 6)
        assert stats.idle_flushes == 2
        summary = stats.summary()
        assert summary["idle_flushes"] == 2
        assert summary["batches"] == 3
