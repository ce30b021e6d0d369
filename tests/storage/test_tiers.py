"""Tests for storage tiers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.tiers import MEMORY, SSD, StorageTier


def test_read_time_zero_bytes_is_free():
    assert SSD.read_time(0) == 0.0


def test_read_time_includes_latency_and_bandwidth():
    tier = StorageTier("t", bandwidth_bytes_per_s=100.0, latency_s=1.0)
    assert tier.read_time(200) == pytest.approx(3.0)


def test_read_time_negative_bytes_raises():
    with pytest.raises(ValueError):
        SSD.read_time(-1)


def test_invalid_tier_parameters():
    with pytest.raises(ValueError):
        StorageTier("bad", bandwidth_bytes_per_s=0)
    with pytest.raises(ValueError):
        StorageTier("bad", bandwidth_bytes_per_s=1.0, latency_s=-1)


def test_builtin_tier_ordering():
    """Faster tiers read the same payload faster."""
    payload = 1_000_000
    assert MEMORY.read_time(payload) < SSD.read_time(payload)


@settings(max_examples=30, deadline=None)
@given(a=st.integers(0, 10**9), b=st.integers(0, 10**9))
def test_read_time_monotone_in_bytes(a, b):
    small, large = sorted((a, b))
    assert SSD.read_time(small) <= SSD.read_time(large)
