"""Tests for the package's public surface."""

from __future__ import annotations

import pairlink


def test_every_export_resolves_and_the_list_is_sorted():
    missing = [name for name in pairlink.__all__ if not hasattr(pairlink, name)]
    assert missing == []
    assert pairlink.__all__ == sorted(pairlink.__all__)
    assert len(set(pairlink.__all__)) == len(pairlink.__all__)
