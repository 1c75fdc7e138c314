"""The per-trial seeds that the seeded tests draw their streams from."""

import pytest

from seeding import trial_seed


@pytest.mark.parametrize(
    "master_seed, trial_index, expected",
    [
        (20260810, 0, 2980392145524728894),
        (20260810, 1, 7980526680943017759),
        (20260810, 999, 1579513404274314502),
        (20261018, 5, 9160580212813543379),
        (20261018, 7, 7263056496282313917),
    ],
)
def test_seeds_are_pinned(master_seed, trial_index, expected):
    # the seeds that C7, the sampled round trips and the extremal pairs use
    assert trial_seed(master_seed, trial_index) == expected


def test_spreads():
    seeds = {trial_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
