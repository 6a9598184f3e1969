import warnings

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import census_pool
from adequate.census import (
    band_tables,
    canonical_table,
    census_counts,
    enumerate_semigroups,
    labelled_tables,
)
from adequate.core import relabel_table
from adequate.errors import OrderCapExceeded


def test_known_counts():
    assert census_counts(1) == (1, 1)
    assert census_counts(2) == (8, 5)
    assert census_counts(3) == (113, 24)


def test_order_four_classes():
    assert len(census_pool(4)) - len(census_pool(3)) == 188


def test_labelled_streams_are_all_associative_and_distinct():
    seen = set()
    for S in enumerate_semigroups(3, up_to_iso=False):
        assert S.table not in seen
        seen.add(S.table)
    assert len(seen) == 113


def test_band_tables_are_the_idempotent_labelled_tables():
    for n in range(1, 5):
        expected = [t for t in labelled_tables(n) if all(t[a][a] == a for a in range(n))]
        assert list(band_tables(n)) == expected


def test_representatives_are_canonical():
    for S in enumerate_semigroups(3, up_to_iso=True):
        assert canonical_table(S.table) == S.table


def test_cap_behaviour():
    with pytest.raises(OrderCapExceeded):
        list(enumerate_semigroups(5))
    with pytest.raises(OrderCapExceeded):
        list(enumerate_semigroups(6, max_order=6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gen = enumerate_semigroups(5, max_order=5)
        next(gen)
        assert any("minutes" in str(w.message) for w in caught)
    with pytest.raises(OrderCapExceeded):
        census_counts(5)
    with pytest.raises(OrderCapExceeded):
        census_counts(6, max_order=6)
    with warnings.catch_warnings():
        # raised as an error, the warning stops the count before it starts
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="minutes"):
            census_counts(5, max_order=5)


@settings(max_examples=40)
@given(st.sampled_from(census_pool(3)), st.randoms())
def test_canonical_form_is_relabeling_invariant(S, rng):
    perm = list(range(S.order))
    rng.shuffle(perm)
    assert canonical_table(relabel_table(S.table, perm)) == canonical_table(S.table)


def test_matches_full_scan_oracle():
    for n in (1, 2, 3):
        labelled, classes = census_counts(n)
        assert (labelled, classes) == oracles.census_class_count(n)


def test_orbit_marking_matches_canonicalising_every_table():
    for n in range(1, 5):
        assert [S.table for S in enumerate_semigroups(n)] == oracles.census_classes(n)
    assert census_counts(4) == (3492, 188)


def test_labelled_count_is_the_sum_of_orbit_sizes():
    for n in range(1, 5):
        orbits = sum(len(set(oracles.relabelings(S.table))) for S in enumerate_semigroups(n))
        assert census_counts(n)[0] == orbits
