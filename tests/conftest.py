import warnings
from functools import lru_cache

import pytest

from adequate.catalog import catalog, standard_catalog
from adequate.census import enumerate_semigroups
from adequate.core import SUBSEMIGROUP_CAP, direct_product
from adequate.transversal import (
    find_adequate_transversals,
    transversal_profile,
    verify_adequate_transversal,
)


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-census-order", default="4",
        help="extend the acceptance census to this order (5 takes under a minute)",
    )


@pytest.fixture(scope="session")
def acceptance_order(request):
    return int(request.config.getoption("--acceptance-census-order"))


@lru_cache(maxsize=None)
def census_pool(max_order: int):
    """All isomorphism classes of orders 1..max_order, as a tuple."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tuple(
            S for n in range(1, max_order + 1)
            for S in enumerate_semigroups(n, max_order=max_order)
        )


@lru_cache(maxsize=None)
def catalog_pool():
    return tuple(standard_catalog())


@lru_cache(maxsize=None)
def transversal_pool(max_order: int):
    """(name, S, D) for every adequate transversal in the census and catalog."""
    out = []
    for i, S in enumerate(census_pool(max_order)):
        for D in find_adequate_transversals(S):
            out.append((f"census_o{S.order}_i{i}_{D.s0}", S, D))
    for key, S in catalog_pool():
        if S.order <= SUBSEMIGROUP_CAP:
            for D in find_adequate_transversals(S):
                out.append((f"{key}_{D.s0}", S, D))
    return tuple(out)


@lru_cache(maxsize=None)
def admissible_pool(max_order: int):
    return tuple(
        (name, S, D) for name, S, D in transversal_pool(max_order)
        if transversal_profile(S, D).is_admissible
    )


def ladder_rung(key):
    """sym_inv(3) x T with the product of the factors' first transversals, as
    the benchmark's ladder builds it: rung34 for chain(1), rung68 for
    left_zero(2)."""
    base, T = catalog("sym_inv(3)"), catalog(key)
    factor_s0 = find_adequate_transversals(T)[0].s0
    S = direct_product(base, T)
    s0 = [a * T.order + b for a in range(base.order) for b in factor_s0]
    return S, verify_adequate_transversal(S, s0)


@pytest.fixture(scope="session")
def census3():
    return census_pool(3)


@pytest.fixture(scope="session")
def census4():
    return census_pool(4)


@pytest.fixture(scope="session")
def catalog_corpus():
    return catalog_pool()


@pytest.fixture(scope="session")
def transversal_corpus():
    return transversal_pool(4)


@pytest.fixture(scope="session")
def admissible_corpus():
    return admissible_pool(4)
