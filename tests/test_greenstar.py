import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adequate import greenstar
from conftest import census_pool, catalog_pool
from adequate.catalog import catalog
from adequate.census import band_tables
from adequate.core import (
    direct_product,
    enumerate_congruences,
    find_isomorphism,
    quotient,
    restrict,
    universal_partition,
    validate_table,
)
from adequate.errors import NotAdequate, NotAMorphism, NotQuasiAdequate
from adequate.greenstar import (
    abundance_profile,
    band_j_partition,
    delta,
    green_relations,
    is_admissible,
    min_adequate_admissible_congruence,
    regular_and_inverses,
    star_plus,
    star_relations,
)

LZ2 = validate_table([[0, 0], [1, 1]])
RZ2 = validate_table([[0, 1], [0, 1]])
CHAIN2 = validate_table([[0, 0], [0, 1]])
C2 = validate_table([[0, 1], [1, 0]])
N2 = validate_table([[0, 0], [0, 0]])


def pool_strategy(max_order=3):
    return st.sampled_from(census_pool(max_order))


class TestStarRelations:
    def test_left_zero(self):
        sr = star_relations(LZ2)
        assert sr.rstar.classes == ((0,), (1,))
        assert sr.lstar.classes == ((0, 1),)

    def test_chain(self):
        sr = star_relations(CHAIN2)
        assert sr.rstar.classes == ((0,), (1,)) == sr.lstar.classes

    def test_group_is_universal(self):
        sr = star_relations(C2)
        assert sr.rstar.is_universal() and sr.lstar.is_universal()

    def test_hstar_is_meet(self):
        for S in census_pool(3)[:15]:
            sr = star_relations(S)
            from adequate.core import meet

            assert sr.hstar == meet(sr.rstar, sr.lstar)

    @settings(max_examples=50)
    @given(pool_strategy())
    def test_against_pairwise_oracle(self, S):
        sr = star_relations(S)
        assert list(sr.rstar.classes) == oracles.rstar_classes(S.table)
        assert list(sr.lstar.classes) == oracles.lstar_classes(S.table)

    def test_one_sided_congruence_properties(self):
        # R* is a left congruence, L* a right congruence; exhaustive over the
        # order <= 3 census
        for S in census_pool(3):
            sr = star_relations(S)
            for a in range(S.order):
                for b in range(S.order):
                    if sr.rstar.same(a, b):
                        for c in range(S.order):
                            assert sr.rstar.same(S.mul(c, a), S.mul(c, b))
                    if sr.lstar.same(a, b):
                        for c in range(S.order):
                            assert sr.lstar.same(S.mul(a, c), S.mul(b, c))

    def test_idempotent_characterisation(self):
        # e R* a iff ea = a and every left-multiplier equality xa = ya
        # transfers to xe = ye; exhaustive over the order <= 3 census
        for S in census_pool(3):
            sr = star_relations(S)
            t1 = oracles.with_identity(S.table)
            m = range(len(t1))
            for e in S.idempotents():
                for a in range(S.order):
                    chr_holds = S.mul(e, a) == a and all(
                        t1[x][e] == t1[y][e]
                        for x in m for y in m
                        if t1[x][a] == t1[y][a]
                    )
                    assert chr_holds == sr.rstar.same(e, a)


class TestGreenRelations:
    def test_left_zero(self):
        g = green_relations(LZ2)
        assert g.r.classes == ((0,), (1,))
        assert g.l.classes == ((0, 1),)

    def test_brandt_d_classes(self):
        g = green_relations(catalog("brandt2"))
        assert sorted(len(c) for c in g.d.classes) == [1, 4]

    def test_group_universal(self):
        g = green_relations(C2)
        assert g.r.is_universal() and g.l.is_universal() and g.j.is_universal()

    @settings(max_examples=50)
    @given(pool_strategy())
    def test_against_ideal_oracle(self, S):
        g = green_relations(S)
        assert list(g.r.classes) == oracles.green_r_classes(S.table)
        assert list(g.l.classes) == oracles.green_l_classes(S.table)

    @settings(max_examples=50)
    @given(pool_strategy())
    def test_star_restricts_to_green_on_regulars(self, S):
        sr = star_relations(S)
        g = green_relations(S)
        reg = regular_and_inverses(S).regular
        for a in reg:
            for b in reg:
                assert sr.rstar.same(a, b) == g.r.same(a, b)
                assert sr.lstar.same(a, b) == g.l.same(a, b)

    def test_j_against_two_sided_ideal_oracle(self):
        # J = D in a finite semigroup: the library reads J off D, the oracle
        # builds every principal two-sided ideal S^1 a S^1
        base = catalog("sym_inv(3)")
        instances = list(census_pool(4)) + [S for _, S in catalog_pool()] + [
            direct_product(base, catalog(key)) for key in ("chain(1)", "left_zero(2)")
        ]
        for S in instances:
            assert list(green_relations(S).j.classes) == oracles.j_classes(S.table)

    def test_band_j_partition_against_two_sided_ideal_oracle(self):
        for n in range(1, 5):
            for table in band_tables(n):
                E = validate_table(table)
                assert list(band_j_partition(E).classes) == oracles.j_classes(table)

    def test_star_restriction_exhaustive_through_order_4(self):
        for S in census_pool(4):
            sr = star_relations(S)
            g = green_relations(S)
            reg = regular_and_inverses(S).regular
            for a in reg:
                for b in reg:
                    assert sr.rstar.same(a, b) == g.r.same(a, b)
                    assert sr.lstar.same(a, b) == g.l.same(a, b)


class TestRegularAndInverses:
    def test_band_everything_regular(self):
        reg = regular_and_inverses(LZ2)
        assert reg.regular == (0, 1)
        assert all(x in reg.inverses[x] for x in range(2))

    def test_null_semigroup(self):
        reg = regular_and_inverses(N2)
        assert reg.regular == (0,)
        assert reg.inverses[1] == ()

    def test_brandt(self):
        reg = regular_and_inverses(catalog("brandt2"))
        assert reg.regular == (0, 1, 2, 3, 4)
        assert reg.inverses[1] == (2,)


class TestAbundanceProfile:
    def test_null_not_abundant(self):
        assert not abundance_profile(N2).is_abundant

    def test_brandt_flags(self):
        p = abundance_profile(catalog("brandt2"))
        assert p.is_abundant and p.is_adequate and p.is_quasi_adequate and p.is_inverse

    def test_rect22(self):
        p = abundance_profile(catalog("rect_band(2,2)"))
        assert p.is_quasi_adequate and not p.is_adequate

    def test_left_zero_is_left_adequate_quasi(self):
        p = abundance_profile(LZ2)
        assert p.is_left_adequate and not p.is_right_adequate
        assert p.is_left_ample is True
        assert p.is_bountiful

    def test_left_ample_not_applicable_when_not_left_adequate(self):
        p = abundance_profile(RZ2)
        assert not p.is_left_adequate
        assert p.is_left_ample is None

    def test_adequate_iff_unique_idempotents_and_regular_idempotent_core(self):
        # adequate is equivalent to: unique idempotent per starred class and
        # the subsemigroup generated by the idempotents is regular
        from adequate.core import generated_subsemigroup, restrict
        from adequate.greenstar import star_relations

        for S in census_pool(4):
            p = abundance_profile(S)
            if not p.is_abundant:
                continue
            sr = star_relations(S)
            E = S.idempotents()
            unique = all(
                sum(1 for e in E if sr.rstar.same(e, x)) == 1
                and sum(1 for e in E if sr.lstar.same(e, x)) == 1
                for x in range(S.order)
            )
            core, _ = restrict(S, generated_subsemigroup(S, E))
            core_regular = len(regular_and_inverses(core).regular) == core.order
            assert p.is_adequate == (unique and core_regular)

    def test_star_plus_deduced_absorptions(self):
        # a+(ab)+ = (ab)+ and (ab)* b* = (ab)*
        for S in census_pool(3):
            if not abundance_profile(S).is_adequate:
                continue
            sp = star_plus(S)
            for a in range(S.order):
                for b in range(S.order):
                    ab = S.mul(a, b)
                    assert S.mul(sp.plus[a], sp.plus[ab]) == sp.plus[ab]
                    assert S.mul(sp.star[ab], sp.star[b]) == sp.star[ab]

    @settings(max_examples=60)
    @given(pool_strategy())
    def test_flag_implications(self, S):
        p = abundance_profile(S)
        if p.is_adequate:
            assert p.is_abundant and p.is_left_adequate and p.is_right_adequate
        assert p.is_bountiful == (p.is_idempotent_connected and p.is_quasi_adequate)
        if p.is_inverse:
            assert p.is_adequate and p.is_regular
        if p.is_orthodox:
            assert p.is_quasi_adequate and p.is_regular
        if p.is_abundant:
            assert all(w is not None for w in p.rstar_witness)
            assert all(w is not None for w in p.lstar_witness)

    def test_ic_bijection_against_backtracking_oracle(self, monkeypatch):
        pool = census_pool(4) + tuple(S for _, S in catalog_pool())
        reached = []
        by_counts = greenstar._ic_bijection_exists

        def recording(S, a, dom, cod):
            verdict = by_counts(S, a, dom, cod)
            reached.append((S.table, a, tuple(dom), tuple(cod), verdict))
            return verdict

        monkeypatch.setattr(greenstar, "_ic_bijection_exists", recording)
        for S in pool:
            abundance_profile.__wrapped__(S)
        # abundance_profile stops at the first bijection found, so also try every
        # element against every pair of idempotents, which reaches failures too
        for S in pool:
            below = {e: greenstar._generated_below(S, e) for e in S.idempotents()}
            for a in range(S.order):
                for dom in below.values():
                    for cod in below.values():
                        recording(S, a, dom, cod)
        for table, a, dom, cod, verdict in reached:
            assert oracles.ic_bijection_backtrack(table, a, dom, cod) == verdict
        sized = [verdict for _, _, dom, cod, verdict in reached if len(dom) == len(cod)]
        assert (len(reached), sum(sized), len(sized)) == (366 + 7207, 366 + 2321, 366 + 3931)


class TestStarPlus:
    def test_semilattice_fixed_points(self):
        sp = star_plus(CHAIN2)
        assert sp.star == (0, 1) and sp.plus == (0, 1)

    def test_brandt(self):
        sp = star_plus(catalog("brandt2"))
        assert sp.plus == (0, 3, 4, 3, 4)
        assert sp.star == (0, 4, 3, 3, 4)

    def test_group_constant(self):
        sp = star_plus(C2)
        assert sp.star == (0, 0) and sp.plus == (0, 0)

    def test_not_adequate(self):
        with pytest.raises(NotAdequate):
            star_plus(catalog("rect_band(2,2)"))

    def test_star_plus_classify_starred_classes(self):
        for S in census_pool(3):
            if not abundance_profile(S).is_adequate:
                continue
            sp = star_plus(S)
            sr = star_relations(S)
            for a in range(S.order):
                for b in range(S.order):
                    assert sr.rstar.same(a, b) == (sp.plus[a] == sp.plus[b])
                    assert sr.lstar.same(a, b) == (sp.star[a] == sp.star[b])


class TestDelta:
    def test_adequate_is_identity(self):
        d = delta(catalog("brandt2"))
        assert d.partition.is_identity() and d.is_congruence
        assert find_isomorphism(d.quotient, catalog("brandt2")) is not None

    def test_rect22_is_universal(self):
        d = delta(catalog("rect_band(2,2)"))
        assert d.partition.is_universal() and d.is_congruence
        assert d.quotient.order == 1

    def test_left_zero_universal(self):
        d = delta(LZ2)
        assert d.partition.is_universal() and d.is_congruence

    def test_needs_quasi_adequate(self):
        with pytest.raises(NotQuasiAdequate):
            delta(N2)

    def test_identity_on_every_adequate_census_instance(self):
        for S in census_pool(4):
            if abundance_profile(S).is_adequate:
                d = delta(S)
                assert d.partition.is_identity() and d.is_congruence
                assert find_isomorphism(d.quotient, S) is not None

    def test_contained_in_every_adequate_congruence(self):
        instances = list(census_pool(4)) + [
            S for _, S in catalog_pool() if S.order <= 6
        ]
        for S in instances:
            if not abundance_profile(S).is_quasi_adequate:
                continue
            d = delta(S)
            for rho in enumerate_congruences(S):
                Q, _ = quotient(S, rho)
                if abundance_profile(Q).is_adequate:
                    assert d.pairs <= rho.pairs()

    def test_normal_band_makes_delta_a_congruence(self):
        from adequate.core import band_class

        for S in census_pool(4):
            prof = abundance_profile(S)
            if not prof.is_quasi_adequate:
                continue
            eband, _ = restrict(S, S.idempotents())
            if band_class(eband).is_normal or prof.is_bountiful:
                assert delta(S).is_congruence


class TestAdmissibilityAndGamma:
    def test_identity_map_admissible(self):
        assert is_admissible(LZ2, LZ2, (0, 1))

    def test_collapse_of_left_zero(self):
        T = validate_table([[0]])
        assert is_admissible(LZ2, T, (0, 0))

    def test_not_a_morphism(self):
        with pytest.raises(NotAMorphism):
            is_admissible(CHAIN2, CHAIN2, (1, 0))

    def test_adequate_gets_identity_congruence(self):
        g = min_adequate_admissible_congruence(catalog("chain(3)"))
        assert g.is_identity()

    def test_rect22_and_left_zero_get_universal(self):
        assert min_adequate_admissible_congruence(catalog("rect_band(2,2)")).is_universal()
        assert min_adequate_admissible_congruence(LZ2).is_universal()

    def test_needs_quasi_adequate(self):
        with pytest.raises(NotQuasiAdequate):
            min_adequate_admissible_congruence(N2)

    def test_delta_congruence_is_the_minimum(self):
        for S in census_pool(4):
            if not abundance_profile(S).is_quasi_adequate:
                continue
            d = delta(S)
            if d.is_congruence:
                assert d.partition == min_adequate_admissible_congruence(S)

    def test_delta_threeway_equivalence_over_transversals(self):
        # with an adequate transversal at hand: delta a congruence, delta
        # equal to the bar fibres, and the transversal admissible are all the
        # same condition, and then the quotient is the transversal
        from conftest import transversal_pool
        from adequate.core import partition_from_class_of, restrict
        from adequate.transversal import transversal_profile

        for name, S, D in transversal_pool(4):
            if not abundance_profile(S).is_quasi_adequate:
                continue
            d = delta(S)
            fibres = partition_from_class_of(D.bar_of)
            admissible = transversal_profile(S, D).is_admissible
            assert d.is_congruence == (d.partition == fibres) == admissible, name
            if d.is_congruence:
                sub, _ = restrict(S, D.s0)
                assert find_isomorphism(d.quotient, sub) is not None, name
