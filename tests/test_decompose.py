import dataclasses

import pytest

import oracles
from conftest import admissible_pool, ladder_rung
from adequate import construct, decompose
from adequate.catalog import catalog
from adequate.core import find_isomorphism, validate_table
from adequate.errors import IsoFailed, NotAdmissible, NotQuasiAdequate, NotQuasiIdeal
from adequate.greenstar import abundance_profile, star_plus
from adequate.decompose import (
    extract_action,
    extract_spined_factors,
    extract_structure,
    roundtrip,
)
from adequate.transversal import transversal_profile, verify_adequate_transversal

LZ2 = validate_table([[0, 0], [1, 1]], labels=["a", "b"])


class TestExtractStructure:
    def test_rect22_has_one_constant_rectangle(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        si = extract_structure(rb, D)
        assert list(si.alpha.keys()) == [(0, 0)]
        rect = si.alpha[(0, 0)]
        assert len(rect) == 4  # both bands have two elements
        assert set(rect.values()) == {si.e0_in_i[0]}
        assert set(si.beta[(0, 0)].values()) == {si.e0_in_lambda[0]}

    def test_adequate_self_has_singleton_rectangles(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        si = extract_structure(b2, D)
        sp = star_plus(si.s0)
        for (x, y), rect in si.alpha.items():
            assert len(rect) == 1
            ((key, value),) = rect.items()
            assert value == si.e0_in_i[sp.plus[si.s0.mul(x, y)]]

    def test_left_zero_rectangle(self):
        D = verify_adequate_transversal(LZ2, (0,))
        si = extract_structure(LZ2, D)
        assert si.i_band.order == 2 and si.lambda_band.order == 1
        assert si.alpha[(0, 0)] == {(0, 0): 0, (0, 1): 0}

    def test_extraction_from_a_non_quasi_ideal_transversal(self):
        lrb = catalog("lrb3")
        D = verify_adequate_transversal(lrb, (0, 1))
        assert transversal_profile(lrb, D).is_admissible
        si = extract_structure(lrb, D)
        assert si.s0.order == 2

    def test_admissibility_gate(self):
        # every transversal in the desk corpus is admissible, so doctor the
        # bar map of a verified one to drive the guard
        import dataclasses

        ch = catalog("chain(2)")
        D = verify_adequate_transversal(ch, (0, 1))
        doctored = dataclasses.replace(D, bar_of=(1, 0))
        with pytest.raises(NotAdmissible):
            extract_structure(ch, doctored)

    def test_quasi_adequate_gate(self):
        # the one abundant, non-quasi-adequate semigroup of order four has no
        # adequate transversal, so the gate is driven with a borrowed
        # decomposition; it fires before the maps are touched
        S = validate_table([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 1], [0, 0, 0, 3]])
        ch = catalog("chain(2)")
        D = verify_adequate_transversal(ch, (0, 1))
        with pytest.raises(NotQuasiAdequate):
            extract_structure(S, D)


class TestExtractAction:
    def test_left_zero(self):
        D = verify_adequate_transversal(LZ2, (0,))
        at = extract_action(LZ2, D)
        assert at.act == {(0, 0): 0, (0, 1): 0}

    def test_lrb3_with_semilattice_transversal(self):
        lrb = catalog("lrb3")
        D = verify_adequate_transversal(lrb, (0, 2))
        at = extract_action(lrb, D)
        # s0 index 0 is the identity element, index 1 the zero
        assert {k: v for k, v in at.act.items() if k[0] == 0} == {
            (0, 0): 0, (0, 1): 1, (0, 2): 2}
        assert {v for k, v in at.act.items() if k[0] == 1} == {2}

    def test_adequate_self_action_is_plus_of_product(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        at = extract_action(b2, D)
        sp = star_plus(b2)
        i_parent = list(D.i_set)
        back = {p: i for i, p in enumerate(i_parent)}
        for (x, e), v in at.act.items():
            assert v == back[sp.plus[b2.mul(x, i_parent[e])]]

    def test_distributes_over_the_band(self):
        for name, S, D in admissible_pool(4):
            prof = abundance_profile(S)
            if not (prof.is_left_adequate and prof.is_quasi_adequate):
                continue
            from adequate.core import restrict

            sub, _ = restrict(S, D.s0)
            sprof = abundance_profile(sub)
            if not (sprof.is_adequate and sprof.is_left_ample):
                continue
            at = extract_action(S, D)
            ti = at.i_band.table
            for x in range(at.s0.order):
                for e in range(at.i_band.order):
                    for f in range(at.i_band.order):
                        assert at.act[(x, ti[e][f])] == ti[at.act[(x, e)]][at.act[(x, f)]], name


class TestExtractSpined:
    def test_rect22_splits_into_column_and_row(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        (l_part, d_l), (r_part, d_r), ident = extract_spined_factors(rb, D)
        assert l_part.order == 2 and r_part.order == 2
        assert find_isomorphism(l_part, LZ2) is not None
        assert find_isomorphism(r_part, validate_table([[0, 1], [0, 1]])) is not None
        assert ident == {0: 0}

    def test_adequate_self_gives_s_twice(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        (l_part, d_l), (r_part, d_r), ident = extract_spined_factors(b2, D)
        assert l_part.order == 5 == r_part.order
        assert ident == {i: i for i in range(5)}

    def test_left_zero_gives_itself_and_the_point(self):
        D = verify_adequate_transversal(LZ2, (0,))
        (l_part, _), (r_part, _), _ = extract_spined_factors(LZ2, D)
        assert l_part.order == 2 and r_part.order == 1

    def test_needs_quasi_ideal(self):
        lrb = catalog("lrb3")
        D = verify_adequate_transversal(lrb, (0, 2))
        with pytest.raises(NotQuasiIdeal):
            extract_spined_factors(lrb, D)


class TestRoundtrip:
    def test_rect22_all_three_legs(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        rt = roundtrip(rb, D)
        assert rt.checks.entry("w_isomorphism").passed
        assert rt.checks.entry("spined_roundtrip").passed
        assert rt.checks.entry("spined_theta_iso").passed
        # rect22 is not left adequate, so no semidirect leg
        assert not rt.checks.entry("semidirect_roundtrip").applicable

    def test_brandt_self(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        rt = roundtrip(b2, D)
        assert rt.checks.all_passed()
        assert find_isomorphism(rt.rebuilt.w, b2) is not None

    def test_left_zero(self):
        D = verify_adequate_transversal(LZ2, (0,))
        rt = roundtrip(LZ2, D)
        assert rt.checks.entry("w_isomorphism").passed
        assert rt.checks.entry("semidirect_roundtrip").passed
        assert rt.checks.entry("spined_roundtrip").passed

    def test_direct_products_roundtrip(self):
        # composite instances reach orders the census cannot
        from adequate.core import direct_product
        from adequate.transversal import find_adequate_transversals
        from adequate.transversal import audit_identities

        products = [
            direct_product(catalog("rect_band(2,2)"), catalog("chain(2)")),
            direct_product(catalog("lrb3"), catalog("chain(2)")),
            direct_product(
                direct_product(catalog("left_zero(2)"), catalog("right_zero(2)")),
                catalog("chain(2)"),
            ),
        ]
        for S in products:
            found = find_adequate_transversals(S)
            assert found
            for D in found:
                assert audit_identities(S, D).all_passed()
                if transversal_profile(S, D).is_admissible:
                    rt = roundtrip(S, D)
                    assert rt.checks.entry("w_isomorphism").passed

    def test_adequate_product_of_order_ten_roundtrips(self):
        from adequate.core import direct_product

        S = direct_product(catalog("brandt2"), catalog("chain(2)"))
        D = verify_adequate_transversal(S, range(S.order))
        rt = roundtrip(S, D)
        assert rt.checks.all_passed()

    def test_iso_is_the_canonical_triple_map(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        rt = roundtrip(rb, D)
        i_back = {p: i for i, p in enumerate(D.i_set)}
        lam_back = {p: i for i, p in enumerate(D.lambda_set)}
        s0_back = {p: i for i, p in enumerate(D.s0)}
        for x in range(rb.order):
            triple = rt.rebuilt.element_legend[rt.iso[x]]
            assert triple == (i_back[D.e_of[x]], s0_back[D.bar_of[x]],
                              lam_back[D.f_of[x]])


def _swap_first_two(built):
    legend = list(built.element_legend)
    legend[0], legend[1] = legend[1], legend[0]
    return dataclasses.replace(built, element_legend=tuple(legend))


def _repeat_first(built):
    legend = list(built.element_legend)
    legend[1] = legend[0]
    return dataclasses.replace(built, element_legend=tuple(legend))


class TestRoundtripCertificates:
    def test_theta_scan_passes_wherever_the_legs_prove_it(self, admissible_corpus):
        inputs = list(admissible_corpus)
        inputs += [(key, *ladder_rung(key)) for key in ("chain(1)", "left_zero(2)")]
        scanned = 0
        for name, S, D in inputs:
            if not abundance_profile(S).is_quasi_adequate:
                continue
            rt = roundtrip(S, D)
            theta = rt.checks.entry("spined_theta_iso")
            assert theta.applicable == transversal_profile(S, D).is_quasi_ideal, name
            if theta.applicable:
                assert theta.passed, name
                assert oracles.spined_theta_scan(S, D, rt.rebuilt) is None, name
                scanned += 1
        assert scanned > 0

    def test_one_transversal_profile_per_roundtrip(self, monkeypatch):
        lrb = catalog("lrb3")
        D = verify_adequate_transversal(lrb, (0, 1))
        calls = []
        for module in (construct, decompose):
            def counted(S, D, real=module.transversal_profile):
                calls.append((S, D))
                return real(S, D)
            monkeypatch.setattr(module, "transversal_profile", counted)
        rt = roundtrip(lrb, D)
        # the semidirect leg runs too, and must not profile (S, D) a second time
        assert rt.checks.entry("semidirect_roundtrip").passed
        assert sum(1 for T, E in calls if T is lrb and E is D) == 1

    @pytest.mark.parametrize("leg, builder", [
        ("w", "_build_w"),
        ("semidirect", "_build_semidirect"),
        ("spined", "build_spined_product"),
    ])
    @pytest.mark.parametrize("corrupt, witness", [
        # brandt2's zero and a trade places: the zero is sent to a, and a.a = 0
        (_swap_first_two, (0, 0)),
        (_repeat_first, "not_bijective"),
    ])
    def test_each_leg_reports_its_first_witness(self, monkeypatch, leg, builder,
                                                corrupt, witness):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        real = getattr(decompose, builder)
        monkeypatch.setattr(decompose, builder, lambda *args: corrupt(real(*args)))
        with pytest.raises(IsoFailed) as exc:
            roundtrip(b2, D)
        assert exc.value.witness == (leg, witness)
