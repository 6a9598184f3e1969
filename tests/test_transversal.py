import dataclasses

import pytest

import oracles
from conftest import census_pool, ladder_rung, transversal_pool
from adequate.catalog import catalog
from adequate.core import enumerate_subsemigroups, restrict, validate_table
from adequate.errors import (
    AmbiguousDecomposition,
    InvariantBroken,
    NoDecomposition,
    NotAbundant,
    NotAdequateSub,
    NotClosed,
    NotRegular,
    SemigroupError,
)
from adequate.greenstar import (
    abundance_profile,
    regular_and_inverses,
    star_plus,
    star_relations,
)
from adequate.transversal import (
    audit_identities,
    canonical_inverse,
    find_adequate_transversals,
    is_star_subsemigroup,
    transversal_profile,
    verify_adequate_transversal,
)

LZ2 = validate_table([[0, 0], [1, 1]], labels=["a", "b"])
N2 = validate_table([[0, 0], [0, 0]])


class TestStarSubsemigroup:
    def test_whole_abundant_semigroup(self):
        assert is_star_subsemigroup(LZ2, (0, 1))

    def test_idempotent_singleton(self):
        assert is_star_subsemigroup(LZ2, (0,))

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            is_star_subsemigroup(N2, (1,))

    def test_not_closed_names_the_first_escaping_pair(self):
        # every open subset of brandt2, given unsorted and with a repeat: the
        # witness is the first (a, b) in sorted members x sorted members, and
        # the verifier's message names the same pair
        from itertools import combinations

        b2 = catalog("brandt2")
        t = b2.table
        opened = 0
        for k in range(1, 6):
            for sub in combinations(range(5), k):
                first = next(((a, b, t[a][b]) for a in sub for b in sub
                              if t[a][b] not in sub), None)
                if first is None:
                    continue
                opened += 1
                with pytest.raises(NotClosed) as info:
                    is_star_subsemigroup(b2, (*reversed(sub), sub[0]))
                assert info.value.witness == first, sub
                message = r"^not closed: %d\*%d = %d escapes$" % first
                with pytest.raises(NotAdequateSub, match=message):
                    verify_adequate_transversal(b2, sub)
        assert opened > 0

    def test_nilpotent_member_fails(self):
        # the nonzero element of the null semigroup has no idempotent of the
        # subset in its starred classes
        assert not is_star_subsemigroup(N2, (0, 1))

    def test_characterisation_matches_restriction_equality(self):
        # for abundant subsemigroups of abundant semigroups, the idempotent
        # witness condition is equivalent to the starred relations of the
        # subsemigroup being the ambient restrictions
        from adequate.core import enumerate_subsemigroups, restrict

        for S in census_pool(3):
            if not abundance_profile(S).is_abundant:
                continue
            amb = star_relations(S)
            for sub in enumerate_subsemigroups(S):
                inner, parent = restrict(S, sub)
                if not abundance_profile(inner).is_abundant:
                    continue
                own = star_relations(inner)
                restricted = all(
                    own.rstar.same(i, j) == amb.rstar.same(parent[i], parent[j])
                    and own.lstar.same(i, j) == amb.lstar.same(parent[i], parent[j])
                    for i in range(inner.order) for j in range(inner.order)
                )
                assert is_star_subsemigroup(S, sub) == restricted, (S.table, sub)


class TestVerify:
    def test_adequate_self_transversal(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        sp = star_plus(b2)
        assert D.bar_of == (0, 1, 2, 3, 4)
        assert D.e_of == sp.plus
        assert D.f_of == sp.star

    def test_rect22_trivial_transversal(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        # e is the row projection onto column 1, f the column projection
        assert D.e_of == (0, 0, 2, 2)
        assert D.f_of == (0, 1, 0, 1)
        assert D.bar_of == (0, 0, 0, 0)
        assert D.i_set == (0, 2) and D.lambda_set == (0, 1)

    def test_left_zero_transversal(self):
        D = verify_adequate_transversal(LZ2, (0,))
        assert D.e_of == (0, 1) and D.bar_of == (0, 0) and D.f_of == (0, 0)

    def test_not_abundant(self):
        with pytest.raises(NotAbundant):
            verify_adequate_transversal(N2, (0,))

    def test_not_adequate_candidate(self):
        with pytest.raises(NotAdequateSub):
            verify_adequate_transversal(catalog("rect_band(2,2)"), (0, 1))

    def test_no_decomposition(self):
        # {0, aa'} is an adequate *-subsemigroup of brandt2 but a admits no
        # factorisation through it
        with pytest.raises(NoDecomposition):
            verify_adequate_transversal(catalog("brandt2"), (0, 3))

    def test_matches_brute_force_oracle_on_census(self):
        for S in census_pool(4):
            for sub in enumerate_subsemigroups(S):
                want_status, want_maps = oracles.transversal_check(S.table, sub)
                try:
                    D = verify_adequate_transversal(S, sub)
                except Exception:
                    assert want_status != "ok"
                    continue
                assert want_status == "ok"
                assert (D.e_of, D.bar_of, D.f_of) == want_maps


    def test_factorisation_matches_per_element_scan_on_census(self):
        # every candidate that reaches the factorisation step: the same maps,
        # or the same first element without exactly one factorisation
        reached: dict = {}
        for S in census_pool(4):
            for sub in enumerate_subsemigroups(S):
                try:
                    D = verify_adequate_transversal(S, sub)
                except (NoDecomposition, AmbiguousDecomposition) as exc:
                    failure = exc
                except SemigroupError:
                    continue
                else:
                    failure = None
                part, to_parent = restrict(S, sub)
                sp = star_plus(part)
                plus = {p: to_parent[sp.plus[i]] for i, p in enumerate(to_parent)}
                star = {p: to_parent[sp.star[i]] for i, p in enumerate(to_parent)}
                scan = oracles.factorisations_by_element(S.table, to_parent, plus, star)
                outcome = type(failure).__name__ if failure else "ok"
                reached[outcome] = reached.get(outcome, 0) + 1
                if failure is None:
                    assert [[(D.e_of[x], D.bar_of[x], D.f_of[x])] for x in range(S.order)] == scan
                    continue
                x = next(x for x, triples in enumerate(scan) if len(triples) != 1)
                assert failure.element == x
                assert getattr(failure, "triples", ()) == tuple(sorted(scan[x]))
        # no candidate at these orders is ambiguous (acceptance check c09)
        assert reached == {"ok": 143, "NoDecomposition": 459}, reached


class TestFind:
    def test_left_zero_has_two(self):
        assert [D.s0 for D in find_adequate_transversals(LZ2)] == [(0,), (1,)]

    def test_rect22_has_four_singletons(self):
        rb = catalog("rect_band(2,2)")
        assert [D.s0 for D in find_adequate_transversals(rb)] == [(0,), (1,), (2,), (3,)]

    def test_null_has_none(self):
        assert find_adequate_transversals(N2) == []


class TestProfile:
    def test_rect22_trivial_is_everything(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        p = transversal_profile(rb, D)
        assert p.is_quasi_ideal and p.is_multiplicative and p.is_admissible

    def test_adequate_self(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        p = transversal_profile(b2, D)
        assert p.is_quasi_ideal and p.is_admissible

    def test_left_zero(self):
        D = verify_adequate_transversal(LZ2, (0,))
        p = transversal_profile(LZ2, D)
        assert p.is_quasi_ideal and p.is_admissible and not p.witnesses

    def test_lrb3_transversals_are_not_quasi_ideal(self):
        lrb = catalog("lrb3")
        D = verify_adequate_transversal(lrb, (0, 2))
        p = transversal_profile(lrb, D)
        assert p.is_admissible and not p.is_quasi_ideal and not p.is_multiplicative

    def test_sandwich_witness_is_the_first_escape(self, transversal_corpus):
        escapes = 0
        for name, S, D in transversal_corpus:
            wits = [w for kind, w in transversal_profile(S, D).witnesses
                    if kind == "quasi_ideal_sandwich"]
            first = next(
                ((u, s, v) for u in D.s0 for s in range(S.order) for v in D.s0
                 if S.mul(S.mul(u, s), v) not in D.s0),
                None,
            )
            assert wits == ([] if first is None else [first]), name
            escapes += first is not None
        assert escapes > 0

    def test_lambda_i_and_rl_witnesses_are_the_first_escapes(self, transversal_corpus):
        escapes = 0
        for name, S, D in transversal_corpus:
            wits = dict(transversal_profile(S, D).witnesses)
            for kind, left, right in (("quasi_ideal_lambda_i", D.lambda_set, D.i_set),
                                      ("quasi_ideal_rl", D.r_set, D.l_set)):
                bad = [(a, b) for a in left for b in right if S.mul(a, b) not in D.s0]
                assert wits.get(kind) == (bad[0] if bad else None), (name, kind)
                escapes += len(bad) > 1
        assert escapes > 0

    def test_multiplicative_iff_quasi_ideal_on_quasi_adequate(self):
        for name, S, D in transversal_pool(4):
            if abundance_profile(S).is_quasi_adequate:
                p = transversal_profile(S, D)
                assert p.is_multiplicative == p.is_quasi_ideal, name


class TestCanonicalInverse:
    def test_transversal_idempotents_are_fixed(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        for x in D.e0:
            assert canonical_inverse(b2, D, x) == x

    def test_brandt_pairing(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        assert canonical_inverse(b2, D, 1) == 2

    def test_rect22_corner(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        assert canonical_inverse(rb, D, 3) == 0

    def test_not_regular(self):
        # an adequate order-4 semigroup whose element 1 squares into the zero
        # and is not regular, yet the whole semigroup is its own transversal
        S = validate_table([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 0], [0, 0, 0, 3]])
        assert abundance_profile(S).is_adequate
        D = verify_adequate_transversal(S, range(4))
        assert D.inv0[1] is None
        with pytest.raises(NotRegular):
            canonical_inverse(S, D, 1)


class TestAudit:
    def test_all_pass_on_reference_instances(self):
        cases = [
            (catalog("rect_band(2,2)"), (0,)),
            (catalog("brandt2"), tuple(range(5))),
            (LZ2, (0,)),
            (catalog("lrb3"), (0, 2)),
            (catalog("sym_inv(2)"), tuple(range(7))),
        ]
        for S, sub in cases:
            D = verify_adequate_transversal(S, sub)
            report = audit_identities(S, D)
            assert report.all_passed(), (sub, [e.name for e in report.failures()])

    def test_quasi_adequate_conditions_all_true_on_brandt(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        report = audit_identities(b2, D)
        for k in range(1, 5):
            assert report.entry(f"quasi_adequate_c{k}").passed

    def test_everything_passes_across_the_corpus(self):
        for name, S, D in transversal_pool(4):
            report = audit_identities(S, D)
            assert report.all_passed(), (name, [e.name for e in report.failures()])

    def test_inverse_identities_match_the_pairwise_oracle(self, transversal_corpus):
        # on the corpus, and with one regular element's canonical inverse
        # moved to the next regular element, which mostly breaks the identities
        failed = 0
        for name, S, D in transversal_corpus:
            regular = list(regular_and_inverses(S).regular)
            if not all(S.table[a][b] in regular for a in regular for b in regular):
                continue
            cases = [D]
            for i, x in enumerate(regular[:-1]):
                inv0 = list(D.inv0)
                inv0[x] = regular[i + 1]
                cases.append(dataclasses.replace(D, inv0=tuple(inv0)))
            for case in cases:
                entry = audit_identities(S, case).entry("reg_inverse_identities")
                expected = oracles.first_inverse_identity_failure(S.table, case.inv0, regular)
                assert entry.applicable and entry.passed == (expected is None), name
                assert entry.witness == expected, name
                failed += expected is not None
        assert failed > 0


def _audit_outcome(audit, S, D):
    """The whole report as (name, applicable, passed, witness) rows in order,
    or the type and arguments of the exception the audit raised."""
    try:
        report = audit(S, D)
    except Exception as exc:  # a corrupted map may send a scan off the table
        return type(exc), exc.args
    return [(e.name, e.applicable, e.passed, e.witness) for e in report.entries]


def _single_entry_corruptions(S, D):
    """D with one entry of e_of, bar_of, f_of or inv0 moved to the next element."""
    n = S.order
    for field in ("e_of", "bar_of", "f_of", "inv0"):
        values = getattr(D, field)
        for x, v in enumerate(values):
            if n > 1 and v is not None:
                changed = list(values)
                changed[x] = (v + 1) % n
                yield field, dataclasses.replace(D, **{field: tuple(changed)})


def _band_set_corruptions(S, D):
    """D with one element dropped from, or added to, i_set or lambda_set; a
    drop that would leave the set empty is skipped."""
    for field in ("i_set", "lambda_set"):
        members = getattr(D, field)
        if len(members) > 1:
            for x in members:
                yield field, dataclasses.replace(D, **{field: tuple(m for m in members if m != x)})
        for x in range(S.order):
            if x not in members:
                yield field, dataclasses.replace(D, **{field: tuple(sorted((*members, x)))})


# the entries that read I and Lambda as bands, and every witness kind they name
BAND_ENTRIES = ("reg_subband_i_lambda", "e0_semilattice_transversal", "lx_rx_lemma")
BAND_WITNESS_KINDS = (
    "bands", "subband", "i_not_left_regular", "lambda_not_right_regular",
    "i_not_covered", "lambda_not_covered", "l_class_not_left_zero", "r_class_not_right_zero",
    "e0_not_in_i", "e0_not_in_lambda",
)


# entries that share a pass, compare class ids, or pass by admissibility
FUSED_OR_IMPLIED = (
    "e_f_lemma_1", "rs_ls_lemma", "reg_inverse_identities", "quasi_adequate_c2",
    "bar_proposition_lambda_i", "bar_proposition_l_r", "bar_proposition_s0",
    "quasi_ideal_admissibility_equiv", "xybar_lemma", "ef_theorem", "ef_factorisation",
)


class TestAuditAgainstScan:
    def test_reports_equal_the_scan_entry_for_entry(self, transversal_corpus):
        inputs = [(name, S, D) for name, S, D in transversal_corpus]
        inputs += [(key, *ladder_rung(key)) for key in ("chain(1)", "left_zero(2)")]
        inputs += [
            (f"{name} {field}", S, case)
            for name, S, D in transversal_corpus
            for field, case in _single_entry_corruptions(S, D)
        ]
        failed = set()
        for name, S, D in inputs:
            expected = _audit_outcome(oracles.audit_identities_scan, S, D)
            assert _audit_outcome(audit_identities, S, D) == expected, name
            if isinstance(expected, list):
                failed.update(row[0] for row in expected if row[1] and not row[2])
        assert set(FUSED_OR_IMPLIED) <= failed, set(FUSED_OR_IMPLIED) - failed

    def test_band_set_corruptions_match_the_scan(self, transversal_corpus):
        kinds = set()
        for name, S, D in transversal_corpus:
            for field, case in _band_set_corruptions(S, D):
                expected = _audit_outcome(oracles.audit_identities_scan, S, case)
                assert _audit_outcome(audit_identities, S, case) == expected, (name, field)
                # a report, or a typed error from a gate the audit passes through
                assert isinstance(expected, list) or issubclass(expected[0], SemigroupError), (
                    name, field, expected)
                if isinstance(expected, list):
                    kinds.update(row[3][0] for row in expected
                                 if row[0] in BAND_ENTRIES and row[1] and not row[2])
        assert set(BAND_WITNESS_KINDS) <= kinds, set(BAND_WITNESS_KINDS) - kinds

    def test_admissibility_implies_the_bar_entries(self, transversal_corpus):
        bar_entries = ("bar_proposition_lambda_i", "bar_proposition_l_r", "bar_proposition_s0")
        scanned_failures = 0
        for name, S, D in transversal_corpus:
            admissible = transversal_profile(S, D).is_admissible
            scan = oracles.audit_identities_scan(S, D)
            equiv = scan.entry("quasi_ideal_admissibility_equiv")
            if equiv.applicable:
                assert equiv.witness[1] == admissible, name
            if admissible:
                assert scan.ok(*bar_entries), name
            for field, case in _single_entry_corruptions(S, D):
                if field != "bar_of" or transversal_profile(S, case).is_admissible:
                    continue
                want = oracles.audit_identities_scan(S, case)
                got = audit_identities(S, case)
                for entry in bar_entries:
                    assert got.entry(entry) == want.entry(entry), (name, entry)
                    scanned_failures += not want.entry(entry).passed
        assert scanned_failures > 0


class TestDerivedStructure:
    def test_rs_ls_classification_via_maps(self):
        for name, S, D in transversal_pool(3):
            sr = star_relations(S)
            for x in range(S.order):
                for y in range(S.order):
                    assert sr.rstar.same(x, y) == (D.e_of[x] == D.e_of[y]), name
                    assert sr.lstar.same(x, y) == (D.f_of[x] == D.f_of[y]), name

    def test_i_lambda_member_identities(self):
        for name, S, D in transversal_pool(3):
            for x in D.i_set:
                assert D.e_of[x] == x
                assert D.bar_of[x] == D.f_of[x] == D.e_of[D.bar_of[x]]
            for y in D.lambda_set:
                assert D.f_of[y] == y
                assert D.e_of[y] == D.bar_of[y] == D.f_of[D.bar_of[y]]

    def test_admissible_factorisation_display(self):
        for name, S, D in transversal_pool(4):
            prof = abundance_profile(S)
            if not prof.is_quasi_adequate:
                continue
            if not transversal_profile(S, D).is_admissible:
                continue
            t = S.table
            for x in range(S.order):
                for y in range(S.order):
                    m = S.product([D.bar_of[x], D.f_of[x], D.e_of[y], D.bar_of[y]])
                    lhs = t[x][y]
                    rhs = S.product([
                        t[D.e_of[x]][D.e_of[m]], D.bar_of[m], t[D.f_of[m]][D.f_of[y]],
                    ])
                    assert lhs == rhs, name

    def test_regular_element_descriptions_of_the_derived_sets(self):
        # I = {x regular : x = x x0} = {x x0 : x regular}, dually for Lambda,
        # and the derived sets R, L match x = xbar f_x and x = e_x xbar
        for name, S, D in transversal_pool(4):
            reg = regular_and_inverses(S).regular
            t = S.table
            fixed = {x for x in reg if t[x][D.inv0[x]] == x}
            image = {t[x][D.inv0[x]] for x in reg}
            assert set(D.i_set) == fixed == image, name
            fixed_l = {x for x in reg if t[D.inv0[x]][x] == x}
            image_l = {t[D.inv0[x]][x] for x in reg}
            assert set(D.lambda_set) == fixed_l == image_l, name
            assert set(D.r_set) == {
                x for x in range(S.order) if t[D.bar_of[x]][D.f_of[x]] == x}, name
            assert set(D.l_set) == {
                x for x in range(S.order) if t[D.e_of[x]][D.bar_of[x]] == x}, name
            assert len(D.i_set) == len(star_relations(S).rstar.classes), name
            assert len(D.lambda_set) == len(star_relations(S).lstar.classes), name

    def test_inverse_witness_classifications(self):
        # x = a a0 exactly for a in the regular part of the starred R-class
        # of x, and (e_x, f_x) = (a a0, a0 a) exactly on the starred H-class
        for name, S, D in transversal_pool(3):
            reg = set(regular_and_inverses(S).regular)
            sr = star_relations(S)
            t = S.table
            for x in D.i_set:
                for a in reg:
                    assert (t[a][D.inv0[a]] == x) == sr.rstar.same(a, x), name
            for x in range(S.order):
                for a in reg:
                    hit = (t[a][D.inv0[a]] == D.e_of[x]
                           and t[D.inv0[a]][a] == D.f_of[x])
                    in_hstar = sr.rstar.same(a, x) and sr.lstar.same(a, x)
                    assert hit == in_hstar, name

    def test_bar_multiplicative_on_regulars_when_quasi_adequate(self):
        for name, S, D in transversal_pool(4):
            if not abundance_profile(S).is_quasi_adequate:
                continue
            reg = regular_and_inverses(S).regular
            for x in reg:
                for y in reg:
                    assert D.bar_of[S.mul(x, y)] == S.mul(D.bar_of[x], D.bar_of[y]), name

    def test_green_l_agrees_between_s_and_its_band_on_idempotents(self):
        # the factorisation conditions use Green's relations in S; on
        # idempotents of a quasi-adequate S these match the band's own
        from adequate.core import restrict
        from adequate.greenstar import green_relations

        for S in census_pool(3):
            if not abundance_profile(S).is_quasi_adequate:
                continue
            E = S.idempotents()
            eband, parent = restrict(S, E)
            back = {p: i for i, p in enumerate(parent)}
            gs = green_relations(S)
            gb = green_relations(eband)
            for e in E:
                for f in E:
                    assert gs.l.same(e, f) == gb.l.same(back[e], back[f])
                    assert gs.r.same(e, f) == gb.r.same(back[e], back[f])

    def test_left_adequate_split(self):
        # left adequate ambient semigroups have Lambda = E0, R = S0, L = S
        for name, S, D in transversal_pool(4):
            if not abundance_profile(S).is_left_adequate:
                continue
            assert set(D.lambda_set) == set(D.e0), name
            assert set(D.r_set) == set(D.s0), name
            assert set(D.l_set) == set(range(S.order)), name
