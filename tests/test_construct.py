import copy
import dataclasses
from pathlib import Path

import pytest

import oracles
from conftest import admissible_pool, ladder_rung
from adequate import construct
from adequate.catalog import catalog
from adequate.core import (
    FiniteSemigroup,
    band_class,
    direct_product,
    find_isomorphism,
    restrict,
    validate_table,
)
from adequate.errors import (
    ActionLawViolation,
    AxiomViolation,
    BandNotNormal,
    ConditionViolation,
    InvariantBroken,
    NotAdequate,
    NotLeftAdequate,
    NotQuasiIdeal,
    PostconditionFailed,
    TransversalInvalid,
    TransversalMismatch,
)
from adequate.greenstar import abundance_profile, star_plus
from adequate.construct import (
    ActionTable,
    StructureInput,
    build_quasi_ideal_w,
    build_semidirect,
    build_spined_product,
    build_w,
    canonical_alpha_beta,
    check_section4_specialization,
    validate_action_table,
    validate_structure_input,
)
from adequate.decompose import extract_action, extract_structure
from adequate.fileio import parse_action_table
from adequate.transversal import CheckReport, transversal_profile, verify_adequate_transversal

DATA = Path(__file__).parent / "data"
TRIV = validate_table([[0]])
LZ2 = validate_table([[0, 0], [1, 1]], labels=["a", "b"])
RZ2 = validate_table([[0, 1], [0, 1]], labels=["a'", "b'"])
CHAIN2 = catalog("chain(2)")
# left normal band {1, a, 0} where 1 is the top of the transversal but not an
# identity: the structure map sends 1 into the lower left zero class at a's
# companion, so 1*a = 0
LNB3 = validate_table([[0, 2, 2], [1, 1, 1], [2, 2, 2]], labels=["1", "a", "0"])


def lz2_structure_input():
    alpha, beta = canonical_alpha_beta(TRIV, LZ2, TRIV, {0: 0}, {0: 0})
    return StructureInput(s0=TRIV, i_band=LZ2, lambda_band=TRIV,
                          e0_in_i={0: 0}, e0_in_lambda={0: 0},
                          alpha=alpha, beta=beta)


class TestValidateStructureInput:
    def test_canonical_input_passes_everything(self):
        report = validate_structure_input(lz2_structure_input())
        assert report.all_passed()

    def test_corrupted_alpha_fails_condition_2_with_witness(self):
        si = lz2_structure_input()
        si.alpha = copy.deepcopy(si.alpha)
        si.alpha[(0, 0)][(0, 0)] = 1  # stays inside the target class
        report = validate_structure_input(si)
        entry = report.entry("condition_2")
        assert entry.passed is False
        assert entry.witness == ("alpha", 0, 0)
        assert report.entry("alpha_beta_domains").passed

    def test_value_outside_target_class_fails_domains(self):
        si = lz2_structure_input()
        si.beta = copy.deepcopy(si.beta)
        si.beta[(0, 0)][(0, 1)] = 1  # the trivial band has no element 1
        report = validate_structure_input(si)
        assert report.entry("alpha_beta_domains").passed is False

    def test_extracted_rect22_input_passes(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        si = extract_structure(rb, D)
        report = validate_structure_input(si)
        assert report.all_passed()

    def test_cancellation_transfer_condition_has_bite(self):
        # varying alpha across an L-class while the band products cannot tell
        # the arguments apart must trip condition (4), not just condition (5)
        si = lz2_structure_input()
        si.alpha = copy.deepcopy(si.alpha)
        si.alpha[(0, 0)][(0, 1)] = 1
        report = validate_structure_input(si)
        assert report.entry("condition_2").passed
        assert report.entry("condition_4").passed is False
        assert report.entry("condition_5").passed is False
        with pytest.raises(AxiomViolation):
            build_w(si)

    def test_mutated_canonical_family_over_normal_bands_is_rejected(self):
        ei = {0: 2, 1: 0}
        el = {0: 0, 1: 1}
        alpha, beta = canonical_alpha_beta(CHAIN2, LNB3, CHAIN2, ei, el)
        alpha[(1, 0)][(1, 1)] = 1
        si = StructureInput(s0=CHAIN2, i_band=LNB3, lambda_band=CHAIN2,
                            e0_in_i=ei, e0_in_lambda=el, alpha=alpha, beta=beta)
        report = validate_structure_input(si)
        assert report.entry("condition_1").passed
        assert report.entry("condition_4").passed is False


def assert_conditions_3_4_match_pairwise(si):
    """Conditions (3) and (4) agree with the pairwise oracle, and a failing
    one names two triples with equal first keys and different second keys."""
    report = validate_structure_input(si)
    for k in (3, 4):
        entry = report.entry(f"condition_{k}")
        if not entry.applicable:
            continue
        assert entry.passed == (oracles.condition_pairwise(si, k) is None), k
        if not entry.passed:
            x, x1, x2, c, e1, f1, e2, f2 = entry.witness
            keys = oracles.condition_keys(si, k)
            (key1, key2), (other1, other2) = keys(x, c, x1, e1, f1), keys(x, c, x2, e2, f2)
            assert key1 == other1 and key2 != other2, (k, entry.witness)
    return report


def single_entry_mutations(si):
    """Every structure input that differs from si in one alpha or beta value."""
    for name, band in (("alpha", si.i_band), ("beta", si.lambda_band)):
        fam = getattr(si, name)
        for key, inner in fam.items():
            for point, value in inner.items():
                for other in range(band.order):
                    if other != value:
                        mutated = dict(fam)
                        mutated[key] = {**inner, point: other}
                        yield dataclasses.replace(si, **{name: mutated})


class TestConditionsAgainstPairwiseOracle:
    def test_single_entry_mutations_of_the_named_inputs(self):
        ei, el = {0: 2, 1: 0}, {0: 0, 1: 1}
        alpha, beta = canonical_alpha_beta(CHAIN2, LNB3, CHAIN2, ei, el)
        cases = [
            lz2_structure_input(),
            StructureInput(s0=CHAIN2, i_band=LNB3, lambda_band=CHAIN2,
                           e0_in_i=ei, e0_in_lambda=el, alpha=alpha, beta=beta),
        ]
        cases += [m for base in list(cases) for m in single_entry_mutations(base)]
        failed = [assert_conditions_3_4_match_pairwise(si).entry("condition_4").passed
                  for si in cases].count(False)
        assert failed >= 2

    def test_single_entry_mutations_of_extracted_structures(self, admissible_corpus):
        checked = failed = 0
        for name, S, D in admissible_corpus:
            if not abundance_profile(S).is_quasi_adequate:
                continue
            for si in single_entry_mutations(extract_structure(S, D)):
                report = assert_conditions_3_4_match_pairwise(si)
                checked += report.entry("condition_3").applicable
                failed += not (report.ok("condition_3") and report.ok("condition_4"))
        assert checked > 0 and failed > 0, (checked, failed)


def in_domain_mutations(si):
    """Every structure input that differs from si in one alpha or beta value,
    replaced by another member of its target class, so that the domain check
    still passes."""
    plus, star, _, _ = oracles._structure_frame(si)
    m0 = si.s0.table
    l_class = {e: c for c in oracles.green_l_classes(si.i_band.table) for e in c}
    r_class = {f: c for c in oracles.green_r_classes(si.lambda_band.table) for f in c}
    for name, target in (("alpha", lambda x, y: l_class[si.e0_in_i[plus[m0[x][y]]]]),
                         ("beta", lambda x, y: r_class[si.e0_in_lambda[star[m0[x][y]]]])):
        fam = getattr(si, name)
        for (x, y), inner in fam.items():
            for point, value in inner.items():
                for other in target(x, y):
                    if other != value:
                        mutated = dict(fam)
                        mutated[(x, y)] = {**inner, point: other}
                        yield dataclasses.replace(si, **{name: mutated})


def wide_product_structure():
    """rect_band(2,2) x brandt2 (order 20, past the transversal cap): every
    band class on both sides has two elements."""
    S, T = catalog("rect_band(2,2)"), catalog("brandt2")
    P = direct_product(S, T)
    D = verify_adequate_transversal(P, [a * T.order + b for a in (0,) for b in range(T.order)])
    return extract_structure(P, D)


@pytest.fixture(scope="module")
def condition_1_inputs(admissible_corpus):
    """Extracted structures of the admissible corpus and of one wide product,
    with their in-domain single-entry mutants."""
    bases = [extract_structure(S, D) for _, S, D in admissible_corpus
             if abundance_profile(S).is_quasi_adequate]
    bases.append(wide_product_structure())
    return [m for base in bases for m in [base, *in_domain_mutations(base)]]


class TestCondition1AgainstPlainScan:
    def test_verdict_and_first_witness(self, condition_1_inputs):
        kinds = []
        for si in condition_1_inputs:
            report = validate_structure_input(si)
            assert report.ok("alpha_beta_domains")
            entry = report.entry("condition_1")
            assert entry.witness == oracles.condition_1_scan(si)
            assert entry.passed == (entry.witness is None)
            kinds.append(entry.witness and entry.witness[0])
        assert {"alpha", "beta", None} == set(kinds)

    def test_both_sides_lie_in_the_class_of_xyz(self, condition_1_inputs):
        # the fact that lets condition (1) skip a part whose class has one element
        for si in condition_1_inputs:
            assert oracles.condition_1_class_escape(si) is None


class TestBuildW:
    def test_left_zero_band_from_trivial_seed(self):
        b = build_w(lz2_structure_input())
        assert b.w.order == 2
        assert b.element_legend == ((0, 0, 0), (1, 0, 0))
        assert find_isomorphism(b.w, LZ2) is not None

    def test_all_singleton_classes_reproduce_the_seed(self):
        alpha, beta = canonical_alpha_beta(CHAIN2, CHAIN2, CHAIN2,
                                           {0: 0, 1: 1}, {0: 0, 1: 1})
        si = StructureInput(s0=CHAIN2, i_band=CHAIN2, lambda_band=CHAIN2,
                            e0_in_i={0: 0, 1: 1}, e0_in_lambda={0: 0, 1: 1},
                            alpha=alpha, beta=beta)
        b = build_w(si)
        assert find_isomorphism(b.w, CHAIN2) is not None

    def test_rejects_corrupted_input(self):
        si = lz2_structure_input()
        si.alpha = copy.deepcopy(si.alpha)
        si.alpha[(0, 0)][(0, 0)] = 1
        with pytest.raises(AxiomViolation):
            build_w(si)

    def test_roundtrip_of_rect22(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        b = build_w(extract_structure(rb, D))
        assert find_isomorphism(b.w, rb) is not None

    def test_carrier_size_formula_and_idempotent_fibre(self):
        for name, S, D in admissible_pool(3):
            if not abundance_profile(S).is_quasi_adequate:
                continue
            si = extract_structure(S, D)
            b = build_w(si)
            sp = star_plus(si.s0)
            from adequate.greenstar import green_relations

            gi = green_relations(si.i_band)
            gl = green_relations(si.lambda_band)
            expected = sum(
                len(gi.l.classes[gi.l.class_of[si.e0_in_i[sp.plus[x]]]])
                * len(gl.r.classes[gl.r.class_of[si.e0_in_lambda[sp.star[x]]]])
                for x in range(si.s0.order)
            )
            assert b.w.order == expected, name
            e0 = {x for x in range(si.s0.order) if si.s0.is_idempotent(x)}
            for i, (e, x, f) in enumerate(b.element_legend):
                assert b.w.is_idempotent(i) == (x in e0), name

    def test_decomposition_maps_have_the_displayed_shape(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        si = extract_structure(rb, D)
        b = build_w(si)
        sp = star_plus(si.s0)
        for i, (e, x, f) in enumerate(b.element_legend):
            d = b.decomposition
            assert b.element_legend[d.e_of[i]] == (e, sp.plus[x], sp.plus[x])
            assert b.element_legend[d.bar_of[i]] == (sp.plus[x], x, sp.star[x])
            assert b.element_legend[d.f_of[i]] == (sp.star[x], sp.star[x], f)


class TestNonAssociativeSeed:
    """A seed table that skipped the associativity scan is still refused."""

    # the group {0, 2} with an identity 1 adjoined; 2.2 = 0 becomes 2.2 = 1 in the
    # broken copy, so (0.2).2 = 1 but 0.(2.2) = 0
    Z2_WITH_ONE = ((0, 0, 2), (0, 1, 2), (2, 2, 0))
    BROKEN = ((0, 0, 2), (0, 1, 2), (2, 2, 1))

    def inputs(self):
        S = validate_table(self.Z2_WITH_ONE)
        D = verify_adequate_transversal(S, (0, 1, 2))
        bad = FiniteSemigroup._from_closed(3, self.BROKEN)
        assert oracles.first_non_associative(bad.table) == (0, 2, 2)
        return (dataclasses.replace(extract_structure(S, D), s0=bad),
                dataclasses.replace(extract_action(S, D), s0=bad))

    def test_build_w_refuses_it(self):
        si, _ = self.inputs()
        with pytest.raises(InvariantBroken) as exc:
            build_w(si)
        assert str(exc.value) == "(ab)* != (a*b)* at (2,2)"

    def test_build_semidirect_refuses_it(self):
        _, at = self.inputs()
        with pytest.raises(InvariantBroken) as exc:
            build_semidirect(at)
        assert str(exc.value) == "(ab)* != (a*b)* at (2,2)"


class TestBuildQuasiIdeal:
    def test_left_zero_band(self):
        b = build_quasi_ideal_w(TRIV, LZ2, TRIV, {0: 0}, {0: 0})
        assert find_isomorphism(b.w, LZ2) is not None
        assert b.kind == "quasi_ideal"

    def test_rect22(self):
        b = build_quasi_ideal_w(TRIV, LZ2, RZ2, {0: 0}, {0: 0})
        assert find_isomorphism(b.w, catalog("rect_band(2,2)")) is not None

    def test_three_element_left_normal_band(self):
        # the carrier collects one triple over the top and two over the bottom
        b = build_quasi_ideal_w(CHAIN2, LNB3, CHAIN2, {0: 2, 1: 0}, {0: 0, 1: 1})
        assert b.w.order == 3
        assert len(b.w0) == 2
        prof = transversal_profile(b.w, b.decomposition)
        assert prof.is_quasi_ideal and prof.is_multiplicative
        assert find_isomorphism(b.w, LNB3) is not None

    @pytest.mark.parametrize("e0_in_i, e0_in_lambda, witness", [
        ({0: 5}, {0: 0}, "('injective', (5,))"),
        ({1: 0}, {0: 0}, "('keys', (1,))"),
        ({0: 0}, {0: 3}, "('injective', (3,))"),
    ])
    def test_rejects_bad_embedding(self, e0_in_i, e0_in_lambda, witness):
        with pytest.raises(TransversalInvalid) as excinfo:
            build_quasi_ideal_w(TRIV, LZ2, TRIV, e0_in_i, e0_in_lambda)
        assert str(excinfo.value) == f"band transversal embedding invalid: {witness}"

    def test_rejects_non_normal_band(self):
        with pytest.raises(BandNotNormal):
            build_quasi_ideal_w(CHAIN2, catalog("lrb3"), CHAIN2,
                                {0: 2, 1: 0}, {0: 0, 1: 1})

    def test_agrees_pointwise_with_general_builder(self):
        cases = [
            (TRIV, LZ2, TRIV, {0: 0}, {0: 0}),
            (TRIV, LZ2, RZ2, {0: 0}, {0: 0}),
            (CHAIN2, LNB3, CHAIN2, {0: 2, 1: 0}, {0: 0, 1: 1}),
        ]
        for s0, i_band, lam, ei, el in cases:
            alpha, beta = canonical_alpha_beta(s0, i_band, lam, ei, el)
            si = StructureInput(s0=s0, i_band=i_band, lambda_band=lam,
                                e0_in_i=ei, e0_in_lambda=el, alpha=alpha, beta=beta)
            general = build_w(si)
            special = build_quasi_ideal_w(s0, i_band, lam, ei, el)
            assert general.element_legend == special.element_legend
            assert general.w.table == special.w.table


class TestBuildSpined:
    def test_rect22_from_left_and_right_zero(self):
        d_l = verify_adequate_transversal(LZ2, (0,))
        d_r = verify_adequate_transversal(RZ2, (0,))
        b = build_spined_product(LZ2, d_l, RZ2, d_r, {0: 0})
        assert b.w.order == 4
        assert find_isomorphism(b.w, catalog("rect_band(2,2)")) is not None

    def test_diagonal_of_an_adequate_part(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        b = build_spined_product(b2, D, b2, D, {i: i for i in range(5)})
        assert b.w.order == 5
        assert find_isomorphism(b.w, b2) is not None

    def test_rejects_non_left_adequate(self):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        d_r = verify_adequate_transversal(RZ2, (0,))
        with pytest.raises(NotLeftAdequate):
            build_spined_product(rb, D, RZ2, d_r, {0: 0})

    def test_rejects_non_quasi_ideal(self):
        lrb = catalog("lrb3")
        d_l = verify_adequate_transversal(lrb, (0, 2))
        d_r = verify_adequate_transversal(CHAIN2, (0, 1))
        with pytest.raises(NotQuasiIdeal):
            build_spined_product(lrb, d_l, CHAIN2, d_r, {0: 0, 2: 1})

    def test_rejects_bad_identification(self):
        d_l = verify_adequate_transversal(LZ2, (0,))
        d_r = verify_adequate_transversal(RZ2, (0,))
        with pytest.raises(TransversalMismatch):
            build_spined_product(LZ2, d_l, RZ2, d_r, {0: 1})


class TestBuildSemidirect:
    def test_trivial_seed_on_left_zero_band(self):
        at = ActionTable(s0=TRIV, i_band=LZ2, e0_in_i={0: 0},
                         act={(0, 0): 0, (0, 1): 0})
        b = build_semidirect(at)
        assert b.w.order == 2
        assert b.element_legend == ((0, 0), (1, 0))
        assert find_isomorphism(b.w, LZ2) is not None

    def test_chain_acting_on_left_regular_band(self):
        lrb = catalog("lrb3")
        act = {}
        for e in range(3):
            act[(1, e)] = e      # the top acts as the identity
            act[(0, e)] = 2      # the bottom collapses everything to the zero
        at = ActionTable(s0=CHAIN2, i_band=lrb, e0_in_i={0: 2, 1: 0}, act=act)
        b = build_semidirect(at)
        assert b.w.order == 3
        assert find_isomorphism(b.w, lrb) is not None
        sub, _ = restrict(b.w, b.w0)
        assert find_isomorphism(sub, CHAIN2) is not None
        assert dict(b.condition_flags)["condition_3"] is True

    def test_self_action_by_plus(self):
        b2 = catalog("brandt2")
        sp = star_plus(b2)
        e0 = [x for x in range(5) if b2.is_idempotent(x)]
        eband, parent = restrict(b2, e0)
        back = {p: i for i, p in enumerate(parent)}
        act = {
            (x, i): back[sp.plus[b2.mul(x, parent[i])]]
            for x in range(5) for i in range(len(e0))
        }
        at = ActionTable(s0=b2, i_band=eband,
                         e0_in_i={x: back[x] for x in e0}, act=act)
        b = build_semidirect(at)
        assert find_isomorphism(b.w, b2) is not None

    def test_rejects_action_law_violation(self):
        act = {(0, 0): 0, (0, 1): 1}
        # identity action of the trivial seed is lawful but breaks the class
        # condition only when the embedding expects a; break distributivity
        bad = {(0, 0): 1, (0, 1): 0}
        at = ActionTable(s0=TRIV, i_band=LZ2, e0_in_i={0: 0}, act=bad)
        with pytest.raises((ActionLawViolation, ConditionViolation)):
            build_semidirect(at)

    def test_rejects_non_adequate_seed(self):
        # the two-element right zero band is right adequate but not left
        # adequate, so it fails the adequacy gate before the left ample one
        at = ActionTable(s0=RZ2, i_band=LZ2, e0_in_i={0: 0, 1: 1},
                         act={(x, e): e for x in range(2) for e in range(2)})
        with pytest.raises(NotAdequate) as excinfo:
            build_semidirect(at)
        assert excinfo.type is NotAdequate
        assert str(excinfo.value) == "the acting semigroup must be adequate"

    def test_validate_action_reports_condition_failures(self):
        at = ActionTable(s0=TRIV, i_band=LZ2, e0_in_i={0: 0},
                         act={(0, 0): 1, (0, 1): 1})
        report = validate_action_table(at)
        assert report.entry("condition_1").passed is False


def left_ample_actions(admissible_corpus):
    """The action data extracted from every instance the semidirect builder
    takes: left adequate, quasi-adequate, with a left ample transversal."""
    for name, S, D in admissible_corpus:
        prof = abundance_profile(S)
        if not (prof.is_left_adequate and prof.is_quasi_adequate):
            continue
        sprof = abundance_profile(restrict(S, D.s0)[0])
        if sprof.is_adequate and sprof.is_left_ample:
            yield extract_action(S, D)


class TestCondition2AgainstPairwiseOracle:
    @staticmethod
    def single_entry_mutations(at):
        """Every action that differs from at in one value."""
        for key, value in at.act.items():
            for other in range(at.i_band.order):
                if other != value:
                    yield dataclasses.replace(at, act={**at.act, key: other})

    def test_extracted_actions_and_their_mutations(self, admissible_corpus):
        # same verdict as the pairwise scan, and a failure names two pairs with
        # equal first keys and different second keys
        bases = list(left_ample_actions(admissible_corpus))
        lawful_failures = 0
        for at in bases + [m for base in bases for m in self.single_entry_mutations(base)]:
            report = validate_action_table(at)
            entry = report.entry("condition_2")
            assert entry.passed == (oracles.action_condition2_pairwise(at) is None)
            if not entry.passed:
                x, x1, x2, e1, e2 = entry.witness
                keys = oracles.action_condition2_keys(at)
                (key1, key2), (other1, other2) = keys(x, x1, e1), keys(x, x2, e2)
                assert key1 == other1 and key2 != other2, entry.witness
                lawful_failures += report.ok("action_associative", "action_distributive")
        assert bases and lawful_failures > 0


class TestSemidirectCarrier:
    """The directly built carrier against the ambient product cut down to it."""

    @staticmethod
    def assert_matches_ambient(at):
        b = build_semidirect(at)
        legend, table, labels = oracles.semidirect_by_ambient(
            at.s0.table, at.i_band.table, at.e0_in_i, at.act,
            [at.s0.label(x) for x in range(at.s0.order)],
            [at.i_band.label(e) for e in range(at.i_band.order)],
        )
        assert b.element_legend == legend
        assert b.w.table == table
        assert b.w.labels == labels

    def test_every_left_ample_admissible_instance(self, admissible_corpus):
        done = 0
        for at in left_ample_actions(admissible_corpus):
            self.assert_matches_ambient(at)
            done += 1
        assert done > 0

    def test_action_file(self):
        self.assert_matches_ambient(parse_action_table(DATA / "lz2_action.json"))


def _forge_pass(report, name):
    """report with the entry ``name`` marked as passed."""
    return CheckReport(tuple(
        dataclasses.replace(e, passed=True, witness=None) if e.name == name else e
        for e in report.entries
    ))


# the left zero and the right zero semigroup on {0, 2}, with 1 adjoined as identity
LZ2_ONE = validate_table([[0, 0, 0], [0, 1, 2], [2, 2, 2]])
RZ2_ONE = validate_table([[0, 0, 2], [0, 1, 2], [0, 2, 2]])


class TestBandCertificates:
    """The builders certify I(W) = I and Lambda(W) = Lambda by checking the
    coordinate projections; find_isomorphism is the searching oracle."""

    @staticmethod
    def both_verdicts(b, subset, band, k):
        projected = construct._projection_witness(b.w, b.element_legend, subset, band, k)
        searched = find_isomorphism(restrict(b.w, subset)[0], band)
        return projected is None, searched is not None

    def test_iso_witness_kinds(self):
        # the constant map onto an idempotent respects products: only the
        # bijectivity test rejects it
        assert construct._iso_witness(LZ2, LZ2, (0, 0)) == "not_bijective"
        assert construct._iso_witness(LZ2, LZ2, (0, None)) == "not_bijective"
        assert construct._iso_witness(LZ2, LZ2, (0, 2)) == "not_bijective"
        assert construct._iso_witness(LZ2, RZ2, (0, 1)) == (0, 1)
        assert construct._iso_witness(LZ2, LZ2, (1, 0)) is None

    def test_projection_agrees_with_search(self, admissible_corpus):
        inputs = list(admissible_corpus)
        inputs += [(key, *ladder_rung(key)) for key in ("chain(1)", "left_zero(2)")]
        general = semidirect = 0
        for name, S, D in inputs:
            prof = abundance_profile(S)
            if not prof.is_quasi_adequate:
                continue
            si = extract_structure(S, D)
            b = build_w(si)
            assert dict(b.condition_flags)["condition_5"], name
            assert self.both_verdicts(b, b.decomposition.i_set, si.i_band, 0) == (True, True)
            assert self.both_verdicts(
                b, b.decomposition.lambda_set, si.lambda_band, 2) == (True, True)
            general += 1
            sprof = abundance_profile(restrict(S, D.s0)[0])
            if prof.is_left_adequate and sprof.is_left_ample:
                at = extract_action(S, D)
                b = build_semidirect(at)
                assert dict(b.condition_flags)["condition_3"], name
                assert self.both_verdicts(b, b.decomposition.i_set, at.i_band, 0) == (True, True)
                semidirect += 1
        assert general > 0 and semidirect > 0

    @pytest.mark.parametrize("S, message", [
        (LZ2_ONE, "I(W) is not isomorphic to the left band"),
        (RZ2_ONE, "Lambda(W) is not isomorphic to the right band"),
    ])
    def test_general_certificate_fails_where_condition_5_does(self, S, message):
        # one alpha or beta value moved inside its class keeps (1)-(4) and
        # breaks (5); a report that claims (5) then sends the build to a
        # certificate that must fail
        D = verify_adequate_transversal(S, (0, 1))
        for si in in_domain_mutations(extract_structure(S, D)):
            report = validate_structure_input(si)
            if report.ok(*(f"condition_{k}" for k in range(1, 5))) and not report.ok("condition_5"):
                break
        else:
            pytest.fail("no mutation breaks (5) alone")
        with pytest.raises(PostconditionFailed) as exc:
            construct._build_w(si, _forge_pass(report, "condition_5"))
        assert str(exc.value) == message

    def test_semidirect_certificate_fails_where_condition_3_does(self):
        D = verify_adequate_transversal(LZ2_ONE, (0, 1))
        others = ("s0_adequate", "s0_left_ample", "i_band_left_regular", "i_transversal",
                  "action_total", "action_associative", "action_distributive",
                  "condition_1", "condition_2")
        for at in TestCondition2AgainstPairwiseOracle.single_entry_mutations(
                extract_action(LZ2_ONE, D)):
            report = validate_action_table(at)
            if report.ok(*others) and not report.ok("condition_3"):
                break
        else:
            pytest.fail("no mutation breaks (3) alone")
        with pytest.raises(PostconditionFailed) as exc:
            construct._build_semidirect(at, _forge_pass(report, "condition_3"))
        assert str(exc.value) == "I(W) is not isomorphic to the acting band"


class TestSection4:
    def test_quasi_ideal_over_trivial_seed_is_orthodox(self):
        b = build_quasi_ideal_w(TRIV, LZ2, RZ2, {0: 0}, {0: 0})
        rep = check_section4_specialization(b)
        assert rep.entry("s0_inverse").passed
        assert rep.entry("w_orthodox").passed
        assert rep.entry("inverse_transversal").passed
        assert rep.entry("orthodox_iff_s0_inverse").passed

    def test_brandt_self_build_is_orthodox_and_inverse(self):
        b2 = catalog("brandt2")
        D = verify_adequate_transversal(b2, range(5))
        b = build_w(extract_structure(b2, D))
        rep = check_section4_specialization(b)
        assert rep.entry("w_orthodox").passed
        assert rep.entry("inverse_transversal").passed
        assert abundance_profile(b.w).is_inverse

    def test_semidirect_build_is_left_inverse(self):
        lrb = catalog("lrb3")
        act = {}
        for e in range(3):
            act[(1, e)] = e
            act[(0, e)] = 2
        at = ActionTable(s0=CHAIN2, i_band=lrb, e0_in_i={0: 2, 1: 0}, act=act)
        b = build_semidirect(at)
        rep = check_section4_specialization(b)
        assert rep.entry("s0_inverse").passed
        assert rep.entry("w_left_inverse").passed
        assert rep.entry("inverse_transversal").passed
        eband, _ = restrict(b.w, b.w.idempotents())
        assert band_class(eband).is_left_regular

    def test_non_inverse_seed_is_reported(self):
        # a left zero pair as its own transversal inside the semidirect frame
        at = ActionTable(s0=TRIV, i_band=LZ2, e0_in_i={0: 0},
                         act={(0, 0): 0, (0, 1): 0})
        b = build_semidirect(at)
        rep = check_section4_specialization(b)
        assert rep.entry("s0_inverse").passed  # trivial seed is inverse
        assert rep.entry("orthodox_iff_s0_inverse").passed
