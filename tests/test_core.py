import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import catalog_pool, census_pool
from adequate.catalog import catalog
from adequate.core import (
    FiniteSemigroup,
    Partition,
    band_class,
    direct_product,
    enumerate_congruences,
    enumerate_subsemigroups,
    find_isomorphism,
    generated_subsemigroup,
    identity_partition,
    meet,
    partition_from_class_of,
    partition_from_classes,
    quotient,
    restrict,
    universal_partition,
    validate_table,
)
from adequate.errors import (
    NonSquare,
    NotABand,
    NotACongruence,
    NotAssociative,
    OrderCapExceeded,
    OutOfRange,
)
from adequate.greenstar import band_j_class

CHAIN2 = [[0, 0], [0, 1]]
LZ2 = [[0, 0], [1, 1]]
RZ2 = [[0, 1], [0, 1]]
C2 = [[0, 1], [1, 0]]


def pool_strategy(max_order=3):
    return st.sampled_from(census_pool(max_order))


class TestValidateTable:
    def test_chain_is_valid(self):
        S = validate_table(CHAIN2)
        assert S.order == 2
        assert S.mul(1, 0) == 0

    def test_left_zero_is_valid(self):
        assert validate_table(LZ2).order == 2

    def test_non_associative_witness(self):
        with pytest.raises(NotAssociative) as exc:
            validate_table([[1, 0], [0, 0]])
        assert exc.value.witness == (0, 0, 1)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            validate_table([[0, 0], [0]])
        with pytest.raises(NonSquare):
            validate_table([])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            validate_table([[0, 2], [0, 1]])


def assert_same_verdict_as_triple_loop(table):
    want = oracles.first_non_associative(table)
    try:
        validate_table(table)
    except NotAssociative as exc:
        assert exc.witness == want, table
    else:
        assert want is None, table


class TestAssociativityWitness:
    """The row-at-a-time check against the plain (a, b, c) triple loop."""

    def test_every_table_of_order_at_most_two(self):
        tables = [((0,),)] + [
            (flat[:2], flat[2:]) for flat in itertools.product(range(2), repeat=4)
        ]
        for table in tables:
            assert_same_verdict_as_triple_loop(table)
        assert sum(oracles.first_non_associative(t) is None for t in tables) == 9

    def test_single_cell_mutants_of_census_classes(self):
        mutants = 0
        for S in census_pool(4):
            n = S.order
            for a, b in itertools.product(range(n), repeat=2):
                for v in range(n):
                    if v != S.table[a][b]:
                        table = [list(row) for row in S.table]
                        table[a][b] = v
                        assert_same_verdict_as_triple_loop(table)
                        mutants += 1
        assert mutants == 5 * 4 + 24 * 18 + 188 * 48

    def test_seeded_random_tables(self):
        rng = random.Random(20100)
        for _ in range(3000):
            n = rng.randint(3, 6)
            assert_same_verdict_as_triple_loop(
                [[rng.randrange(n) for _ in range(n)] for _ in range(n)])


SRC = Path(__file__).resolve().parent.parent / "src" / "adequate"
CLOSURE_CONSTRUCTIONS = {"restrict", "direct_product", "quotient"}


def _ladder_inputs():
    """The rung34 and rung68 products of the benchmark's ladder."""
    base = catalog("sym_inv(3)")
    return [direct_product(base, catalog(key)) for key in ("chain(1)", "left_zero(2)")]


class TestTrustedConstructor:
    def test_only_closure_constructions_skip_associativity(self):
        refs = []  # (file, innermost enclosing function) of each use of _from_closed

        def visit(node, path, fn):
            for child in ast.iter_child_nodes(node):
                if getattr(child, "attr", getattr(child, "id", None)) == "_from_closed":
                    refs.append((path.name, fn))
                inner = child.name if isinstance(child, ast.FunctionDef) else fn
                visit(child, path, inner)

        for path in sorted(SRC.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
        assert sorted(refs) == [("core.py", name) for name in sorted(CLOSURE_CONSTRUCTIONS)]

    def test_outputs_equal_fully_validated_semigroups(self):
        outputs = []
        for S in [S for _, S in catalog_pool()] + _ladder_inputs():
            for seed in ([], *((x,) for x in range(min(S.order, 5))), S.idempotents()):
                sub = generated_subsemigroup(S, seed) if seed else range(S.order)
                outputs.append(restrict(S, sub)[0])
            congruences = (enumerate_congruences(S) if S.order <= 7
                           else [identity_partition(S.order), universal_partition(S.order)])
            outputs += [quotient(S, p)[0] for p in congruences]
            if S.order <= 7:
                outputs.append(direct_product(S, catalog("left_zero(2)")))
        for P in _ladder_inputs():
            # the kernel of the projection onto sym_inv(3) is a congruence
            width = P.order // 34
            outputs.append(quotient(P, partition_from_class_of(x // width for x in range(P.order)))[0])
        for X in outputs:
            Y = FiniteSemigroup(order=X.order, table=X.table, labels=X.labels)
            assert X == Y and hash(X) == hash(Y)
        assert len(outputs) == 149


class TestGeneratedSubsemigroup:
    def test_idempotent_singleton(self):
        assert generated_subsemigroup(validate_table(CHAIN2), (1,)) == (1,)

    def test_group_generator(self):
        assert generated_subsemigroup(validate_table(C2), (1,)) == (0, 1)

    def test_brandt_single_generator_gives_nilpotent_pair(self):
        # a*a = 0 and nothing else appears, so the closure is {0, a}
        b2 = catalog("brandt2")
        assert generated_subsemigroup(b2, (1,)) == (0, 1)
        assert generated_subsemigroup(b2, (1, 2)) == (0, 1, 2, 3, 4)

    @settings(max_examples=40)
    @given(pool_strategy(), st.data())
    def test_closure_is_idempotent(self, S, data):
        seed = data.draw(st.sets(st.integers(0, S.order - 1), min_size=1))
        closed = generated_subsemigroup(S, tuple(seed))
        assert generated_subsemigroup(S, closed) == closed


class TestEnumerateSubsemigroups:
    def test_chain(self):
        assert enumerate_subsemigroups(validate_table(CHAIN2)) == [(0,), (0, 1), (1,)]

    def test_left_zero(self):
        assert enumerate_subsemigroups(validate_table(LZ2)) == [(0,), (0, 1), (1,)]

    def test_trivial(self):
        assert enumerate_subsemigroups(validate_table([[0]])) == [(0,)]

    def test_cap(self):
        with pytest.raises(OrderCapExceeded):
            enumerate_subsemigroups(catalog("chain(3)"), cap=2)
        with pytest.raises(OrderCapExceeded, match="cap 12"):
            enumerate_subsemigroups(validate_table([[a] * 13 for a in range(13)]), cap=40)


class TestCongruences:
    def test_trivial_has_one(self):
        assert len(enumerate_congruences(validate_table([[0]]))) == 1

    def test_chain_has_two(self):
        assert len(enumerate_congruences(validate_table(CHAIN2))) == 2

    def test_left_zero_has_two(self):
        assert len(enumerate_congruences(validate_table(LZ2))) == 2

    def test_cap(self):
        with pytest.raises(OrderCapExceeded):
            enumerate_congruences(catalog("chain(3)"), cap=2)
        with pytest.raises(OrderCapExceeded, match="cap 10"):
            enumerate_congruences(catalog("chain(11)"), cap=40)

    def test_matches_pair_closure_oracle_up_to_order_4(self):
        for S in census_pool(4):
            got = sorted(p.classes for p in enumerate_congruences(S))
            want = oracles.all_congruences(S.table)
            assert got == want


class TestQuotient:
    def test_identity_partition_gives_isomorphic_copy(self):
        for S in census_pool(3)[:12]:
            Q, nat = quotient(S, identity_partition(S.order))
            assert find_isomorphism(S, Q) is not None
            assert nat == tuple(range(S.order))

    def test_universal_partition_gives_trivial(self):
        Q, nat = quotient(validate_table(LZ2), universal_partition(2))
        assert Q.order == 1
        assert nat == (0, 0)

    def test_not_a_congruence(self):
        # separating the two left zeroes of LZ2 with a third class is fine,
        # but splitting a chain's top from itself is not: use a known failure
        S = catalog("chain(3)")
        p = partition_from_classes(3, [(0, 2), (1,)])
        with pytest.raises(NotACongruence) as exc:
            quotient(S, p)
        assert exc.value.witness is not None

    def test_brandt_group_image(self):
        # the only congruences of brandt2 are the identity and the universal
        # one, so its unique proper group image is trivial
        b2 = catalog("brandt2")
        congs = enumerate_congruences(b2)
        assert sorted(len(c.classes) for c in congs) == [1, 5]
        universal = next(c for c in congs if len(c.classes) == 1)
        Q, nat = quotient(b2, universal)
        assert Q.order == 1 and Q.identity() == 0
        rebuilt = {(nat[a], nat[b], nat[b2.mul(a, b)]) for a in range(5) for b in range(5)}
        assert rebuilt == {(0, 0, 0)}


class TestFindIsomorphism:
    def test_relabelled_left_zero(self):
        T = validate_table([[1, 1], [0, 0]][::-1])
        assert find_isomorphism(validate_table(LZ2), validate_table(LZ2)) == (0, 1)
        assert find_isomorphism(validate_table(LZ2), T) is not None

    def test_left_vs_right_zero(self):
        assert find_isomorphism(validate_table(LZ2), validate_table(RZ2)) is None

    def test_order_mismatch(self):
        assert find_isomorphism(validate_table(CHAIN2), validate_table([[0]])) is None

    def test_found_map_is_lexicographically_least(self):
        S = validate_table(LZ2)
        assert find_isomorphism(S, S) == (0, 1)

    @settings(max_examples=30)
    @given(pool_strategy(), st.randoms())
    def test_relabeling_always_found(self, S, rng):
        perm = list(range(S.order))
        rng.shuffle(perm)
        from adequate.core import relabel_table

        T = FiniteSemigroup(order=S.order, table=relabel_table(S.table, perm))
        phi = find_isomorphism(S, T)
        assert phi is not None
        assert all(T.mul(phi[a], phi[b]) == phi[S.mul(a, b)]
                   for a in range(S.order) for b in range(S.order))


class TestBandClass:
    def test_left_zero_flags(self):
        bc = band_class(validate_table(LZ2))
        assert bc.is_band and bc.is_left_zero and bc.is_left_regular
        assert bc.is_left_normal and bc.is_rectangular and bc.is_normal
        assert not bc.is_right_zero and not bc.is_right_regular
        assert not bc.is_right_normal and not bc.is_semilattice

    def test_chain_is_semilattice(self):
        bc = band_class(validate_table(CHAIN2))
        assert bc.is_semilattice and bc.is_left_normal and bc.is_right_normal

    def test_rect22(self):
        bc = band_class(catalog("rect_band(2,2)"))
        assert bc.is_rectangular
        assert not bc.is_left_regular and not bc.is_right_regular

    def test_non_band_has_all_flags_false(self):
        bc = band_class(validate_table(C2))
        assert not bc.is_band
        assert not any(
            getattr(bc, f) for f in vars(bc) if f != "is_band"
        )

    @settings(max_examples=60)
    @given(pool_strategy())
    def test_implication_lattice(self, S):
        bc = band_class(S)
        if bc.is_semilattice:
            assert bc.is_left_normal and bc.is_right_normal
        if bc.is_left_zero:
            assert bc.is_left_regular
        if bc.is_left_normal:
            assert bc.is_left_regular and bc.is_normal
        if not bc.is_band:
            assert not any(getattr(bc, f) for f in vars(bc) if f != "is_band")


class TestBandJClass:
    def test_chain_top_is_alone(self):
        assert band_j_class(validate_table(CHAIN2), 1) == (1,)

    def test_left_zero_is_one_class(self):
        assert band_j_class(validate_table(LZ2), 0) == (0, 1)

    def test_rect_band_is_simple(self):
        assert band_j_class(catalog("rect_band(2,2)"), 2) == (0, 1, 2, 3)

    def test_not_a_band(self):
        with pytest.raises(NotABand):
            band_j_class(validate_table(C2), 0)

    def test_element_out_of_range(self):
        for e in (-1, 2):
            with pytest.raises(OutOfRange):
                band_j_class(validate_table(LZ2), e)

    @settings(max_examples=40)
    @given(pool_strategy(), st.data())
    def test_symmetry(self, S, data):
        if not all(S.is_idempotent(x) for x in range(S.order)):
            return
        e = data.draw(st.integers(0, S.order - 1))
        f = data.draw(st.integers(0, S.order - 1))
        assert (f in band_j_class(S, e)) == (e in band_j_class(S, f))


class TestPartition:
    def test_canonical_ids_follow_least_members(self):
        p = partition_from_classes(4, [(3, 1), (0, 2)])
        assert p.class_of == (0, 1, 0, 1)
        assert p.classes == ((0, 2), (1, 3))

    def test_meet(self):
        p = partition_from_classes(4, [(0, 1), (2, 3)])
        q = partition_from_classes(4, [(0, 1, 2), (3,)])
        assert meet(p, q).classes == ((0, 1), (2,), (3,))

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    def test_class_of_and_classes_consistent(self, seq):
        from adequate.core import partition_from_class_of

        p = partition_from_class_of(seq)
        for cls_id, cls in enumerate(p.classes):
            for x in cls:
                assert p.class_of[x] == cls_id
        assert sorted(x for cls in p.classes for x in cls) == list(range(len(seq)))


def test_direct_product_orders():
    S = direct_product(validate_table(LZ2), validate_table(CHAIN2))
    assert S.order == 4
    assert band_class(S).is_band
