"""Starred and classical Green's relations, and the classification predicates
built from them (abundant, adequate, quasi-adequate, ample, IC, bountiful).

R and L come from principal one-sided ideals over S^1, D is their join, and
J = D because the semigroups are finite; the J-classes of a band, which the
relation delta is taken over, are therefore its D-classes.

R* relates a and b when left multiplier equalities agree: xa = ya iff xb = yb
for all x, y in S^1; L* is the right-multiplication dual. That holds exactly
when the maps x -> xa and x -> xb on S^1 have the same kernel, so each element
is keyed once by the kernel of its column (R*) or row (L*) over S^1, and
elements with equal keys form the classes. The pairwise quantifier scan is kept
in the test suite as the oracle this is checked against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    CONGRUENCE_CAP,
    FiniteSemigroup,
    Partition,
    enumerate_congruences,
    generated_subsemigroup,
    is_morphism,
    meet,
    join,
    partition_from_class_of,
    partition_from_pairs,
    quotient,
    restrict,
)
from .errors import (
    InvariantBroken,
    NoMinimum,
    NotABand,
    NotACongruence,
    NotAdequate,
    NotAMorphism,
    NotQuasiAdequate,
    OutOfRange,
)


@dataclass(frozen=True)
class StarRelations:
    rstar: Partition
    lstar: Partition
    hstar: Partition


@lru_cache(maxsize=None)
def star_relations(S: FiniteSemigroup) -> StarRelations:
    """R*, L* and H* = R* meet L*, by the kernels of the multiplier maps."""
    t = S.table
    rstar = partition_from_class_of(
        _kernel_key(col + (a,)) for a, col in enumerate(zip(*t)))
    lstar = partition_from_class_of(_kernel_key(row + (a,)) for a, row in enumerate(t))
    return StarRelations(rstar=rstar, lstar=lstar, hstar=meet(rstar, lstar))


def _kernel_key(values) -> tuple[int, ...]:
    """The kernel of x -> values[x] as a restricted-growth tuple: equal tuples
    exactly when the two maps identify the same pairs of arguments. The last
    value is the image of the adjoined identity of S^1."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in values)


@dataclass(frozen=True)
class GreenRelations:
    r: Partition
    l: Partition
    h: Partition
    d: Partition
    j: Partition


@lru_cache(maxsize=None)
def green_relations(S: FiniteSemigroup) -> GreenRelations:
    """Classical Green's relations: R and L by principal one-sided ideals over
    S^1, H = R meet L, D = R join L, and J = D (finite)."""
    n = S.order
    t = S.table
    right_ideals = []
    left_ideals = []
    for a in range(n):
        right_ideals.append(frozenset({a} | {t[a][s] for s in range(n)}))
        left_ideals.append(frozenset({a} | {t[s][a] for s in range(n)}))
    r = partition_from_class_of(right_ideals)
    l = partition_from_class_of(left_ideals)
    d = join(r, l)
    return GreenRelations(r=r, l=l, h=meet(r, l), d=d, j=d)


def band_j_partition(E: FiniteSemigroup) -> Partition:
    """All J-classes of a band at once: its D-classes, since J = D (finite)."""
    t = E.table
    n = E.order
    if any(t[x][x] != x for x in range(n)):
        raise NotABand(f"element {next(x for x in range(n) if t[x][x] != x)} is not idempotent")
    return green_relations(E).d


def band_j_class(E: FiniteSemigroup, e: int) -> tuple[int, ...]:
    """The J-class of e inside a band."""
    p = band_j_partition(E)
    if not 0 <= e < E.order:
        raise OutOfRange(e, e, e)
    return p.classes[p.class_of[e]]


@dataclass(frozen=True)
class RegularStructure:
    regular: tuple[int, ...]
    inverses: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def regular_and_inverses(S: FiniteSemigroup) -> RegularStructure:
    """Reg(S) and the inverse sets V(x) = {y : xyx = x, yxy = y}."""
    t = S.table
    n = S.order
    inv = []
    for x in range(n):
        inv.append(tuple(
            y for y in range(n)
            if t[t[x][y]][x] == x and t[t[y][x]][y] == y
        ))
    regular = tuple(x for x in range(n) if inv[x])
    return RegularStructure(regular=regular, inverses=tuple(inv))


@dataclass(frozen=True)
class AbundanceProfile:
    """Classification flags plus, per element, one witness idempotent from its
    R*-class and its L*-class (None where the class has none).

    ``is_left_ample`` is None unless the semigroup is left adequate, since the
    ample condition is only defined there.
    """

    is_abundant: bool
    is_adequate: bool
    is_left_adequate: bool
    is_right_adequate: bool
    is_quasi_adequate: bool
    is_left_ample: bool | None
    is_idempotent_connected: bool
    is_bountiful: bool
    is_regular: bool
    is_orthodox: bool
    is_inverse: bool
    rstar_witness: tuple[int | None, ...]
    lstar_witness: tuple[int | None, ...]


@lru_cache(maxsize=None)
def abundance_profile(S: FiniteSemigroup) -> AbundanceProfile:
    n = S.order
    t = S.table
    E = S.idempotents()
    stars = star_relations(S)
    rstar, lstar = stars.rstar, stars.lstar

    r_idems = [[e for e in E if rstar.same(e, x)] for x in range(n)]
    l_idems = [[e for e in E if lstar.same(e, x)] for x in range(n)]
    rstar_witness = tuple(cl[0] if cl else None for cl in r_idems)
    lstar_witness = tuple(cl[0] if cl else None for cl in l_idems)

    is_abundant = all(w is not None for w in rstar_witness) and all(
        w is not None for w in lstar_witness
    )
    eset = set(E)
    commuting = all(t[e][f] == t[f][e] for e in E for f in E)
    e_closed = all(t[e][f] in eset for e in E for f in E)
    is_adequate = is_abundant and commuting
    is_left_adequate = is_abundant and all(len(cl) == 1 for cl in r_idems)
    is_right_adequate = is_abundant and all(len(cl) == 1 for cl in l_idems)
    is_quasi_adequate = is_abundant and e_closed

    is_left_ample = None
    if is_left_adequate:
        plus = [r_idems[x][0] for x in range(n)]
        is_left_ample = all(
            t[a][e] == t[plus[t[a][e]]][a] for a in range(n) for e in E
        )

    is_ic = _idempotent_connected(S, E, r_idems, l_idems) if is_abundant else False
    is_bountiful = is_ic and is_quasi_adequate

    reg = regular_and_inverses(S)
    is_regular = len(reg.regular) == n
    is_orthodox = is_regular and e_closed
    is_inverse = is_regular and commuting

    return AbundanceProfile(
        is_abundant=is_abundant,
        is_adequate=is_adequate,
        is_left_adequate=is_left_adequate,
        is_right_adequate=is_right_adequate,
        is_quasi_adequate=is_quasi_adequate,
        is_left_ample=is_left_ample,
        is_idempotent_connected=is_ic,
        is_bountiful=is_bountiful,
        is_regular=is_regular,
        is_orthodox=is_orthodox,
        is_inverse=is_inverse,
        rstar_witness=rstar_witness,
        lstar_witness=lstar_witness,
    )


def _generated_below(S: FiniteSemigroup, e: int) -> tuple[int, ...]:
    """Subsemigroup generated by the idempotents below e in the natural order."""
    t = S.table
    below = [f for f in S.idempotents() if t[e][f] == f and t[f][e] == f]
    return generated_subsemigroup(S, below)


def _ic_bijection_exists(S: FiniteSemigroup, a: int, dom, cod) -> bool:
    # need a bijection alpha: dom -> cod with x*a = a*(x alpha). x may go to z
    # exactly when x*a = a*z, so the candidate pairs form one complete bipartite
    # block per product value, and a bijection exists iff dom and cod reach
    # each value equally often
    t = S.table
    return Counter(t[x][a] for x in dom) == Counter(t[a][z] for z in cod)


def _idempotent_connected(S, E, r_idems, l_idems) -> bool:
    for a in range(S.order):
        found = False
        for ap in r_idems[a]:
            dom = _generated_below(S, ap)
            for ast in l_idems[a]:
                cod = _generated_below(S, ast)
                if _ic_bijection_exists(S, a, dom, cod):
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


@dataclass(frozen=True)
class StarPlusMaps:
    """a -> a* (unique idempotent in L*_a) and a -> a+ (unique in R*_a)."""

    star: tuple[int, ...]
    plus: tuple[int, ...]


@lru_cache(maxsize=None)
def star_plus(S: FiniteSemigroup) -> StarPlusMaps:
    prof = abundance_profile(S)
    if not prof.is_adequate:
        raise NotAdequate("star/plus maps need an adequate semigroup")
    star = tuple(prof.lstar_witness)
    plus = tuple(prof.rstar_witness)
    t = S.table
    n = S.order
    for a in range(n):
        if t[plus[a]][a] != a or t[a][star[a]] != a:
            raise InvariantBroken(f"witness idempotent fails to fix {a}")
    for a in range(n):
        for b in range(n):
            if star[t[a][b]] != star[t[star[a]][b]]:
                raise InvariantBroken(f"(ab)* != (a*b)* at ({a},{b})")
            if plus[t[a][b]] != plus[t[a][plus[b]]]:
                raise InvariantBroken(f"(ab)+ != (ab+)+ at ({a},{b})")
    return StarPlusMaps(star=star, plus=plus)


@dataclass(frozen=True)
class DeltaResult:
    """The relation b = eaf over band J-classes of witness idempotents.

    ``pairs`` is the full relation; it is always an equivalence here, so the
    partition is included. When it is also a congruence the quotient and its
    natural map are filled in.
    """

    pairs: frozenset[tuple[int, int]]
    partition: Partition
    is_congruence: bool
    quotient: FiniteSemigroup | None
    natural_map: tuple[int, ...] | None


def delta(S: FiniteSemigroup) -> DeltaResult:
    prof = abundance_profile(S)
    if not prof.is_quasi_adequate:
        raise NotQuasiAdequate("the relation needs a band of idempotents")
    E = S.idempotents()
    Eband, e_parent = restrict(S, E)
    jp = band_j_partition(Eband)
    j_members = [
        tuple(e_parent[f] for f in cls) for cls in jp.classes
    ]
    j_of = {e_parent[x]: jp.class_of[x] for x in range(Eband.order)}

    stars = star_relations(S)
    t = S.table
    n = S.order
    pairs: set[tuple[int, int]] = set()
    for a in range(n):
        plus_choices = [e for e in E if stars.rstar.same(e, a)]
        star_choices = [e for e in E if stars.lstar.same(e, a)]
        images: set[int] | None = None
        for ap in plus_choices:
            for ast in star_choices:
                got = {
                    t[t[e][a]][f]
                    for e in j_members[j_of[ap]]
                    for f in j_members[j_of[ast]]
                }
                if images is None:
                    images = got
                elif images != got:
                    raise InvariantBroken(
                        f"image of element {a} depends on the witness choice"
                    )
        assert images is not None
        pairs.update((a, b) for b in images)

    # the relation is an equivalence for quasi-adequate semigroups; verify
    for a in range(n):
        if (a, a) not in pairs:
            raise InvariantBroken(f"relation not reflexive at {a}")
    for a, b in pairs:
        if (b, a) not in pairs:
            raise InvariantBroken(f"relation not symmetric at ({a},{b})")
    for a, b in pairs:
        for c in range(n):
            if (b, c) in pairs and (a, c) not in pairs:
                raise InvariantBroken(f"relation not transitive at ({a},{b},{c})")

    part = partition_from_pairs(n, pairs)
    try:
        Q, nat = quotient(S, part)
    except NotACongruence:
        return DeltaResult(frozenset(pairs), part, False, None, None)
    return DeltaResult(frozenset(pairs), part, True, Q, nat)


def is_admissible(S: FiniteSemigroup, T: FiniteSemigroup, phi) -> bool:
    """True when the morphism phi preserves R* and L* forward."""
    phi = tuple(phi)
    if len(phi) != S.order or any(not 0 <= y < T.order for y in phi):
        raise NotAMorphism((0, 0))
    bad = is_morphism(S, T, phi)
    if bad is not None:
        raise NotAMorphism(bad)
    ss = star_relations(S)
    st = star_relations(T)
    for cls in ss.rstar.classes:
        for x in cls[1:]:
            if not st.rstar.same(phi[cls[0]], phi[x]):
                return False
    for cls in ss.lstar.classes:
        for x in cls[1:]:
            if not st.lstar.same(phi[cls[0]], phi[x]):
                return False
    return True


def min_adequate_admissible_congruence(S: FiniteSemigroup,
                                       cap: int = CONGRUENCE_CAP) -> Partition:
    """The least congruence with an adequate quotient and admissible natural map.

    Existence is guaranteed for quasi-adequate semigroups; a missing minimum
    therefore surfaces as an error instead of an arbitrary pick.
    """
    prof = abundance_profile(S)
    if not prof.is_quasi_adequate:
        raise NotQuasiAdequate("the minimum congruence is defined for quasi-adequate input")
    good: list[Partition] = []
    for p in enumerate_congruences(S, cap=cap):
        Q, nat = quotient(S, p)
        if abundance_profile(Q).is_adequate and is_admissible(S, Q, nat):
            good.append(p)
    for p in good:
        if all(p.refines(q) for q in good):
            return p
    raise NoMinimum(f"{len(good)} adequate admissible congruences, none least")
