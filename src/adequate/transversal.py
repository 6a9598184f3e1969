"""Adequate transversals: detection, canonical decomposition maps, derived
subsets, property flags, and audits of the identities they are known to satisfy.

An adequate transversal S0 of an abundant semigroup S is an adequate
*-subsemigroup such that every x in S factors uniquely as x = e * xbar * f
with xbar in S0, e Green-L-below xbar+ and f Green-R-below xbar*. Uniqueness
is established here by exhaustive search over candidate triples, never by
trusting the existence proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    FiniteSemigroup,
    SUBSEMIGROUP_CAP,
    band_class,
    enumerate_subsemigroups,
    restrict,
)
from .errors import (
    AmbiguousDecomposition,
    InvariantBroken,
    NoDecomposition,
    NotAbundant,
    NotAdequateSub,
    NotClosed,
    NotRegular,
    NotStarSub,
)
from .greenstar import (
    abundance_profile,
    green_relations,
    regular_and_inverses,
    star_plus,
    star_relations,
)


@dataclass(frozen=True)
class TransversalDecomposition:
    """The canonical maps of a verified adequate transversal.

    All maps are total over the ambient semigroup: ``e_of[x] * bar_of[x] *
    f_of[x] == x`` is the unique admissible factorisation. ``inv0[x]`` is the
    canonical inverse of x inside the transversal for regular x, None
    otherwise.
    """

    s0: tuple[int, ...]
    e_of: tuple[int, ...]
    bar_of: tuple[int, ...]
    f_of: tuple[int, ...]
    e0: tuple[int, ...]
    i_set: tuple[int, ...]
    lambda_set: tuple[int, ...]
    r_set: tuple[int, ...]
    l_set: tuple[int, ...]
    inv0: tuple[int | None, ...]
    plus_of_s0: tuple[tuple[int, int], ...]
    star_of_s0: tuple[tuple[int, int], ...]

    def plus_map(self) -> dict[int, int]:
        """x -> x+ on the transversal, in ambient indices."""
        return dict(self.plus_of_s0)

    def star_map(self) -> dict[int, int]:
        return dict(self.star_of_s0)


def is_star_subsemigroup(S: FiniteSemigroup, U) -> bool:
    """Each member must have idempotents of U in its ambient L*- and R*-classes."""
    members = sorted(set(U))
    mset = set(members)
    for a in members:
        for b in members:
            p = S.table[a][b]
            if p not in mset:
                raise NotClosed(a, b, p)
    return _has_star_idempotents(S, members)


def _has_star_idempotents(S: FiniteSemigroup, members) -> bool:
    """is_star_subsemigroup on a closed, sorted member list."""
    stars = star_relations(S)
    eu = [e for e in members if S.is_idempotent(e)]
    for a in members:
        if not any(stars.lstar.same(e, a) for e in eu):
            return False
        if not any(stars.rstar.same(f, a) for f in eu):
            return False
    return True


def verify_adequate_transversal(S: FiniteSemigroup, s0) -> TransversalDecomposition:
    """Check every defining condition of an adequate transversal and build the maps.

    Raises the first failed gate: S abundant; s0 a closed, adequate,
    *-subsemigroup; every x with exactly one factorisation triple. The
    returned decomposition has all of its documented consequences re-verified,
    so a surviving return value can be trusted downstream.
    """
    return _verify_cached(S, tuple(sorted(set(s0))))


@lru_cache(maxsize=None)
def _verify_cached(S: FiniteSemigroup, s0: tuple) -> TransversalDecomposition:
    prof = abundance_profile(S)
    if not prof.is_abundant:
        raise NotAbundant("the ambient semigroup must be abundant")
    members = tuple(sorted(set(s0)))
    mset = set(members)
    if not members:
        raise NotAdequateSub("empty candidate")
    try:
        sub, to_parent = restrict(S, members)
    except NotClosed as exc:
        raise NotAdequateSub("not closed: %d*%d = %d escapes" % exc.witness) from None
    if not abundance_profile(sub).is_adequate:
        raise NotAdequateSub("candidate is not adequate")
    if not _has_star_idempotents(S, members):
        raise NotStarSub("candidate does not inherit the starred relations")

    sp = star_plus(sub)
    plus_p = {to_parent[i]: to_parent[sp.plus[i]] for i in range(sub.order)}
    star_p = {to_parent[i]: to_parent[sp.star[i]] for i in range(sub.order)}

    green = green_relations(S)
    E = S.idempotents()
    t = S.table
    e_of = [0] * S.order
    bar_of = [0] * S.order
    f_of = [0] * S.order
    # every candidate triple lands in the bucket of its product, in (s, e, f) order
    by_product: list[list[tuple[int, int, int]]] = [[] for _ in range(S.order)]
    for s in members:
        es = [e for e in E if green.l.same(e, plus_p[s])]
        fs = [f for f in E if green.r.same(f, star_p[s])]
        for e in es:
            row = t[t[e][s]]
            for f in fs:
                by_product[row[f]].append((e, s, f))
    for x in range(S.order):
        triples = by_product[x]
        if not triples:
            raise NoDecomposition(x)
        if len(triples) > 1:
            raise AmbiguousDecomposition(x, tuple(sorted(triples)))
        e_of[x], bar_of[x], f_of[x] = triples[0]

    e0 = tuple(e for e in members if S.is_idempotent(e))
    i_set = tuple(sorted(set(e_of)))
    lambda_set = tuple(sorted(set(f_of)))
    r_set = tuple(x for x in range(S.order) if e_of[x] == e_of[bar_of[x]])
    l_set = tuple(x for x in range(S.order) if f_of[x] == f_of[bar_of[x]])

    reg = regular_and_inverses(S)
    inv0: list[int | None] = [None] * S.order
    for x in reg.regular:
        vs0 = [y for y in reg.inverses[x] if y in mset]
        if len(vs0) != 1:
            raise InvariantBroken(f"|V({x}) & S0| = {len(vs0)}, expected 1")
        cands = [y for y in reg.inverses[x] if t[x][y] == e_of[x] and t[y][x] == f_of[x]]
        if len(cands) != 1:
            raise InvariantBroken(f"{len(cands)} canonical inverses for {x}")
        if cands[0] != vs0[0]:
            raise InvariantBroken(f"canonical inverse of {x} is outside the transversal")
        inv0[x] = cands[0]

    D = TransversalDecomposition(
        s0=members,
        e_of=tuple(e_of),
        bar_of=tuple(bar_of),
        f_of=tuple(f_of),
        e0=e0,
        i_set=i_set,
        lambda_set=lambda_set,
        r_set=r_set,
        l_set=l_set,
        inv0=tuple(inv0),
        plus_of_s0=tuple(sorted(plus_p.items())),
        star_of_s0=tuple(sorted(star_p.items())),
    )
    _assert_decomposition_consequences(S, D)
    return D


def _assert_decomposition_consequences(S: FiniteSemigroup, D: TransversalDecomposition):
    stars = star_relations(S)
    plus_p = D.plus_map()
    star_p = D.star_map()
    for x in range(S.order):
        if not stars.rstar.same(D.e_of[x], x) or not stars.lstar.same(D.f_of[x], x):
            raise InvariantBroken(f"e_x, f_x not in the starred classes of {x}")
    for s in D.s0:
        if D.e_of[s] != plus_p[s] or D.bar_of[s] != s or D.f_of[s] != star_p[s]:
            raise InvariantBroken(f"self-factorisation of transversal member {s} is off")
    iset = set(D.i_set)
    lset = set(D.lambda_set)
    for x in range(S.order):
        ri = [e for e in iset if stars.rstar.same(e, x)]
        ll = [f for f in lset if stars.lstar.same(f, x)]
        if len(ri) != 1 or len(ll) != 1:
            raise InvariantBroken(f"starred class of {x} meets I or Lambda != once")


def find_adequate_transversals(S: FiniteSemigroup,
                               cap: int = SUBSEMIGROUP_CAP) -> list[TransversalDecomposition]:
    """Run the verifier over every subsemigroup; return all successes."""
    if not abundance_profile(S).is_abundant:
        return []
    found = []
    for sub in enumerate_subsemigroups(S, cap=cap):
        try:
            found.append(verify_adequate_transversal(S, sub))
        except (NotAdequateSub, NotStarSub, NoDecomposition, AmbiguousDecomposition):
            continue
    return found


@dataclass(frozen=True)
class TransversalProfile:
    """Quasi-ideal / multiplicative / admissible flags with failure witnesses.

    The three published characterisations of quasi-ideal (S0 S S0 within S0,
    Lambda I within S0, R L within S0) are all evaluated and must agree.
    """

    is_quasi_ideal: bool
    is_multiplicative: bool
    is_admissible: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]


def transversal_profile(S: FiniteSemigroup, D: TransversalDecomposition) -> TransversalProfile:
    t = S.table
    s0 = set(D.s0)
    wits: list[tuple[str, tuple[int, ...]]] = []

    qi1 = qi2 = qi3 = True
    # u s v depends on (u, s) only through us: find each product's first bad v once
    first_bad_v: dict[int, int | None] = {}
    for u, s in ((u, s) for u in D.s0 for s in range(S.order)):
        us = t[u][s]
        if us not in first_bad_v:
            row = t[us]
            first_bad_v[us] = next((v for v in D.s0 if row[v] not in s0), None)
        if first_bad_v[us] is not None:
            qi1 = False
            wits.append(("quasi_ideal_sandwich", (u, s, first_bad_v[us])))
            break
    bad = next(((f, e) for f in D.lambda_set for e in D.i_set if t[f][e] not in s0), None)
    if bad is not None:
        qi2 = False
        wits.append(("quasi_ideal_lambda_i", bad))
    bad = next(((r, l) for r in D.r_set for l in D.l_set if t[r][l] not in s0), None)
    if bad is not None:
        qi3 = False
        wits.append(("quasi_ideal_rl", bad))
    if not qi1 == qi2 == qi3:
        raise InvariantBroken(
            f"quasi-ideal characterisations disagree: {qi1}, {qi2}, {qi3}"
        )

    e0 = set(D.e0)
    multiplicative = True
    for f in D.lambda_set:
        for e in D.i_set:
            if t[f][e] not in e0:
                multiplicative = False
                wits.append(("multiplicative", (f, e)))
                break
        if not multiplicative:
            break

    admissible = True
    for x in range(S.order):
        for y in range(S.order):
            if D.bar_of[t[x][y]] != t[D.bar_of[x]][D.bar_of[y]]:
                admissible = False
                wits.append(("admissible", (x, y)))
                break
        if not admissible:
            break

    return TransversalProfile(
        is_quasi_ideal=qi1,
        is_multiplicative=multiplicative,
        is_admissible=admissible,
        witnesses=tuple(wits),
    )


def canonical_inverse(S: FiniteSemigroup, D: TransversalDecomposition, x: int) -> int:
    """The unique inverse y of x with xy = e_x and yx = f_x.

    Also re-checks the derived chain: y lies in the transversal,
    bar(x) = x00 and x0 = x000.
    """
    reg = regular_and_inverses(S)
    if x not in set(reg.regular):
        raise NotRegular(f"element {x} is not regular")
    x0 = D.inv0[x]
    if x0 is None:
        raise InvariantBroken(f"regular element {x} has no stored inverse")
    x00 = D.inv0[x0]
    if x00 is None or D.bar_of[x] != x00:
        raise InvariantBroken(f"bar({x}) != double inverse")
    x000 = D.inv0[x00]
    if x000 != x0:
        raise InvariantBroken(f"triple inverse of {x} differs from its inverse")
    return x0


# --- identity audits ----------------------------------------------------------


@dataclass(frozen=True)
class CheckEntry:
    name: str
    applicable: bool
    passed: bool | None
    witness: tuple | None = None


@dataclass(frozen=True)
class CheckReport:
    """Named checks with witnesses: identity audits, builder input
    validation, regular-case specialisations and roundtrip legs."""

    entries: tuple[CheckEntry, ...]

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def ok(self, *names: str) -> bool:
        return all(self.entry(n).passed for n in names)

    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries if e.applicable)

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if e.applicable and not e.passed)


def audit_identities(S: FiniteSemigroup, D: TransversalDecomposition) -> CheckReport:
    """Evaluate every identity the decomposition is known to satisfy.

    Failures are report entries with witnesses, never exceptions, so the CLI
    can surface complete audits. Checks that need extra hypotheses (regular
    elements closed under products, quasi-adequacy, quasi-ideal or admissible
    transversal) are marked inapplicable when those fail.

    Each scan reports its first witness in lexicographic order, also where
    scans share a pass: the x-ybar lemma, the e/f theorem and the
    factorisation run as one pass over (x, y), and ``quasi_adequate_c2`` and
    ``reg_inverse_identities`` as one pass over regular pairs once closure of
    the regular elements is known. When the profile says D is admissible, the
    three ``bar_proposition_*`` entries pass unscanned: bar(xy) = bar(x)bar(y)
    for all x, y in S, so in particular on Lambda x I, L x R and S0 x S0.
    """
    return _audit_identities(S, D, transversal_profile(S, D))


def _audit_identities(S: FiniteSemigroup, D: TransversalDecomposition,
                      tprof: TransversalProfile) -> CheckReport:
    """audit_identities on a decomposition whose transversal profile is at hand."""
    t = S.table
    n = S.order
    stars = star_relations(S)
    green = green_relations(S)
    reg = regular_and_inverses(S)
    prof = abundance_profile(S)
    e_of, bar_of, f_of, inv0 = D.e_of, D.bar_of, D.f_of, D.inv0
    plus_p = D.plus_map()
    star_p = D.star_map()
    entries: list[CheckEntry] = []

    def add(name, applicable, passed=None, witness=None):
        entries.append(CheckEntry(name, applicable, passed, witness))

    def scan(name, gen):
        for witness in gen:
            add(name, True, False, witness)
            return
        add(name, True, True)

    # factorisation maps against the starred relations and transversal members
    rc, lc = stars.rstar.class_of, stars.lstar.class_of
    scan("e_f_lemma_1", (
        (x,) for x in range(n) if not (rc[e_of[x]] == rc[x] and lc[f_of[x]] == lc[x])
    ))
    e0 = set(D.e0)
    scan("e_f_lemma_2", (
        (x,) for x in D.s0
        if not (e_of[x] == plus_p[x] and e_of[x] in e0
                and bar_of[x] == x and f_of[x] == star_p[x] and f_of[x] in e0)
    ))
    scan("e_f_lemma_3", (
        (x,) for x in D.e0 if not (e_of[x] == bar_of[x] == f_of[x] == x)
    ))
    scan("e_f_lemma_4", (
        (x,) for x in range(n)
        if not (green.l.same(e_of[bar_of[x]], e_of[x])
                and t[e_of[bar_of[x]]][e_of[x]] == e_of[bar_of[x]]
                and t[e_of[x]][e_of[bar_of[x]]] == e_of[x])
    ))
    scan("e_f_lemma_5", (
        (x,) for x in range(n)
        if not (green.r.same(f_of[bar_of[x]], f_of[x])
                and t[f_of[bar_of[x]]][f_of[x]] == f_of[x]
                and t[f_of[x]][f_of[bar_of[x]]] == f_of[bar_of[x]])
    ))
    # R* is the kernel of e_of exactly when the (class, e_x) pairs match class
    # ids and e values one to one; dually L* and f_of. Else find the first pair.
    if _same_kernel(rc, e_of) and _same_kernel(lc, f_of):
        add("rs_ls_lemma", True, True)
    else:
        scan("rs_ls_lemma", (
            (x, y) for x in range(n) for y in range(n)
            if (rc[x] == rc[y]) != (e_of[x] == e_of[y])
            or (lc[x] == lc[y]) != (f_of[x] == f_of[y])
        ))
    # x in I: e_x = x and xbar = f_x = e_xbar; y in Lambda: e_y = ybar = f_ybar, f_y = y
    scan("i_members", (
        (x,) for x in D.i_set
        if not (e_of[x] == x and bar_of[x] == f_of[x] == e_of[bar_of[x]])
    ))
    scan("lambda_members", (
        (y,) for y in D.lambda_set
        if not (f_of[y] == y and e_of[y] == bar_of[y] == f_of[bar_of[y]])
    ))

    # identities for the canonical inverse when the regular elements are closed;
    # inv0 is read at a product only once closure is known
    regular = reg.regular
    reg_set = set(regular)
    t_closed = all(reg_set.issuperset(map(t[a].__getitem__, regular)) for a in regular)

    # I and Lambda as bands, each restricted once; restrict raises NotClosed on
    # an open set, so it runs only where a check reads the restriction
    bands: dict = {}

    def band(members):
        if members not in bands:
            bands[members] = restrict(S, members)
        return bands[members]

    i_sub = l_sub = i_left = l_right = False
    if (t_closed and regular) or prof.is_quasi_adequate:
        i_sub, l_sub = _is_subband(S, D.i_set), _is_subband(S, D.lambda_set)
        i_left = i_sub and band_class(band(D.i_set)[0]).is_left_regular
        l_right = l_sub and band_class(band(D.lambda_set)[0]).is_right_regular

    c2 = t_closed
    if t_closed and regular:
        inverse_witness = None
        # with u' = inv0[u]: (xy)' = (x'xy)' x' = y' (xyy')' = y' (x'xyy')' x',
        # (xy')' = y'' x' and (x'y)' = y' x''; c2 is (xy)' = y' x' alone
        ys = [(y, inv0[y], inv0[inv0[y]]) for y in regular]
        for x in regular:
            xo = inv0[x]
            xoo = inv0[xo]
            tx, txo, txox = t[x], t[xo], t[t[xo][x]]
            for y, yo, yoo in ys:
                xy, tyo = tx[y], t[yo]
                ixy = inv0[xy]
                if c2 and ixy != tyo[xo]:
                    c2 = False
                if inverse_witness is None:
                    xoxy = txox[y]
                    if not (ixy == t[inv0[xoxy]][xo] == tyo[inv0[t[xy][yo]]]
                            == t[tyo[inv0[t[xoxy][yo]]]][xo]
                            and inv0[tx[yo]] == t[yoo][xo]
                            and inv0[txo[y]] == tyo[xoo]):
                        inverse_witness = (x, y)
                elif not c2:
                    break
            if inverse_witness is not None and not c2:
                break
        add("reg_inverse_identities", True, inverse_witness is None, inverse_witness)
        add("reg_subband_i_lambda", True, i_left and l_right,
            None if i_left and l_right else ("bands", D.i_set, D.lambda_set))
    else:
        add("reg_inverse_identities", False)
        add("reg_subband_i_lambda", False)

    # bar is multiplicative on the published sub-domains
    if tprof.is_admissible:
        for name in ("bar_proposition_lambda_i", "bar_proposition_l_r", "bar_proposition_s0"):
            add(name, True, True)
    else:
        scan("bar_proposition_lambda_i", (
            (x, y) for x in D.lambda_set for y in D.i_set
            if bar_of[t[x][y]] != t[bar_of[x]][bar_of[y]]
        ))
        scan("bar_proposition_l_r", (
            (x, y) for x in D.l_set for y in D.r_set
            if bar_of[t[x][y]] != t[bar_of[x]][bar_of[y]]
        ))
        scan("bar_proposition_s0", (
            (x, y) for x in D.s0 for y in D.s0
            if bar_of[t[x][y]] != t[bar_of[x]][bar_of[y]]
        ))

    # four equivalent characterisations of quasi-adequacy; all-or-none
    c1 = prof.is_quasi_adequate
    # inv0 is read at i and l only once both sets are known to be regular
    c3 = reg_set.issuperset(D.i_set) and reg_set.issuperset(D.lambda_set) and all(
        t[l][i] in reg_set and inv0[t[l][i]] == t[inv0[i]][inv0[l]]
        for l in D.lambda_set for i in D.i_set
    )
    c4 = {t[i][l] for i in D.i_set for l in D.lambda_set} == set(S.idempotents())
    add("quasi_adequate_c1", True, c1)
    add("quasi_adequate_c2", True, c2)
    add("quasi_adequate_c3", True, c3)
    add("quasi_adequate_c4", True, c4)
    add("quasi_adequate_all_or_none", True, c1 == c2 == c3 == c4, (c1, c2, c3, c4))

    if prof.is_quasi_adequate:
        scan("e0_corollary", (
            (x,) for x in S.idempotents() if inv0[x] not in e0
        ))
        semi_ok = _semilattice_transversal_ok(S, D, reg, i_sub and l_sub, i_left, l_right)
        add("e0_semilattice_transversal", True, semi_ok[0], semi_ok[1])
        lr_ok = _band_class_decomposition_ok(S, D, band(D.i_set), band(D.lambda_set))
        add("lx_rx_lemma", True, lr_ok[0], lr_ok[1])
    else:
        add("e0_corollary", False)
        add("e0_semilattice_transversal", False)
        add("lx_rx_lemma", False)

    if tprof.is_quasi_ideal:
        # the right-hand side, bar(xy) = bar(x)bar(y) on S x S, is admissibility
        rhs = tprof.is_admissible
        add("quasi_ideal_admissibility_equiv", True, prof.is_quasi_adequate == rhs,
            (prof.is_quasi_adequate, rhs))
    else:
        add("quasi_ideal_admissibility_equiv", False)

    if prof.is_quasi_adequate and tprof.is_admissible:
        xybar, ef, fact = _first_xy_failures(t, e_of, bar_of, f_of)
        add("xybar_lemma", True, xybar is None, xybar)
        add("ef_theorem", True, ef is None, ef)
        add("ef_factorisation", True, fact is None, fact)
    else:
        add("xybar_lemma", False)
        add("ef_theorem", False)
        add("ef_factorisation", False)

    return CheckReport(entries=tuple(entries))


def _same_kernel(class_of, values) -> bool:
    """Whether class_of[x] == class_of[y] <=> values[x] == values[y] for all x, y."""
    return len(set(zip(class_of, values))) == len(set(class_of)) == len(set(values))


def _first_xy_failures(t, e_of, bar_of, f_of):
    """The first (x, y) in lexicographic order at which each of the x-ybar
    lemma, the e/f theorem and the factorisation fails, or None for each.

    With m = xbar f_x e_y ybar: bar(xy) = bar(m); e_xy = e_x e_m and
    f_xy = f_m f_y; xy = (e_x e_m) bar(m) (f_m f_y). One pass over (x, y)
    keeps each first witness and stops once all three have one.
    """
    n = len(t)
    xybar = ef = fact = None
    for x in range(n):
        tx, tex = t[x], t[e_of[x]]
        tbf = t[t[bar_of[x]][f_of[x]]]
        for y in range(n):
            xy = tx[y]
            m = t[tbf[e_of[y]]][bar_of[y]]
            bm = bar_of[m]
            a = tex[e_of[m]]
            c = t[f_of[m]][f_of[y]]
            if xybar is None and bar_of[xy] != bm:
                xybar = (x, y)
            if ef is None and (e_of[xy] != a or f_of[xy] != c):
                ef = (x, y)
            if fact is None and xy != t[t[a][bm]][c]:
                fact = (x, y)
        if xybar is not None and ef is not None and fact is not None:
            break
    return xybar, ef, fact


def _is_subband(S: FiniteSemigroup, subset) -> bool:
    sset = set(subset)
    return all(
        S.table[a][b] in sset for a in subset for b in subset
    ) and all(S.is_idempotent(a) for a in subset)


def _semilattice_transversal_ok(S, D, reg, subbands, i_left, l_right):
    t = S.table
    e0 = set(D.e0)
    if not subbands:
        return False, ("subband",)
    if not i_left:
        return False, ("i_not_left_regular",)
    if not l_right:
        return False, ("lambda_not_right_regular",)
    for u in D.e0:
        for v in D.e0:
            if t[u][v] != t[v][u] or t[u][v] not in e0:
                return False, ("e0_not_semilattice", u, v)
    for x in set(D.i_set) | set(D.lambda_set):
        ve0 = [y for y in reg.inverses[x] if y in e0]
        if len(ve0) != 1 or D.inv0[x] not in e0 or D.inv0[x] not in set(reg.inverses[x]):
            return False, ("transversal_count", x, tuple(ve0))
    for x in D.e0:
        if D.inv0[x] != x:
            return False, ("e0_not_fixed", x)
    return True, None


def _band_class_decomposition_ok(S, D, i_restricted, l_restricted):
    """For (I, L, left zero), then (Lambda, R, right zero), each band given as
    restrict's pair: every u in E0 lies in the band, its class there is a left
    (right) zero semigroup, these classes cover the band, and the classes of
    u and v multiply into the class of uv. Returns (True, None) or (False,
    the first witness)."""
    return (_band_classes_ok(S, D.e0, i_restricted, "l", "i")
            or _band_classes_ok(S, D.e0, l_restricted, "r", "lambda")
            or (True, None))


def _band_classes_ok(S, e0, restricted, rel, name):
    """One side of _band_class_decomposition_ok; None when it holds."""
    band, parent = restricted
    green = getattr(green_relations(band), rel)
    back = {p: i for i, p in enumerate(parent)}
    side = "left" if rel == "l" else "right"
    covered = set()
    for u in e0:
        if u not in back:
            return False, (f"e0_not_in_{name}", u)
        cls = [parent[x] for x in green.classes[green.class_of[back[u]]]]
        covered.update(cls)
        for a in cls:
            for b in cls:
                if S.table[a][b] != (a if rel == "l" else b):
                    return False, (f"{rel}_class_not_{side}_zero", u, a, b)
    if covered != set(parent):
        return False, (f"{name}_not_covered", tuple(sorted(set(parent) - covered)))
    for u in e0:
        cu = green.classes[green.class_of[back[u]]]
        for v in e0:
            cv = green.classes[green.class_of[back[v]]]
            uv = back[S.table[u][v]]
            for a in cu:
                for b in cv:
                    if not green.same(band.table[a][b], uv):
                        return False, (f"{rel}_product_escapes", u, v, parent[a], parent[b])
    return None
