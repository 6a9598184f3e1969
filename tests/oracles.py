"""Independent oracle implementations used to cross-check the library.

Everything here recomputes results straight from definitions with different
mechanics than the library paths (pairwise quantifier scans instead of
one key per element, itertools table scans instead of DFS, union-find
closures instead of restricted-growth filters), so agreement is meaningful.
"""

from __future__ import annotations

import itertools

from adequate.census import labelled_tables
from adequate.construct import build_spined_product
from adequate.core import FiniteSemigroup, band_class, restrict
from adequate.decompose import extract_spined_factors
from adequate.greenstar import (
    abundance_profile,
    green_relations,
    regular_and_inverses,
    star_relations,
)
from adequate.transversal import (
    CheckEntry,
    CheckReport,
    TransversalDecomposition,
    transversal_profile,
)


def with_identity(table):
    """The table of S^1: a fresh identity appended as the last element."""
    n = len(table)
    out = [list(row) + [a] for a, row in enumerate(table)]
    out.append(list(range(n + 1)))
    return out


def _classes_by_key(n, keys):
    groups: dict = {}
    for a in range(n):
        groups.setdefault(keys[a], []).append(a)
    return sorted(tuple(sorted(g)) for g in groups.values())


def _pairwise_classes(n, related):
    """Classes of an equivalence given pairwise, testing each element against
    one representative per class found so far."""
    classes: list = []
    for x in range(n):
        for cls in classes:
            if related(cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    return sorted(tuple(c) for c in classes)


def rstar_classes(table):
    """R*-classes by the quantifier: a R* b iff xa = ya <=> xb = yb for all x, y in S^1."""
    t1 = with_identity(table)
    m = range(len(t1))

    def related(a, b):
        return all((t1[x][a] == t1[y][a]) == (t1[x][b] == t1[y][b]) for x in m for y in m)

    return _pairwise_classes(len(table), related)


def lstar_classes(table):
    """L*-classes by the quantifier: a L* b iff ax = ay <=> bx = by for all x, y in S^1."""
    t1 = with_identity(table)
    m = range(len(t1))

    def related(a, b):
        return all((t1[a][x] == t1[a][y]) == (t1[b][x] == t1[b][y]) for x in m for y in m)

    return _pairwise_classes(len(table), related)


def green_r_classes(table):
    n = len(table)
    keys = [frozenset({a} | {table[a][s] for s in range(n)}) for a in range(n)]
    return _classes_by_key(n, keys)


def green_l_classes(table):
    n = len(table)
    keys = [frozenset({a} | {table[s][a] for s in range(n)}) for a in range(n)]
    return _classes_by_key(n, keys)


def j_classes(table):
    """Green J-classes by principal two-sided ideals: a J b iff S^1 a S^1 = S^1 b S^1."""
    t1 = with_identity(table)
    m = range(len(t1))
    keys = [frozenset(t1[u][t1[a][v]] for u in m for v in m) for a in range(len(table))]
    return _classes_by_key(len(table), keys)


def first_non_associative(table):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def is_associative(table) -> bool:
    return first_non_associative(table) is None


def ic_bijection_backtrack(table, a, dom, cod) -> bool:
    """Whether some bijection alpha: dom -> cod has x.a = a.(x alpha) for all
    x in dom, by trying the images of dom in order with backtracking."""
    if len(dom) != len(cod):
        return False
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(dom):
            return True
        for z in cod:
            if z not in used and table[a][z] == table[dom[i]][a]:
                used.add(z)
                if extend(i + 1):
                    return True
                used.discard(z)
        return False

    return extend(0)


def all_semigroup_tables(n):
    """Every associative table on n elements by exhaustive scan; n <= 3 only."""
    cells = n * n
    for flat in itertools.product(range(n), repeat=cells):
        table = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if is_associative(table):
            yield table


def relabelings(table):
    """Every relabeling of a table, one per permutation (with repeats), by an
    index-chasing relabel different from the library's."""
    n = len(table)
    for p in itertools.permutations(range(n)):
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        yield tuple(
            tuple(p[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
        )


def canonical_form(table):
    """Least relabeling."""
    return min(relabelings(table))


def census_classes(n):
    """Canonical forms in order of first occurrence, canonicalising every table
    the library's DFS yields: the slow path that orbit marking replaces."""
    seen, out = set(), []
    for table in labelled_tables(n):
        canon = canonical_form(table)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def census_class_count(n) -> tuple[int, int]:
    """(labelled, classes) by full scan; n <= 3."""
    labelled = 0
    seen = set()
    for table in all_semigroup_tables(n):
        labelled += 1
        seen.add(canonical_form(table))
    return labelled, len(seen)


# --- congruences by pair closure --------------------------------------------


def congruence_closure(table, pairs):
    """Least congruence containing the pairs, via union-find and a worklist."""
    n = len(table)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for c in range(n):
            work.append((table[c][a], table[c][b]))
            work.append((table[a][c], table[b][c]))
    return tuple(sorted(tuple(sorted(x for x in range(n) if find(x) == r))
                        for r in set(find(x) for x in range(n))))


def all_congruences(table):
    """Every congruence as a sorted class tuple: all joins of principal ones."""
    n = len(table)
    base_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    found = set()
    for k in range(len(base_pairs) + 1):
        for chosen in itertools.combinations(base_pairs, k):
            found.add(congruence_closure(table, chosen))
    return sorted(found)


# --- adequate transversal oracle ----------------------------------------------


def _sub_table(table, members):
    back = {p: i for i, p in enumerate(members)}
    return [[back[table[a][b]] for b in members] for a in members]


def transversal_check(table, subset):
    """Quantifier-literal re-check of the adequate transversal conditions.

    Returns (status, maps) where status is one of 'not_abundant',
    'not_closed', 'not_adequate', 'not_star', 'no_decomposition',
    'ambiguous', 'ok'; maps is (e_of, bar_of, f_of) when 'ok'.
    """
    n = len(table)
    members = sorted(set(subset))
    mset = set(members)

    rs = rstar_classes(table)
    ls = lstar_classes(table)
    idem = [x for x in range(n) if table[x][x] == x]

    def class_of(classes, x):
        return next(c for c in classes if x in c)

    for cls in rs + ls:
        if not any(e in idem for e in cls):
            return "not_abundant", None

    for a in members:
        for b in members:
            if table[a][b] not in mset:
                return "not_closed", None

    sub = _sub_table(table, members)
    sub_rs = rstar_classes(sub)
    sub_ls = lstar_classes(sub)
    sub_idem = [i for i in range(len(members)) if sub[i][i] == i]
    for cls in sub_rs + sub_ls:
        if not any(e in sub_idem for e in cls):
            return "not_adequate", None
    if any(sub[e][f] != sub[f][e] for e in sub_idem for f in sub_idem):
        return "not_adequate", None

    u_idem = [members[i] for i in sub_idem]
    for a in members:
        if not any(e in class_of(ls, a) for e in u_idem):
            return "not_star", None
        if not any(f in class_of(rs, a) for f in u_idem):
            return "not_star", None

    # unique idempotent of the subsemigroup in each of its starred classes
    plus = {}
    star = {}
    for i, s in enumerate(members):
        rcls = class_of(sub_rs, i)
        lcls = class_of(sub_ls, i)
        plus[s] = members[next(e for e in sub_idem if e in rcls)]
        star[s] = members[next(e for e in sub_idem if e in lcls)]

    by_element = factorisations_by_element(table, members, plus, star)
    for triples in by_element:
        if not triples:
            return "no_decomposition", None
        if len(triples) > 1:
            return "ambiguous", None
    return "ok", tuple(zip(*(triples[0] for triples in by_element)))


def factorisations_by_element(table, members, plus, star):
    """For each x in turn, every (e, s, f) with e s f = x, s in members, e an
    idempotent Green-L-related to plus[s] and f one Green-R-related to star[s],
    in (s, e, f) order."""
    n = len(table)
    idem = [x for x in range(n) if table[x][x] == x]
    l_class = {x: c for c in green_l_classes(table) for x in c}
    r_class = {x: c for c in green_r_classes(table) for x in c}
    out = []
    for x in range(n):
        out.append([
            (e, s, f)
            for s in members
            for e in idem if e in l_class[plus[s]]
            for f in idem if f in r_class[star[s]]
            if table[table[e][s]][f] == x
        ])
    return out


# --- semidirect product through the ambient table ------------------------------


def semidirect_by_ambient(s0_table, band_table, e0_in_band, act, s0_labels, band_labels):
    """The semidirect carrier cut out of the full product on all pairs (e, x).

    The ambient product (e, x)(g, y) = (e.(x.g), xy) is tabulated on every
    pair, checked associative, and restricted to the pairs with e L x+, where
    x+ is the idempotent of x's R*-class in s0 and e L f means ef = e and
    fe = f in the band. Returns (legend, table, labels) in ambient order.
    """
    n0, ni = len(s0_table), len(band_table)
    pairs = [(e, x) for x in range(n0) for e in range(ni)]
    pindex = {p: i for i, p in enumerate(pairs)}
    ambient = [
        [pindex[(band_table[e][act[(x, g)]], s0_table[x][y])] for (g, y) in pairs]
        for (e, x) in pairs
    ]
    assert is_associative(ambient)

    plus = {}
    for cls in rstar_classes(s0_table):
        (idem,) = [u for u in cls if s0_table[u][u] == u]
        for x in cls:
            plus[x] = idem
    member = []
    for i, (e, x) in enumerate(pairs):
        f = e0_in_band[plus[x]]
        if band_table[e][f] == e and band_table[f][e] == f:
            member.append(i)
    mset = set(member)
    assert all(ambient[a][b] in mset for a in member for b in member)
    legend = tuple(pairs[i] for i in member)
    labels = tuple(f"({band_labels[e]},{s0_labels[x]})" for (e, x) in legend)
    return legend, tuple(map(tuple, _sub_table(ambient, member))), labels


# --- structure conditions (3) and (4) by pairwise scan ----------------------------


def _plus_star(s0):
    """x -> x+ and x -> x* in the adequate semigroup with raw table s0."""
    plus, star = {}, {}
    for classes, target in ((rstar_classes(s0), plus), (lstar_classes(s0), star)):
        for cls in classes:
            idem = [u for u in cls if s0[u][u] == u]  # exactly one: s0 is adequate
            target.update((x, idem[0]) for x in cls)
    return plus, star


def _structure_frame(si):
    """x -> x+ and x -> x* in s0, and the band classes L_{x+} in I and R_{x*} in
    Lambda, recomputed from the raw tables of the structure data ``si``."""
    s0 = si.s0.table
    plus, star = _plus_star(s0)
    l_class = {x: c for c in green_l_classes(si.i_band.table) for x in c}
    r_class = {x: c for c in green_r_classes(si.lambda_band.table) for x in c}
    l_plus = [l_class[si.e0_in_i[plus[x]]] for x in range(len(s0))]
    r_star = [r_class[si.e0_in_lambda[star[x]]] for x in range(len(s0))]
    return plus, star, l_plus, r_star


def condition_keys(si, k):
    """keys(x, c, x1, e1, f1) -> (key1, key2) of the triple (e1, x1, f1) in
    structure condition k = 3 (c = e in L_{x+}) or k = 4 (c = f in R_{x*}).

    The condition holds when, at every (x, c), triples with equal key1 have
    equal key2.
    """
    plus, star, _, _ = _structure_frame(si)
    mi, ml, m0 = si.i_band.table, si.lambda_band.table, si.s0.table
    a, b, ei, el = si.alpha, si.beta, si.e0_in_i, si.e0_in_lambda

    def keys3(x, e, x1, e1, f1):
        xs, xp = el[star[x]], plus[x]
        return ((mi[e1][a[(x1, x)][(f1, e)]], m0[x1][x], ml[b[(x1, x)][(f1, e)]][xs]),
                (mi[e1][a[(x1, xp)][(f1, e)]], m0[x1][xp], b[(x1, xp)][(f1, e)]))

    def keys4(x, f, x1, e1, f1):
        xp, xst = ei[plus[x]], star[x]
        return ((mi[xp][a[(x, x1)][(f, e1)]], m0[x][x1], ml[b[(x, x1)][(f, e1)]][f1]),
                (a[(xst, x1)][(f, e1)], m0[xst][x1], ml[b[(xst, x1)][(f, e1)]][f1]))

    return keys3 if k == 3 else keys4


def condition_pairwise(si, k):
    """Structure condition k = 3 or 4 by a scan over every pair of triples:
    the first violation as (x, x1, x2, c, e1, f1, e2, f2), or None."""
    _, _, l_plus, r_star = _structure_frame(si)
    keys = condition_keys(si, k)
    n0 = len(si.s0.table)
    triples = [[(e1, f1) for e1 in l_plus[x1] for f1 in r_star[x1]] for x1 in range(n0)]
    for x in range(n0):
        for x1 in range(n0):
            for x2 in range(n0):
                for c in (l_plus if k == 3 else r_star)[x]:
                    for e1, f1 in triples[x1]:
                        key1, key2 = keys(x, c, x1, e1, f1)
                        for e2, f2 in triples[x2]:
                            other1, other2 = keys(x, c, x2, e2, f2)
                            if key1 == other1 and key2 != other2:
                                return (x, x1, x2, c, e1, f1, e2, f2)
    return None


# --- structure condition (1) by the plain 7-tuple scan ---------------------------


def condition_1_sides(si):
    """Both sides of the two equations of structure condition (1) at every
    (x, y, z, f, g, h, k) in lexicographic order, read from the raw alpha and
    beta dicts: yields (x, y, z, f, g, h, k), (alpha lhs, alpha rhs) and
    (beta lhs, beta rhs). Only for data that passes the domain check."""
    _, _, l_plus, r_star = _structure_frame(si)
    mi, ml, m0 = si.i_band.table, si.lambda_band.table, si.s0.table
    a, b = si.alpha, si.beta
    n0 = len(m0)
    for x, y, z in itertools.product(range(n0), repeat=3):
        xy, yz = m0[x][y], m0[y][z]
        a_xy, a_yz, a_xy_z, a_x_yz = a[(x, y)], a[(y, z)], a[(xy, z)], a[(x, yz)]
        b_xy, b_yz, b_xy_z, b_x_yz = b[(x, y)], b[(y, z)], b[(xy, z)], b[(x, yz)]
        for f, g, h, k in itertools.product(r_star[x], l_plus[y], r_star[y], l_plus[z]):
            bh = ml[b_xy[(f, g)]][h]
            ga = mi[g][a_yz[(h, k)]]
            yield ((x, y, z, f, g, h, k),
                   (mi[a_xy[(f, g)]][a_xy_z[(bh, k)]], a_x_yz[(f, ga)]),
                   (ml[b_x_yz[(f, ga)]][b_yz[(h, k)]], b_xy_z[(bh, k)]))


def condition_1_scan(si):
    """Structure condition (1) with every equation checked: the first
    violation as ("alpha" or "beta", x, y, z, f, g, h, k), or None."""
    for point, (a_lhs, a_rhs), (b_lhs, b_rhs) in condition_1_sides(si):
        if a_lhs != a_rhs:
            return ("alpha",) + point
        if b_lhs != b_rhs:
            return ("beta",) + point
    return None


def condition_1_class_escape(si):
    """The first (x, y, z, f, g, h, k) of structure condition (1) where a side
    of the alpha-equation leaves L_{(xyz)+} in I, or a side of the
    beta-equation leaves R_{(xyz)*} in Lambda; None if there is none."""
    _, _, l_plus, r_star = _structure_frame(si)
    m0 = si.s0.table
    for point, (a1, a2), (b1, b2) in condition_1_sides(si):
        xyz = m0[m0[point[0]][point[1]]][point[2]]
        if not (a1 in l_plus[xyz] and a2 in l_plus[xyz]
                and b1 in r_star[xyz] and b2 in r_star[xyz]):
            return point
    return None


# --- semidirect condition (2) by pairwise scan ----------------------------------


def action_condition2_keys(at):
    """keys(x, x1, e1) -> (key1, key2) of the pair (x1, e1), e1 in L_{x1+}, in
    semidirect condition (2): key1 = (x+ (x.e1), x x1) and key2 = (x*.e1, x* x1).

    The condition holds when, at every x, pairs with equal key1 have equal key2.
    """
    plus, star, l_plus = _action_frame(at)
    t0, ti, act, ei = at.s0.table, at.i_band.table, at.act, at.e0_in_i

    def keys(x, x1, e1):
        xp, xs = ei[plus[x]], star[x]
        return (ti[xp][act[(x, e1)]], t0[x][x1]), (act[(xs, e1)], t0[xs][x1])

    return keys


def action_condition2_pairwise(at):
    """Semidirect condition (2) by a scan over every two pairs (x1, e1),
    (x2, e2): the first violation as (x, x1, x2, e1, e2), or None."""
    _, _, l_plus = _action_frame(at)
    keys = action_condition2_keys(at)
    n0 = len(at.s0.table)
    for x in range(n0):
        for x1 in range(n0):
            for x2 in range(n0):
                for e1 in l_plus[x1]:
                    key1, key2 = keys(x, x1, e1)
                    for e2 in l_plus[x2]:
                        other1, other2 = keys(x, x2, e2)
                        if key1 == other1 and key2 != other2:
                            return (x, x1, x2, e1, e2)
    return None


def _action_frame(at):
    """x -> x+ and x -> x* in s0, and the band classes L_{x+} in I, recomputed
    from the raw tables of the action data ``at``."""
    plus, star = _plus_star(at.s0.table)
    l_class = {x: c for c in green_l_classes(at.i_band.table) for x in c}
    return plus, star, [l_class[at.e0_in_i[plus[x]]] for x in range(at.s0.order)]


# --- audit identities for the canonical inverse, one pair at a time ---------------


def inverse_identities_hold(t, i0, x, y) -> bool:
    """The canonical-inverse identities of the audit at (x, y), with every
    inverse taken through the function ``i0`` and nothing hoisted."""
    xy = t[x][y]
    lhs = i0(xy)
    a = t[i0(t[t[i0(x)][x]][y])][i0(x)]
    b = t[i0(y)][i0(t[t[x][y]][i0(y)])]
    c = t[t[i0(y)][i0(t[t[t[i0(x)][x]][y]][i0(y)])]][i0(x)]
    if not lhs == a == b == c:
        return False
    if i0(t[x][i0(y)]) != t[i0(i0(y))][i0(x)]:
        return False
    if i0(t[i0(x)][y]) != t[i0(y)][i0(i0(x))]:
        return False
    return True


def first_inverse_identity_failure(t, inv0, regular):
    """The first (x, y) over regular x, y at which the identities fail, or None."""
    for x in regular:
        for y in regular:
            if not inverse_identities_hold(t, inv0.__getitem__, x, y):
                return (x, y)
    return None


# --- the identity audit, one scan per entry ------------------------------------


def audit_identities_scan(S: FiniteSemigroup, D: TransversalDecomposition) -> CheckReport:
    """The identity audit with every scan run on its own, in the order of the
    report: each of the x-ybar lemma, the e/f theorem and the factorisation
    recomputes mid(x, y), the bar propositions and the quasi-ideal equivalence
    scan bar over their domains, and I and Lambda are restricted by each check
    that reads them."""
    t = S.table
    n = S.order
    stars = star_relations(S)
    green = green_relations(S)
    reg = regular_and_inverses(S)
    prof = abundance_profile(S)
    tprof = transversal_profile(S, D)
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
    scan("e_f_lemma_1", (
        (x,) for x in range(n)
        if not (stars.rstar.same(e_of[x], x) and stars.lstar.same(f_of[x], x))
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
    scan("rs_ls_lemma", (
        (x, y) for x in range(n) for y in range(n)
        if stars.rstar.same(x, y) != (e_of[x] == e_of[y])
        or stars.lstar.same(x, y) != (f_of[x] == f_of[y])
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

    # identities for the canonical inverse when the regular elements are closed
    regular = list(reg.regular)
    reg_set = set(regular)
    t_closed = all(t[a][b] in reg_set for a in regular for b in regular)
    if t_closed and regular:

        def inverse_identity_failures():
            # with u' = inv0[u]: (xy)' = (x'xy)' x' = y' (xyy')' = y' (x'xyy')' x',
            # (xy')' = y'' x' and (x'y)' = y' x''
            ys = [(y, inv0[y], inv0[inv0[y]]) for y in regular]
            for x in regular:
                xo = inv0[x]
                xoo = inv0[xo]
                tx, txo, txox = t[x], t[xo], t[t[xo][x]]
                for y, yo, yoo in ys:
                    xy, xoxy, tyo = tx[y], txox[y], t[yo]
                    if not (inv0[xy] == t[inv0[xoxy]][xo] == tyo[inv0[t[xy][yo]]]
                            == t[tyo[inv0[t[xoxy][yo]]]][xo]
                            and inv0[tx[yo]] == t[yoo][xo]
                            and inv0[txo[y]] == tyo[xoo]):
                        yield (x, y)

        scan("reg_inverse_identities", inverse_identity_failures())
        isub_ok = _is_subband(S, D.i_set) and band_class(restrict(S, D.i_set)[0]).is_left_regular
        lsub_ok = _is_subband(S, D.lambda_set) and band_class(
            restrict(S, D.lambda_set)[0]).is_right_regular
        add("reg_subband_i_lambda", True, isub_ok and lsub_ok,
            None if isub_ok and lsub_ok else ("bands", D.i_set, D.lambda_set))
    else:
        add("reg_inverse_identities", False)
        add("reg_subband_i_lambda", False)

    # bar is multiplicative on the published sub-domains
    iset, lamset = set(D.i_set), set(D.lambda_set)
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
    c2 = t_closed and all(
        inv0[t[x][y]] == t[inv0[y]][inv0[x]] for x in regular for y in regular
    )
    c3 = all(
        inv0[i] is not None and inv0[l] is not None
        and t[l][i] in reg_set and inv0[t[l][i]] == t[inv0[i]][inv0[l]]
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
        semi_ok = _semilattice_transversal_ok(S, D, reg)
        add("e0_semilattice_transversal", True, semi_ok[0], semi_ok[1])
        lr_ok = _band_class_decomposition_ok(S, D)
        add("lx_rx_lemma", True, lr_ok[0], lr_ok[1])
    else:
        add("e0_corollary", False)
        add("e0_semilattice_transversal", False)
        add("lx_rx_lemma", False)

    if tprof.is_quasi_ideal:
        rhs = all(
            bar_of[t[x][y]] == t[bar_of[x]][bar_of[y]] for x in range(n) for y in range(n)
        )
        add("quasi_ideal_admissibility_equiv", True, prof.is_quasi_adequate == rhs,
            (prof.is_quasi_adequate, rhs))
    else:
        add("quasi_ideal_admissibility_equiv", False)

    if prof.is_quasi_adequate and tprof.is_admissible:
        def mid(x, y):
            return t[t[t[bar_of[x]][f_of[x]]][e_of[y]]][bar_of[y]]

        scan("xybar_lemma", (
            (x, y) for x in range(n) for y in range(n)
            if bar_of[t[x][y]] != bar_of[mid(x, y)]
        ))
        scan("ef_theorem", (
            (x, y) for x in range(n) for y in range(n)
            if e_of[t[x][y]] != t[e_of[x]][e_of[mid(x, y)]]
            or f_of[t[x][y]] != t[f_of[mid(x, y)]][f_of[y]]
        ))
        scan("ef_factorisation", (
            (x, y) for x in range(n) for y in range(n)
            if t[x][y] != S.product([
                t[e_of[x]][e_of[mid(x, y)]], bar_of[mid(x, y)], t[f_of[mid(x, y)]][f_of[y]]
            ])
        ))
    else:
        add("xybar_lemma", False)
        add("ef_theorem", False)
        add("ef_factorisation", False)

    return CheckReport(entries=tuple(entries))


def _is_subband(S: FiniteSemigroup, subset) -> bool:
    sset = set(subset)
    return all(
        S.table[a][b] in sset for a in subset for b in subset
    ) and all(S.is_idempotent(a) for a in subset)


def _semilattice_transversal_ok(S, D, reg):
    t = S.table
    e0 = set(D.e0)
    if not _is_subband(S, D.i_set) or not _is_subband(S, D.lambda_set):
        return False, ("subband",)
    if not band_class(restrict(S, D.i_set)[0]).is_left_regular:
        return False, ("i_not_left_regular",)
    if not band_class(restrict(S, D.lambda_set)[0]).is_right_regular:
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


def _band_class_decomposition_ok(S, D):
    iband, i_parent = restrict(S, D.i_set)
    lband, l_parent = restrict(S, D.lambda_set)
    gi = green_relations(iband)
    gl = green_relations(lband)
    i_back = {p: i for i, p in enumerate(i_parent)}
    l_back = {p: i for i, p in enumerate(l_parent)}
    # L-classes of transversal members in the band on I
    covered = set()
    for u in D.e0:
        if u not in D.i_set:
            return False, ("e0_not_in_i", u)
        cls = [i_parent[x] for x in gi.l.classes[gi.l.class_of[i_back[u]]]]
        covered.update(cls)
        for a in cls:
            for b in cls:
                if S.table[a][b] != a:
                    return False, ("l_class_not_left_zero", u, a, b)
    if covered != set(D.i_set):
        return False, ("i_not_covered", tuple(sorted(set(D.i_set) - covered)))
    for u in D.e0:
        for v in D.e0:
            uv = S.table[u][v]
            cu = gi.l.classes[gi.l.class_of[i_back[u]]]
            cv = gi.l.classes[gi.l.class_of[i_back[v]]]
            for a in cu:
                for b in cv:
                    prod = iband.table[a][b]
                    if not gi.l.same(prod, i_back[uv]):
                        return False, ("l_product_escapes", u, v, i_parent[a], i_parent[b])
    covered = set()
    for u in D.e0:
        if u not in D.lambda_set:
            return False, ("e0_not_in_lambda", u)
        cls = [l_parent[x] for x in gl.r.classes[gl.r.class_of[l_back[u]]]]
        covered.update(cls)
        for a in cls:
            for b in cls:
                if S.table[a][b] != b:
                    return False, ("r_class_not_right_zero", u, a, b)
    if covered != set(D.lambda_set):
        return False, ("lambda_not_covered", tuple(sorted(set(D.lambda_set) - covered)))
    for u in D.e0:
        for v in D.e0:
            uv = S.table[u][v]
            cu = gl.r.classes[gl.r.class_of[l_back[u]]]
            cv = gl.r.classes[gl.r.class_of[l_back[v]]]
            for a in cu:
                for b in cv:
                    if not gl.r.same(lband.table[a][b], l_back[uv]):
                        return False, ("r_product_escapes", u, v, l_parent[a], l_parent[b])
    return True, None


# --- the roundtrip's composite map ----------------------------------------------


def spined_theta_scan(S: FiniteSemigroup, D: TransversalDecomposition, rebuilt):
    """theta: (g, x, l) -> (gx, xl) from the rebuilt triple semigroup onto a
    fresh spined rebuild of S, scanned over every pair of elements. None when
    theta is a bijective morphism, else the first failure: a triple whose
    image is not a spined element, a repeated image, or a pair (a, b)."""
    (l_part, d_l), (r_part, d_r), ident = extract_spined_factors(S, D)
    spined = build_spined_product(l_part, d_l, r_part, d_r, ident)
    l_back = {p: i for i, p in enumerate(sorted(set(D.l_set)))}
    r_back = {p: i for i, p in enumerate(sorted(set(D.r_set)))}
    pidx = spined.legend_index()
    t = S.table
    theta = []
    for g, x, l in rebuilt.element_legend:
        gp, xp, lp = D.i_set[g], D.s0[x], D.lambda_set[l]
        image = pidx.get((l_back[t[gp][xp]], r_back[t[xp][lp]]))
        if image is None:
            return ("theta_off_carrier", (g, x, l))
        theta.append(image)
    if sorted(theta) != list(range(spined.w.order)):
        return ("theta_not_bijective",)
    w, p = rebuilt.w.table, spined.w.table
    for a, b in itertools.product(range(rebuilt.w.order), repeat=2):
        if theta[w[a][b]] != p[theta[a]][theta[b]]:
            return ("theta_morphism", a, b)
    return None
