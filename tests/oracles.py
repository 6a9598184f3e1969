"""Independent oracle implementations used to cross-check the library.

Everything here recomputes results straight from definitions with different
mechanics than the library paths (kernel partitions instead of multiplier
scans, itertools table scans instead of DFS, union-find closures instead of
restricted-growth filters), so agreement is meaningful.
"""

from __future__ import annotations

import itertools


def _with_identity(table):
    n = len(table)
    out = [list(row) + [a] for a, row in enumerate(table)]
    out.append(list(range(n + 1)))
    return out


def _kernel_of_column(t1, a):
    by_value: dict = {}
    for x in range(len(t1)):
        by_value.setdefault(t1[x][a], []).append(x)
    return frozenset(frozenset(v) for v in by_value.values())


def _kernel_of_row(t1, a):
    by_value: dict = {}
    for x in range(len(t1)):
        by_value.setdefault(t1[a][x], []).append(x)
    return frozenset(frozenset(v) for v in by_value.values())


def _classes_by_key(n, keys):
    groups: dict = {}
    for a in range(n):
        groups.setdefault(keys[a], []).append(a)
    return sorted(tuple(sorted(g)) for g in groups.values())


def rstar_classes(table):
    """R*-classes: a and b related iff the kernels of x -> xa and x -> xb agree."""
    t1 = _with_identity(table)
    keys = [_kernel_of_column(t1, a) for a in range(len(table))]
    return _classes_by_key(len(table), keys)


def lstar_classes(table):
    t1 = _with_identity(table)
    keys = [_kernel_of_row(t1, a) for a in range(len(table))]
    return _classes_by_key(len(table), keys)


def green_r_classes(table):
    n = len(table)
    keys = [frozenset({a} | {table[a][s] for s in range(n)}) for a in range(n)]
    return _classes_by_key(n, keys)


def green_l_classes(table):
    n = len(table)
    keys = [frozenset({a} | {table[s][a] for s in range(n)}) for a in range(n)]
    return _classes_by_key(n, keys)


def is_associative(table) -> bool:
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )


def all_semigroup_tables(n):
    """Every associative table on n elements by exhaustive scan; n <= 3 only."""
    cells = n * n
    for flat in itertools.product(range(n), repeat=cells):
        table = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if is_associative(table):
            yield table


def canonical_form(table):
    """Least relabeling, with an index-chasing relabel different from the library's."""
    n = len(table)
    best = None
    for p in itertools.permutations(range(n)):
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        cand = tuple(
            tuple(p[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
        )
        if best is None or cand < best:
            best = cand
    return best


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

    gl = green_l_classes(table)
    gr = green_r_classes(table)
    e_of, bar_of, f_of = {}, {}, {}
    for x in range(n):
        triples = []
        for s in members:
            for e in idem:
                if e not in class_of(gl, plus[s]):
                    continue
                for f in idem:
                    if f not in class_of(gr, star[s]):
                        continue
                    if table[table[e][s]][f] == x:
                        triples.append((e, s, f))
        if not triples:
            return "no_decomposition", None
        if len(triples) > 1:
            return "ambiguous", None
        e_of[x], bar_of[x], f_of[x] = triples[0]
    maps = (
        tuple(e_of[x] for x in range(n)),
        tuple(bar_of[x] for x in range(n)),
        tuple(f_of[x] for x in range(n)),
    )
    return "ok", maps


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
