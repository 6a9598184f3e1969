"""Exhaustive enumeration of small semigroups.

Tables are generated by a depth-first fill with incremental associativity
checking: placing table[a][b] = v re-checks exactly the triples whose four
lookups became determined by that cell. Isomorphism reduction is by orbit
marking: the first table of each class is canonicalised to its
lexicographically least relabeling, all n! relabelings of that table are
marked, and every later table of the class is recognised as marked without
being canonicalised.
"""

from __future__ import annotations

import itertools
import warnings

from .core import FiniteSemigroup, relabel_table
from .errors import OrderCapExceeded

CENSUS_CAP = 4
CENSUS_HARD_CAP = 5


def labelled_tables(n: int):
    """Yield every associative n x n table."""
    yield from _tables(n, lambda a, b: range(n))


def band_tables(n: int):
    """Yield every associative n x n table with t[a][a] = a: the labelled bands."""
    yield from _tables(n, lambda a, b: (a,) if a == b else range(n))


def _tables(n: int, choices):
    """Yield every associative n x n table whose cell (a, b) takes a value in
    ``choices(a, b)``.

    Cells are filled diagonal first, then row-major; each placement re-checks
    only the triples it completes, using per-value occurrence stacks to find
    the cells whose product equals the fresh cell's coordinates.
    """
    t = [[-1] * n for _ in range(n)]
    cells = [(a, a) for a in range(n)] + [
        (a, b) for a in range(n) for b in range(n) if a != b
    ]
    values = [choices(a, b) for a, b in cells]
    occ: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    last = len(cells)

    def consistent(a: int, b: int, v: int) -> bool:
        ta, tb, tv = t[a], t[b], t[v]
        for z in range(n):
            bz = tb[z]
            if bz >= 0:
                lhs = tv[z]
                if lhs >= 0:
                    rhs = ta[bz]
                    if rhs >= 0 and lhs != rhs:
                        return False
        for x in range(n):
            tx = t[x]
            xa = tx[a]
            if xa >= 0:
                lhs = t[xa][b]
                if lhs >= 0:
                    rhs = tx[v]
                    if rhs >= 0 and lhs != rhs:
                        return False
        for (x, y) in occ[a]:
            yb = t[y][b]
            if yb >= 0:
                rhs = t[x][yb]
                if rhs >= 0 and rhs != v:
                    return False
        for (y, z) in occ[b]:
            ay = ta[y]
            if ay >= 0:
                lhs = t[ay][z]
                if lhs >= 0 and lhs != v:
                    return False
        return True

    def fill(i: int):
        if i == last:
            yield tuple(tuple(row) for row in t)
            return
        a, b = cells[i]
        row = t[a]
        for v in values[i]:
            row[b] = v
            occ[v].append((a, b))
            if consistent(a, b, v):
                yield from fill(i + 1)
            occ[v].pop()
        row[b] = -1

    yield from fill(0)


def canonical_table(table) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least table over all relabelings."""
    n = len(table)
    return min(relabel_table(table, p) for p in itertools.permutations(range(n)))


def _iso_classes(tables, n: int):
    """Yield the canonical table of each isomorphism class met in ``tables``,
    in order of first occurrence, calling ``canonical_table`` once per class.

    Proof that this yields exactly what canonicalising every table and keeping
    first occurrences yields. The relabelings of a table are exactly the tables
    isomorphic to it, so the marked set is the union of the isomorphism classes
    of the tables yielded so far. A table is therefore marked iff it is
    isomorphic to an earlier table of the stream: it is skipped exactly when
    its canonical form has already been seen, and it starts a new class, with
    the same canonical table, exactly when it has not. Nothing is pruned on an
    observed pattern. Tables are marked as flat ``bytes``, which holds every
    entry since n <= 256.
    """
    perms = list(itertools.permutations(range(n)))
    marked = set()
    for table in tables:
        if bytes(itertools.chain.from_iterable(table)) in marked:
            continue
        canon = canonical_table(table)
        marked.update(
            bytes(itertools.chain.from_iterable(relabel_table(canon, p))) for p in perms
        )
        yield canon


def _check_cap(n: int, max_order: int) -> None:
    """Refuse an order past the cap; warn past the default cap."""
    cap = min(max_order, CENSUS_HARD_CAP)
    if n > cap:
        raise OrderCapExceeded(f"census order {n} exceeds the cap {cap}")
    if n > CENSUS_CAP:
        warnings.warn(f"census at order {n} may take minutes", stacklevel=3)


def enumerate_semigroups(n: int, up_to_iso: bool = True, max_order: int = CENSUS_CAP):
    """Stream all semigroups of order n, optionally one per isomorphism class.

    ``max_order`` can be raised to 5, with a warning; beyond that the search
    space is out of desk range.
    """
    _check_cap(n, max_order)
    if up_to_iso:
        for canon in _iso_classes(labelled_tables(n), n):
            yield FiniteSemigroup(order=n, table=canon)
    else:
        for table in labelled_tables(n):
            yield FiniteSemigroup(order=n, table=table)


def census_counts(n: int, max_order: int = CENSUS_CAP) -> tuple[int, int]:
    """(labelled tables, isomorphism classes) at order n."""
    _check_cap(n, max_order)
    labelled = 0

    def counted():
        nonlocal labelled
        for table in labelled_tables(n):
            labelled += 1
            yield table

    classes = sum(1 for _ in _iso_classes(counted(), n))
    return labelled, classes
