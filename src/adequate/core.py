"""Finite semigroups as validated multiplication tables.

Elements are dense indices 0..n-1 and ``table[a][b]`` is the product a*b.
Labels are display-only. Every value defined here is immutable and hashable,
which lets the analysis functions layered on top be memoised by value.

A table from outside (``FiniteSemigroup(...)``, ``validate_table``, a file,
the census, the catalog, a builder's output) is checked for shape, range and
associativity. ``restrict``, ``quotient`` and ``direct_product`` check shape
and range only: a restriction of an associative table to a closed subset, its
quotient by a congruence and a direct product of two associative tables are
associative, so the O(n^3) scan would prove nothing new.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .errors import (
    NonSquare,
    NotACongruence,
    NotAssociative,
    NotClosed,
    OrderCapExceeded,
    OutOfRange,
)

SUBSEMIGROUP_CAP = 8
CONGRUENCE_CAP = 7
# a raised cap stops here: each further element multiplies the search by about 5
SUBSEMIGROUP_HARD_CAP = 12
CONGRUENCE_HARD_CAP = 10


def _check_shape(order: int, table) -> None:
    if order <= 0:
        raise NonSquare("a semigroup needs at least one element")
    if len(table) != order:
        raise NonSquare(f"{len(table)} rows for order {order}")
    for a in range(order):
        row = table[a]
        if len(row) != order:
            raise NonSquare(f"row {a} has {len(row)} entries, expected {order}")
        for b in range(order):
            v = row[b]
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                raise OutOfRange(a, b, v)


def _check_associative(table) -> None:
    """Raise NotAssociative at the first (a, b, c) in lexicographic order
    with (ab)c != a(bc); the table is a square tuple of tuples."""
    n = len(table)
    if n > 1:
        # row (ab)c over all c against a(bc) gathered in one C call; rescan only a row that differs
        getters = [itemgetter(*row) for row in table]
        bad = ((a, b) for a, ta in enumerate(table) for b, g in enumerate(getters)
               if g(ta) != table[ta[b]])
    else:
        bad = [(0, 0)]  # itemgetter with one key returns a scalar, so scan the one row
    for a, b in bad:
        ta, tab, tb = table[a], table[table[a][b]], table[b]
        for c in range(n):
            if tab[c] != ta[tb[c]]:
                raise NotAssociative((a, b, c))


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup: a square, associative table over element indices.

    The constructor checks shape, range and associativity. Only ``restrict``,
    ``quotient`` and ``direct_product`` use ``_from_closed``, which skips the
    associativity scan: their tables inherit it from associative inputs.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self._freeze()
        _check_associative(self.table)

    @classmethod
    def _from_closed(cls, order: int, table, labels=None) -> "FiniteSemigroup":
        """A semigroup on a table that is associative by construction."""
        S = object.__new__(cls)
        object.__setattr__(S, "order", order)
        object.__setattr__(S, "table", table)
        object.__setattr__(S, "labels", labels)
        S._freeze()
        return S

    def _freeze(self) -> None:
        """Make the table and labels tuples and check shape and range."""
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
            if len(self.labels) != self.order:
                raise ValueError("labels must match the order")
        _check_shape(self.order, self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def product(self, elems) -> int:
        """Left-to-right product of a nonempty sequence of elements."""
        it = iter(elems)
        acc = next(it)
        for x in it:
            acc = self.table[acc][x]
        return acc

    def is_idempotent(self, x: int) -> bool:
        return self.table[x][x] == x

    def idempotents(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.order) if self.table[x][x] == x)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def identity(self) -> int | None:
        for e in range(self.order):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(self.order)):
                return e
        return None


def validate_table(raw, labels=None) -> FiniteSemigroup:
    """Validate a raw square integer table and wrap it as a semigroup."""
    try:
        order = len(raw)
    except TypeError:
        raise NonSquare("table must be a sequence of rows") from None
    return FiniteSemigroup(order=order, table=tuple(tuple(row) for row in raw), labels=labels)


def restrict(S: FiniteSemigroup, subset) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """Restrict S to a closed subset; returns (subsemigroup, index -> parent index)."""
    to_parent = tuple(sorted(set(subset)))
    back = {p: i for i, p in enumerate(to_parent)}
    for a in to_parent:
        for b in to_parent:
            p = S.table[a][b]
            if p not in back:
                raise NotClosed(a, b, p)
    table = tuple(tuple(back[S.table[a][b]] for b in to_parent) for a in to_parent)
    labels = None if S.labels is None else tuple(S.labels[p] for p in to_parent)
    return FiniteSemigroup._from_closed(len(to_parent), table, labels), to_parent


def direct_product(S: FiniteSemigroup, T: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product on pairs, ordered lexicographically."""
    pairs = [(a, b) for a in range(S.order) for b in range(T.order)]
    idx = {p: i for i, p in enumerate(pairs)}
    table = tuple(
        tuple(idx[(S.table[a][c], T.table[b][d])] for (c, d) in pairs) for (a, b) in pairs
    )
    labels = tuple(f"({S.label(a)},{T.label(b)})" for (a, b) in pairs)
    return FiniteSemigroup._from_closed(len(pairs), table, labels)


def relabel_table(table, perm) -> tuple[tuple[int, ...], ...]:
    """Conjugate a raw table by a permutation given as old index -> new index."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = perm[a]
        ta = table[a]
        row = out[pa]
        for b in range(n):
            row[perm[b]] = perm[ta[b]]
    return tuple(tuple(r) for r in out)


def generated_subsemigroup(S: FiniteSemigroup, seed) -> tuple[int, ...]:
    """Least subset containing the seed and closed under the table."""
    current = set(seed)
    for x in current:
        if not 0 <= x < S.order:
            raise OutOfRange(x, x, x)
    frontier = list(current)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(current):
                for p in (S.table[a][b], S.table[b][a]):
                    if p not in current:
                        current.add(p)
                        nxt.append(p)
        frontier = nxt
    return tuple(sorted(current))


def enumerate_subsemigroups(S: FiniteSemigroup, cap: int = SUBSEMIGROUP_CAP) -> list[tuple[int, ...]]:
    """All nonempty multiplication-closed subsets, lexicographically sorted.

    The cap can be raised up to SUBSEMIGROUP_HARD_CAP, no further."""
    n = S.order
    cap = min(cap, SUBSEMIGROUP_HARD_CAP)
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the subsemigroup cap {cap}")
    out = []
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        if all(mask >> S.table[a][b] & 1 for a in members for b in members):
            out.append(tuple(members))
    out.sort()
    return out


# --- partitions ------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """An equivalence relation on 0..n-1 in canonical form.

    Class ids run in order of each class's least element, so two partitions
    are equal exactly when they relate the same pairs.
    """

    order: int
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def same(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def refines(self, other: "Partition") -> bool:
        """True when every class of self lies inside a class of other."""
        return all(
            other.class_of[cls[0]] == other.class_of[x] for cls in self.classes for x in cls
        )

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for cls in self.classes for a in cls for b in cls
        )

    def is_identity(self) -> bool:
        return len(self.classes) == self.order

    def is_universal(self) -> bool:
        return len(self.classes) == 1


def partition_from_class_of(seq) -> Partition:
    seq = list(seq)
    relabel: dict[int, int] = {}
    class_of = []
    for c in seq:
        if c not in relabel:
            relabel[c] = len(relabel)
        class_of.append(relabel[c])
    classes: list[list[int]] = [[] for _ in range(len(relabel))]
    for x, c in enumerate(class_of):
        classes[c].append(x)
    return Partition(order=len(seq), class_of=tuple(class_of),
                     classes=tuple(tuple(c) for c in classes))


def partition_from_classes(n: int, classes) -> Partition:
    class_of = [-1] * n
    for i, cls in enumerate(classes):
        for x in cls:
            if class_of[x] != -1:
                raise ValueError(f"element {x} appears in two classes")
            class_of[x] = i
    if any(c == -1 for c in class_of):
        raise ValueError("classes do not cover all elements")
    return partition_from_class_of(class_of)


def partition_from_pairs(n: int, pairs) -> Partition:
    """Equivalence closure of a set of pairs (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return partition_from_class_of(find(x) for x in range(n))


def identity_partition(n: int) -> Partition:
    return partition_from_class_of(range(n))


def universal_partition(n: int) -> Partition:
    return partition_from_class_of([0] * n)


def meet(p: Partition, q: Partition) -> Partition:
    """Common refinement: related iff related in both."""
    return partition_from_class_of((p.class_of[x], q.class_of[x]) for x in range(p.order))


def join(p: Partition, q: Partition) -> Partition:
    """Least common coarsening (transitive closure of the union)."""
    return partition_from_pairs(
        p.order,
        [(cls[0], x) for cls in p.classes for x in cls]
        + [(cls[0], x) for cls in q.classes for x in cls],
    )


def congruence_witness(S: FiniteSemigroup, p: Partition):
    """None when p is a congruence, else a witness (a, b, c, side)."""
    t = S.table
    co = p.class_of
    for cls in p.classes:
        for i, a in enumerate(cls):
            for b in cls[i + 1:]:
                for c in range(S.order):
                    if co[t[c][a]] != co[t[c][b]]:
                        return (a, b, c, "left")
                    if co[t[a][c]] != co[t[b][c]]:
                        return (a, b, c, "right")
    return None


def enumerate_congruences(S: FiniteSemigroup, cap: int = CONGRUENCE_CAP) -> list[Partition]:
    """All congruences of S, including the identity and universal partitions.

    The cap can be raised up to CONGRUENCE_HARD_CAP, no further."""
    n = S.order
    cap = min(cap, CONGRUENCE_HARD_CAP)
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the congruence cap {cap}")
    out = []
    for rgs in _restricted_growth_strings(n):
        p = partition_from_class_of(rgs)
        if congruence_witness(S, p) is None:
            out.append(p)
    out.sort(key=lambda p: p.class_of)
    return out


def _restricted_growth_strings(n: int):
    a = [0] * n

    def rec(i: int, k: int):
        if i == n:
            yield tuple(a)
            return
        for v in range(k + 1):
            a[i] = v
            yield from rec(i + 1, k + 1 if v == k else k)

    yield from rec(1, 1)


def quotient(S: FiniteSemigroup, p: Partition) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """Quotient by a congruence plus the natural (surjective) morphism."""
    w = congruence_witness(S, p)
    if w is not None:
        raise NotACongruence(w)
    reps = [cls[0] for cls in p.classes]
    table = tuple(
        tuple(p.class_of[S.table[a][b]] for b in reps) for a in reps
    )
    labels = None
    if S.labels is not None:
        labels = tuple("{" + ",".join(S.labels[x] for x in cls) + "}" for cls in p.classes)
    return FiniteSemigroup._from_closed(len(reps), table, labels), p.class_of


# --- isomorphism -------------------------------------------------------------


def _signature(S: FiniteSemigroup, x: int):
    row = S.table[x]
    col = tuple(S.table[a][x] for a in range(S.order))
    return (
        S.is_idempotent(x),
        tuple(sorted(Counter(row).values())),
        tuple(sorted(Counter(col).values())),
        len(set(row)),
        len(set(col)),
    )


def find_isomorphism(S: FiniteSemigroup, T: FiniteSemigroup) -> tuple[int, ...] | None:
    """Search for a bijection phi with phi(ab) = phi(a)phi(b).

    Images are tried in ascending index order among candidates with matching
    invariants, so the first hit is the lexicographically least isomorphism;
    None when the semigroups are not isomorphic.
    """
    if S.order != T.order:
        return None
    n = S.order
    sig_s = [_signature(S, x) for x in range(n)]
    sig_t = [_signature(T, y) for y in range(n)]
    if sorted(sig_s) != sorted(sig_t):
        return None
    cands = [[y for y in range(n) if sig_t[y] == sig_s[x]] for x in range(n)]
    phi = [-1] * n
    used = [False] * n
    ts, tt = S.table, T.table

    def consistent(x: int) -> bool:
        for u in range(x + 1):
            for a, b in ((u, x), (x, u)):
                p = ts[a][b]
                img = tt[phi[a]][phi[b]]
                if phi[p] != -1:
                    if img != phi[p]:
                        return False
                elif used[img]:
                    return False
        return True

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in cands[x]:
            if not used[y]:
                phi[x] = y
                used[y] = True
                if consistent(x) and extend(x + 1):
                    return True
                used[y] = False
        phi[x] = -1
        return False

    return tuple(phi) if extend(0) else None


def is_morphism(S: FiniteSemigroup, T: FiniteSemigroup, phi) -> tuple[int, int] | None:
    """None when phi respects products, else the first bad pair."""
    for a in range(S.order):
        for b in range(S.order):
            if phi[S.table[a][b]] != T.table[phi[a]][phi[b]]:
                return (a, b)
    return None


# --- band classification -----------------------------------------------------


@dataclass(frozen=True)
class BandClassification:
    """Which standard band identities a semigroup satisfies.

    Each flag is the named identity quantified over all elements:
    left zero xy=x, right zero xy=y, rectangular xyx=x, left regular xyx=xy,
    right regular xyx=yx, left normal xyz=xzy, right normal xyz=yxz,
    normal xyzx=xzyx, semilattice = commutative band. Everything except
    ``is_band`` is reported false on non-bands.
    """

    is_band: bool
    is_semilattice: bool
    is_left_zero: bool
    is_right_zero: bool
    is_rectangular: bool
    is_left_regular: bool
    is_right_regular: bool
    is_left_normal: bool
    is_right_normal: bool
    is_normal: bool


@lru_cache(maxsize=None)
def band_class(S: FiniteSemigroup) -> BandClassification:
    t = S.table
    n = S.order
    if any(t[x][x] != x for x in range(n)):
        return BandClassification(*([False] * 10))
    rng = range(n)
    pairs = [(x, y) for x in rng for y in rng]
    left_zero = all(t[x][y] == x for x, y in pairs)
    right_zero = all(t[x][y] == y for x, y in pairs)
    rectangular = all(t[t[x][y]][x] == x for x, y in pairs)
    left_regular = all(t[t[x][y]][x] == t[x][y] for x, y in pairs)
    right_regular = all(t[t[x][y]][x] == t[y][x] for x, y in pairs)
    left_normal = all(t[t[x][y]][z] == t[t[x][z]][y] for x, y in pairs for z in rng)
    right_normal = all(t[t[x][y]][z] == t[t[y][x]][z] for x, y in pairs for z in rng)
    normal = all(t[t[t[x][y]][z]][x] == t[t[t[x][z]][y]][x] for x, y in pairs for z in rng)
    semilattice = all(t[x][y] == t[y][x] for x, y in pairs)
    return BandClassification(
        is_band=True,
        is_semilattice=semilattice,
        is_left_zero=left_zero,
        is_right_zero=right_zero,
        is_rectangular=rectangular,
        is_left_regular=left_regular,
        is_right_regular=right_regular,
        is_left_normal=left_normal,
        is_right_normal=right_normal,
        is_normal=normal,
    )
