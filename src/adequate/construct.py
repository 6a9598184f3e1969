"""Forward builders for semigroups with adequate transversals.

Four constructions live here:

* the general three-coordinate builder on triples (e, x, f) driven by a pair
  of connecting map families alpha and beta,
* its quasi-ideal specialisation where alpha and beta collapse to the
  canonical constants (xy)+ and (xy)*,
* the spined product of a left adequate and a right adequate part over a
  shared quasi-ideal transversal,
* the semidirect product of an adequate, left ample semigroup acting on a
  left regular band.

Every builder re-verifies its advertised postconditions from scratch with the
transversal machinery rather than trusting the construction, so a returned
value is a checked witness, not a promise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteSemigroup, band_class, is_morphism, restrict
from .errors import (
    ActionLawViolation,
    AxiomViolation,
    BandNotNormal,
    ConditionViolation,
    NotAdequate,
    NotLeftAdequate,
    NotLeftAmple,
    NotQuasiIdeal,
    NotRightAdequate,
    PostconditionFailed,
    SemigroupError,
    TransversalInvalid,
    TransversalMismatch,
)
from .greenstar import (
    abundance_profile,
    green_relations,
    regular_and_inverses,
    star_plus,
)
from .transversal import (
    CheckEntry,
    CheckReport,
    TransversalDecomposition,
    transversal_profile,
    verify_adequate_transversal,
)


@dataclass
class StructureInput:
    """Input data for the general builder.

    ``e0_in_i`` and ``e0_in_lambda`` embed the idempotents of ``s0`` into the
    two bands as a shared semilattice transversal. ``alpha[(x, y)]`` maps
    pairs (f, g) with f in the R-class of x* (in the right band) and g in the
    L-class of y+ (in the left band) to an element of the L-class of (xy)+;
    ``beta`` is the same keying into the R-class of (xy)*.
    """

    s0: FiniteSemigroup
    i_band: FiniteSemigroup
    lambda_band: FiniteSemigroup
    e0_in_i: dict
    e0_in_lambda: dict
    alpha: dict
    beta: dict


@dataclass
class ActionTable:
    """A left action of an adequate, left ample semigroup on a left regular band."""

    s0: FiniteSemigroup
    i_band: FiniteSemigroup
    e0_in_i: dict
    act: dict


@dataclass(frozen=True)
class BuiltSemigroup:
    """A constructed semigroup together with its verified transversal.

    ``element_legend[i]`` names element i in the coordinates of the builder
    that produced it: triples (e, x, f), pairs (e, x) for semidirect builds,
    or pairs (x, a) for spined builds. ``w0`` lists the embedded transversal.
    """

    w: FiniteSemigroup
    element_legend: tuple[tuple, ...]
    w0: tuple[int, ...]
    decomposition: TransversalDecomposition
    kind: str
    condition_flags: tuple[tuple[str, bool], ...] = ()
    report: CheckReport | None = None

    def legend_index(self) -> dict:
        return {t: i for i, t in enumerate(self.element_legend)}


# --- shared structural checks ---------------------------------------------


def _embedding_check(s0, band, emb, side):
    """Validate one band-with-semilattice-transversal embedding.

    Returns (ok, witness, inv_map, class_of) where inv_map sends each band
    element to the s0 idempotent naming its unique transversal inverse, and
    class_of sends each s0 idempotent to the members of its L-class (side
    'l') or R-class (side 'r') in the band.
    """
    E0 = [e for e in range(s0.order) if s0.is_idempotent(e)]
    if sorted(emb.keys()) != sorted(E0):
        return False, ("keys", tuple(sorted(emb.keys()))), None, None
    vals = list(emb.values())
    if len(set(vals)) != len(vals) or any(not 0 <= v < band.order for v in vals):
        return False, ("injective", tuple(vals)), None, None
    for u in E0:
        for v in E0:
            if band.table[emb[u]][emb[v]] != emb[s0.table[u][v]]:
                return False, ("morphism", u, v), None, None
    image = {emb[u]: u for u in E0}
    reg = regular_and_inverses(band)
    inv_map = {}
    for x in range(band.order):
        hits = [image[y] for y in reg.inverses[x] if y in image]
        if len(hits) != 1:
            return False, ("transversal_count", x, len(hits)), None, None
        inv_map[x] = hits[0]
    rel = green_relations(band).l if side == "l" else green_relations(band).r
    class_of = {}
    covered = set()
    for u in E0:
        members = tuple(sorted(rel.classes[rel.class_of[emb[u]]]))
        class_of[u] = members
        covered.update(members)
    if covered != set(range(band.order)):
        return False, ("coverage", tuple(sorted(set(range(band.order)) - covered))), None, None
    return True, None, inv_map, class_of


def _class_positions(classes, order):
    """Each band element's position inside its class, for classes covering the band."""
    pos = [0] * order
    for members in classes:
        for j, a in enumerate(members):
            pos[a] = j
    return pos


def validate_structure_input(si: StructureInput) -> CheckReport:
    """Evaluate the structural requirements and the five numbered conditions.

    Everything is reported with a witness on failure; nothing raises. The
    numbered conditions are marked inapplicable when the structural layer is
    too broken to state them.

    Condition (1) runs its alpha-part only where the L-class of (xyz)+ in I
    has more than one element, and its beta-part only where the R-class of
    (xyz)* in Lambda does. The skipped equations cannot fail, once the domain
    check has passed:

    * The embedding check makes E0 a commuting transversal whose L-classes
      cover I, so each D-class of I holds one of them and D = L: I is a left
      regular band, L is a congruence on it, and E0 -> I/L is an isomorphism
      of semilattices. Dually for R on Lambda.
    * s0 is adequate, so (xyz)+ <= (xy)+, (yz)+ <= y+, (xy)* <= y* and
      (xyz)* <= (yz)*.
    * The domain check puts alpha_xy(f, g) in L_{(xy)+} and beta_xy(f, g) in
      R_{(xy)*}. So beta_xy(f, g).h lies in R_{(xy)*} and g.alpha_yz(h, k) in
      L_{(yz)+}: every key condition (1) looks up is in the domain. So is
      every key of (3) and (4), which put x+ or x* where x was and keep its
      class, and of (5), since a band element is D-related to its inverse.
    * Both sides of the alpha-equation then lie in L_{(xyz)+}, and both sides
      of the beta-equation in R_{(xyz)*}. A class with one element forces the
      two sides to be equal.

    Every other equation is checked, in the same order as the plain 7-tuple
    scan, so the first witness is the same.
    """
    entries: list[CheckEntry] = []

    def add(name, applicable, passed=None, witness=None):
        entries.append(CheckEntry(name, applicable, passed, witness))

    s0_ok = abundance_profile(si.s0).is_adequate
    add("s0_adequate", True, s0_ok)
    bi = band_class(si.i_band)
    add("i_band_left_regular", True, bi.is_band and bi.is_left_regular)
    bl = band_class(si.lambda_band)
    add("lambda_band_right_regular", True, bl.is_band and bl.is_right_regular)

    emb_ok = False
    if s0_ok and bi.is_band and bl.is_band:
        oi, wi, i_inv, l_class = _embedding_check(si.s0, si.i_band, si.e0_in_i, "l")
        add("i_transversal", True, oi, wi)
        ol, wl, lam_inv, r_class = _embedding_check(si.s0, si.lambda_band, si.e0_in_lambda, "r")
        add("lambda_transversal", True, ol, wl)
        emb_ok = oi and ol
    else:
        add("i_transversal", False)
        add("lambda_transversal", False)

    if not emb_ok:
        add("alpha_beta_domains", False)
        for k in range(1, 6):
            add(f"condition_{k}", False)
        return CheckReport(tuple(entries))

    sp = star_plus(si.s0)
    n0 = si.s0.order
    L_plus = {x: l_class[sp.plus[x]] for x in range(n0)}
    R_star = {x: r_class[sp.star[x]] for x in range(n0)}
    mul0 = si.s0.table
    mi = si.i_band.table
    ml = si.lambda_band.table
    ei = si.e0_in_i
    el = si.e0_in_lambda

    dom_witness = None
    for x in range(n0):
        for y in range(n0):
            rect = {(f, g) for f in R_star[x] for g in L_plus[y]}
            for fam, target in ((si.alpha, set(L_plus[mul0[x][y]])),
                                (si.beta, set(R_star[mul0[x][y]]))):
                inner = fam.get((x, y))
                if inner is None or set(inner.keys()) != rect:
                    dom_witness = ("keys", x, y)
                    break
                bad = [p for p, v in inner.items() if v not in target]
                if bad:
                    dom_witness = ("target", x, y, bad[0])
                    break
            if dom_witness:
                break
        if dom_witness:
            break
    add("alpha_beta_domains", True, dom_witness is None, dom_witness)
    if dom_witness is not None:
        for k in range(1, 6):
            add(f"condition_{k}", False)
        return CheckReport(tuple(entries))

    alpha, beta = si.alpha, si.beta

    def cond1():
        # alpha_xy(f, g) . alpha_{xy,z}(beta_xy(f, g).h, k) = alpha_{x,yz}(f, g.alpha_yz(h, k))
        # and beta_{x,yz}(f, g.alpha_yz(h, k)) . beta_yz(h, k) = beta_{xy,z}(beta_xy(f, g).h, k).
        # fam[x][y][i][j] is the value at the i-th f of R_{x*} and the j-th g of L_{y+}.
        wide_l = [len(L_plus[w]) > 1 for w in range(n0)]
        wide_r = [len(R_star[w]) > 1 for w in range(n0)]

        shared: dict = {}

        def share(row):
            # equal rows are stored once: in a product most (x, y) repeat a few rows
            return shared.setdefault(row, row)

        def dense(fam, wide):
            if not any(wide):
                # every class on this side has one element: no check of this family
                # runs, and its values are read only for their positions, all 0
                zeros = ((0,) * max(map(len, L_plus.values())),) * max(map(len, R_star.values()))
                return [[zeros] * n0] * n0
            return [[share(tuple(tuple(fam[(x, y)][(f, g)] for g in L_plus[y]) for f in R_star[x]))
                     for y in range(n0)] for x in range(n0)]

        A, B = dense(alpha, wide_l), dense(beta, wide_r)
        # pos_g[g][a]: position of g.a in its L-class; pos_b[b][h]: of b.h in its R-class
        pos_l = _class_positions(l_class.values(), si.i_band.order)
        pos_r = _class_positions(r_class.values(), si.lambda_band.order)
        pos_g = [[pos_l[v] for v in row] for row in mi]
        pos_b = [[pos_r[v] for v in row] for row in ml]
        # (h, k's position, alpha_yz(h, k), beta_yz(h, k)) for every (y, z), listed once
        hk_rows = [[share(tuple((h, j, a, b)
                                for h, a_row, b_row in zip(R_star[y], A[y][z], B[y][z])
                                for j, (a, b) in enumerate(zip(a_row, b_row))))
                    for z in range(n0)] for y in range(n0)]
        for x in range(n0):
            A_x, B_x = A[x], B[x]
            for y in range(n0):
                xy = mul0[x][y]
                A_xy, B_xy, hk_y = A[xy], B[xy], hk_rows[y]
                fg_rows = [(f, i, g, mi[a], pos_b[b], pos_g[g])
                           for i, (f, a_row, b_row) in enumerate(zip(R_star[x], A_x[y], B_x[y]))
                           for g, a, b in zip(L_plus[y], a_row, b_row)]
                for z in range(n0):
                    xyz = mul0[xy][z]
                    do_a, do_b = wide_l[xyz], wide_r[xyz]
                    if not (do_a or do_b):
                        continue
                    yz = mul0[y][z]
                    a_left, b_left = A_xy[z], B_xy[z]
                    a_right, b_right = A_x[yz], B_x[yz]
                    hk = hk_y[z]
                    for f, i, g, ma, bh_pos, ga_pos in fg_rows:
                        ar, br = a_right[i], b_right[i]
                        for h, j, a_yz, b_yz in hk:
                            p, q = bh_pos[h], ga_pos[a_yz]
                            if do_a and ma[a_left[p][j]] != ar[q]:
                                return ("alpha", x, y, z, f, g, h, L_plus[z][j])
                            if do_b and ml[br[q]][b_yz] != b_left[p][j]:
                                return ("beta", x, y, z, f, g, h, L_plus[z][j])
        return None

    def cond2():
        for x in range(n0):
            for y in range(n0):
                xy = mul0[x][y]
                if alpha[(x, y)][(el[sp.star[x]], ei[sp.plus[y]])] != ei[sp.plus[xy]]:
                    return ("alpha", x, y)
                if beta[(x, y)][(el[sp.star[x]], ei[sp.plus[y]])] != el[sp.star[xy]]:
                    return ("beta", x, y)
        return None

    # (3), (4): "equal key1 => equal key2" over pairs, so one dict per (x, e) or (x, f) suffices
    def cond3():
        for x in range(n0):
            xs = el[sp.star[x]]
            xp = sp.plus[x]
            for e in L_plus[x]:
                seen: dict = {}
                for x1 in range(n0):
                    for f1 in R_star[x1]:
                        a1, b1 = alpha[(x1, x)][(f1, e)], beta[(x1, x)][(f1, e)]
                        a2, b2 = alpha[(x1, xp)][(f1, e)], beta[(x1, xp)][(f1, e)]
                        for e1 in L_plus[x1]:
                            key1 = (mi[e1][a1], mul0[x1][x], ml[b1][xs])
                            key2 = (mi[e1][a2], mul0[x1][xp], b2)
                            held = seen.setdefault(key1, (key2, x1, e1, f1))
                            if held[0] != key2:
                                return (x, held[1], x1, e, held[2], held[3], e1, f1)
        return None

    def cond4():
        for x in range(n0):
            xp = ei[sp.plus[x]]
            xst = sp.star[x]
            for f in R_star[x]:
                seen: dict = {}
                for x1 in range(n0):
                    for e1 in L_plus[x1]:
                        a1, b1 = alpha[(x, x1)][(f, e1)], beta[(x, x1)][(f, e1)]
                        a2, b2 = alpha[(xst, x1)][(f, e1)], beta[(xst, x1)][(f, e1)]
                        for f1 in R_star[x1]:
                            key1 = (mi[xp][a1], mul0[x][x1], ml[b1][f1])
                            key2 = (a2, mul0[xst][x1], ml[b2][f1])
                            held = seen.setdefault(key1, (key2, x1, e1, f1))
                            if held[0] != key2:
                                return (x, held[1], x1, f, held[2], held[3], e1, f1)
        return None

    def cond5():
        for f in range(si.lambda_band.order):
            u = lam_inv[f]
            for e in range(si.i_band.order):
                v = i_inv[e]
                if alpha[(u, v)][(el[u], e)] != mi[ei[u]][e]:
                    return ("alpha", f, e, u, v)
                if beta[(u, v)][(f, ei[v])] != ml[f][el[v]]:
                    return ("beta", f, e, u, v)
        return None

    for k, fn in enumerate((cond1, cond2, cond3, cond4, cond5), start=1):
        w = fn()
        add(f"condition_{k}", True, w is None, w)
    return CheckReport(tuple(entries))


_STRUCTURAL = (
    "s0_adequate", "i_band_left_regular", "lambda_band_right_regular",
    "i_transversal", "lambda_transversal", "alpha_beta_domains",
)


def canonical_alpha_beta(s0, i_band, lambda_band, e0_in_i, e0_in_lambda):
    """The constant families (f, g) -> (xy)+ and (f, g) -> (xy)*."""
    sp = star_plus(s0)
    _, _, _, l_class = _require_embedding(s0, i_band, e0_in_i, "l")
    _, _, _, r_class = _require_embedding(s0, lambda_band, e0_in_lambda, "r")
    alpha: dict = {}
    beta: dict = {}
    for x in range(s0.order):
        for y in range(s0.order):
            xy = s0.table[x][y]
            rect = [(f, g) for f in r_class[sp.star[x]] for g in l_class[sp.plus[y]]]
            alpha[(x, y)] = {p: e0_in_i[sp.plus[xy]] for p in rect}
            beta[(x, y)] = {p: e0_in_lambda[sp.star[xy]] for p in rect}
    return alpha, beta


def _require_embedding(s0, band, emb, side):
    ok, witness, inv_map, class_of = _embedding_check(s0, band, emb, side)
    if not ok:
        raise TransversalInvalid(f"band transversal embedding invalid: {witness}")
    return ok, witness, inv_map, class_of


# --- carrier to table ----------------------------------------------------------


def _carrier_semigroup(legend, product, label) -> tuple[FiniteSemigroup, dict]:
    """Tabulate ``product`` on the carrier ``legend`` and validate the table.

    Element i of the result is ``legend[i]``, labelled ``label(legend[i])``.
    Returns the semigroup and the index legend entry -> element. A product
    that leaves the carrier, or a table that fails validation, raises
    PostconditionFailed.
    """
    index = {t: i for i, t in enumerate(legend)}
    try:
        rows = tuple(tuple(index[product(s, t)] for t in legend) for s in legend)
    except KeyError as exc:
        raise PostconditionFailed(f"product escaped the carrier: {exc}") from None
    labels = tuple(label(t) for t in legend)
    try:
        w = FiniteSemigroup(order=len(legend), table=rows, labels=labels)
    except SemigroupError as exc:
        raise PostconditionFailed(f"built table invalid: {exc}") from None
    return w, index


def _iso_witness(S: FiniteSemigroup, T: FiniteSemigroup, phi):
    """None when phi, sending a in S to phi[a] in T, is a bijective morphism,
    hence an isomorphism; else the first witness: "not_bijective" (an image
    missing, repeated or outside T) or the first pair (a, b) is_morphism finds.
    """
    if len(phi) != T.order or set(phi) != set(range(T.order)):
        return "not_bijective"
    return is_morphism(S, T, phi)


def _projection_witness(w, legend, subset, T, k):
    """_iso_witness of the map from the restriction of w to subset into T that
    reads coordinate k of each element's legend entry."""
    sub, to_parent = restrict(w, subset)
    return _iso_witness(sub, T, tuple(legend[p][k] for p in to_parent))


def _postvalidate(w, legend, w0, s0) -> TransversalDecomposition:
    """Certify a build on (e, x, ...) coordinates: W is quasi-adequate, its
    idempotents are the fibre over E0, and w0 is an admissible adequate
    transversal isomorphic to s0 through its projection (e, x, ...) -> x."""
    if not abundance_profile(w).is_quasi_adequate:
        raise PostconditionFailed("output is not quasi-adequate")
    e0_set = {x for x in range(s0.order) if s0.is_idempotent(x)}
    for i, t in enumerate(legend):
        if w.is_idempotent(i) != (t[1] in e0_set):
            raise PostconditionFailed(f"idempotents of W are not the E0 fibre at {t}")
    D = verify_adequate_transversal(w, w0)
    if not transversal_profile(w, D).is_admissible:
        raise PostconditionFailed("embedded transversal is not admissible")
    witness = _projection_witness(w, legend, w0, s0, 1)
    if witness is not None:
        raise PostconditionFailed(f"transversal copy is not isomorphic to s0 at {witness}")
    return D


# --- general builder ----------------------------------------------------------


def build_w(si: StructureInput) -> BuiltSemigroup:
    """Construct the triple semigroup W from validated structure data.

    The carrier is every (e, x, f) with e in the L-class of x+ and f in the
    R-class of x*, ordered lexicographically by (x, e, f); the product is
    (e, x, f)(g, y, h) = (e.alpha_xy(f, g), xy, beta_xy(f, g).h). The output
    is re-validated from scratch: quasi-adequate, with the diagonal triples
    forming an admissible adequate transversal isomorphic to s0.
    """
    return _build_w(si, validate_structure_input(si))


def _build_w(si: StructureInput, report: CheckReport) -> BuiltSemigroup:
    """build_w on structure data whose validation report is already at hand.

    Under (5) it certifies I(W) = I and Lambda(W) = Lambda by the projections
    (e, x, f) -> e and -> f. A bijective morphism is an isomorphism, so each
    check is sound alone; neither can fail. With u_I, u_L the images of u in
    E0, I(W) holds one (e, u, u_L) for each e in I, u_I L e, and in it
    (e, u, u_L)(g, v, v_L) starts with e.alpha_uv(u_L, g) = e.(u_I.g) = e.g
    by (5) and e.u_I = e. Dually Lambda(W) holds one (v_I, v, f) for each f,
    v_L R f, and (u_I, u, f)(v_I, v, h) ends with (f.v_L).h = f.h.
    """
    if not report.ok(*_STRUCTURAL) or not report.ok(*(f"condition_{k}" for k in range(1, 5))):
        raise AxiomViolation(report)

    sp = star_plus(si.s0)
    l_rel = green_relations(si.i_band).l
    r_rel = green_relations(si.lambda_band).r
    ei, el = si.e0_in_i, si.e0_in_lambda
    legend = tuple(
        (e, x, f)
        for x in range(si.s0.order)
        for e in l_rel.classes[l_rel.class_of[ei[sp.plus[x]]]]
        for f in r_rel.classes[r_rel.class_of[el[sp.star[x]]]]
    )
    mi, ml, m0 = si.i_band.table, si.lambda_band.table, si.s0.table

    def product(p, q):
        (e, x, f), (g, y, h) = p, q
        return (mi[e][si.alpha[(x, y)][(f, g)]], m0[x][y], ml[si.beta[(x, y)][(f, g)]][h])

    def label(t):
        e, x, f = t
        return f"({si.i_band.label(e)},{si.s0.label(x)},{si.lambda_band.label(f)})"

    w, index = _carrier_semigroup(legend, product, label)
    w0 = tuple(index[(ei[sp.plus[x]], x, el[sp.star[x]])] for x in range(si.s0.order))
    D = _postvalidate(w, legend, w0, si.s0)
    c5 = bool(report.entry("condition_5").passed)
    if c5:
        if _projection_witness(w, legend, D.i_set, si.i_band, 0) is not None:
            raise PostconditionFailed("I(W) is not isomorphic to the left band")
        if _projection_witness(w, legend, D.lambda_set, si.lambda_band, 2) is not None:
            raise PostconditionFailed("Lambda(W) is not isomorphic to the right band")
    return BuiltSemigroup(
        w=w, element_legend=legend, w0=w0, decomposition=D,
        kind="general", condition_flags=(("condition_5", c5),), report=report,
    )


# --- quasi-ideal specialisation ------------------------------------------------


def build_quasi_ideal_w(s0, i_band, lambda_band, e0_in_i, e0_in_lambda) -> BuiltSemigroup:
    """The canonical builder over a left normal and a right normal band.

    Equivalent to the general builder with the constant families; additionally
    asserts that the embedded transversal is a quasi-ideal and multiplicative.
    """
    bi = band_class(i_band)
    if not (bi.is_band and bi.is_left_normal):
        raise BandNotNormal("the left band must be left normal")
    bl = band_class(lambda_band)
    if not (bl.is_band and bl.is_right_normal):
        raise BandNotNormal("the right band must be right normal")
    prof = abundance_profile(s0)
    if not prof.is_adequate:
        raise NotAdequate("the transversal seed must be adequate")
    alpha, beta = canonical_alpha_beta(s0, i_band, lambda_band, e0_in_i, e0_in_lambda)
    si = StructureInput(s0=s0, i_band=i_band, lambda_band=lambda_band,
                        e0_in_i=e0_in_i, e0_in_lambda=e0_in_lambda,
                        alpha=alpha, beta=beta)
    b = build_w(si)
    tprof = transversal_profile(b.w, b.decomposition)
    if not tprof.is_quasi_ideal or not tprof.is_multiplicative:
        raise PostconditionFailed("embedded transversal is not a multiplicative quasi-ideal")
    return BuiltSemigroup(
        w=b.w, element_legend=b.element_legend, w0=b.w0,
        decomposition=b.decomposition, kind="quasi_ideal",
        condition_flags=b.condition_flags, report=b.report,
    )


# --- spined product -------------------------------------------------------------


def build_spined_product(l_part, d_l, r_part, d_r, identify) -> BuiltSemigroup:
    """Spined product of a left adequate and a right adequate part.

    ``identify`` matches the two transversal copies: a dict from members of
    ``d_l.s0`` (indices of l_part) to members of ``d_r.s0``. The carrier is
    all pairs (x, a) whose bars agree under the identification, multiplied by
    (x, a)(y, b) = (x . bar(y), bar(a) . b).
    """
    if not abundance_profile(l_part).is_left_adequate:
        raise NotLeftAdequate("left part must be left adequate")
    if not abundance_profile(r_part).is_right_adequate:
        raise NotRightAdequate("right part must be right adequate")
    if not transversal_profile(l_part, d_l).is_quasi_ideal:
        raise NotQuasiIdeal("left transversal must be a quasi-ideal")
    if not transversal_profile(r_part, d_r).is_quasi_ideal:
        raise NotQuasiIdeal("right transversal must be a quasi-ideal")
    if sorted(identify.keys()) != list(d_l.s0):
        raise TransversalMismatch("identification must cover the left transversal")
    if sorted(identify.values()) != list(d_r.s0):
        raise TransversalMismatch("identification must target the right transversal")
    for a in d_l.s0:
        for b in d_l.s0:
            if identify[l_part.table[a][b]] != r_part.table[identify[a]][identify[b]]:
                raise TransversalMismatch(f"identification is not a morphism at ({a},{b})")

    legend = tuple(
        (x, a)
        for x in range(l_part.order)
        for a in range(r_part.order)
        if identify[d_l.bar_of[x]] == d_r.bar_of[a]
    )
    tl, tr = l_part.table, r_part.table
    w, index = _carrier_semigroup(
        legend,
        lambda p, q: (tl[p[0]][d_l.bar_of[q[0]]], tr[d_r.bar_of[p[1]]][q[1]]),
        lambda p: f"({l_part.label(p[0])},{r_part.label(p[1])})",
    )

    w0 = tuple(index[(s, identify[s])] for s in d_l.s0)
    sub_l, _ = restrict(l_part, d_l.s0)
    D = verify_adequate_transversal(w, w0)
    tprof = transversal_profile(w, D)
    if not abundance_profile(w).is_quasi_adequate:
        raise PostconditionFailed("spined product is not quasi-adequate")
    if not tprof.is_admissible or not tprof.is_quasi_ideal:
        raise PostconditionFailed("spined transversal is not an admissible quasi-ideal")
    order = {s: i for i, s in enumerate(d_l.s0)}
    sub_w, to_parent = restrict(w, w0)
    if _iso_witness(sub_w, sub_l, tuple(order[legend[p][0]] for p in to_parent)) is not None:
        raise PostconditionFailed("spined transversal copy differs from the shared one")
    return BuiltSemigroup(w=w, element_legend=legend, w0=w0, decomposition=D, kind="spined")


# --- semidirect product -----------------------------------------------------------


def validate_action_table(at: ActionTable) -> CheckReport:
    """Check the action laws and the numbered semidirect conditions."""
    entries: list[CheckEntry] = []

    def add(name, applicable, passed=None, witness=None):
        entries.append(CheckEntry(name, applicable, passed, witness))

    prof = abundance_profile(at.s0)
    add("s0_adequate", True, prof.is_adequate)
    add("s0_left_ample", True, bool(prof.is_adequate and prof.is_left_ample))
    bi = band_class(at.i_band)
    add("i_band_left_regular", True, bi.is_band and bi.is_left_regular)
    if not (prof.is_adequate and bi.is_band):
        add("i_transversal", False)
        for name in ("action_total", "action_associative", "action_distributive",
                     "condition_1", "condition_2", "condition_3"):
            add(name, False)
        return CheckReport(tuple(entries))
    oi, wi, _, l_class = _embedding_check(at.s0, at.i_band, at.e0_in_i, "l")
    add("i_transversal", True, oi, wi)

    n0, ni = at.s0.order, at.i_band.order
    total = all((x, e) in at.act and 0 <= at.act[(x, e)] < ni
                for x in range(n0) for e in range(ni))
    add("action_total", True, total,
        None if total else next(((x, e) for x in range(n0) for e in range(ni)
                                 if (x, e) not in at.act), None))
    if not total or not oi:
        for name in ("action_associative", "action_distributive",
                     "condition_1", "condition_2", "condition_3"):
            add(name, False)
        return CheckReport(tuple(entries))

    act = at.act
    t0, ti = at.s0.table, at.i_band.table
    w = next(
        ((x, y, e) for x in range(n0) for y in range(n0) for e in range(ni)
         if act[(t0[x][y], e)] != act[(x, act[(y, e)])]),
        None,
    )
    add("action_associative", True, w is None, w)
    w = next(
        ((x, e, f) for x in range(n0) for e in range(ni) for f in range(ni)
         if act[(x, ti[e][f])] != ti[act[(x, e)]][act[(x, f)]]),
        None,
    )
    add("action_distributive", True, w is None, w)

    sp = star_plus(at.s0)
    ei = at.e0_in_i
    w = next(
        ((x, y) for x in range(n0) for y in range(n0)
         if act[(x, ei[sp.plus[y]])] != ei[sp.plus[t0[x][y]]]),
        None,
    )
    add("condition_1", True, w is None, w)

    # (2): "equal key1 => equal key2" over pairs (x1, e1), (x2, e2), so one dict per x suffices
    def cond2():
        for x in range(n0):
            xp = ei[sp.plus[x]]
            xs = sp.star[x]
            seen: dict = {}
            for x1 in range(n0):
                for e1 in l_class[sp.plus[x1]]:
                    key1 = (ti[xp][act[(x, e1)]], t0[x][x1])
                    key2 = (act[(xs, e1)], t0[xs][x1])
                    held = seen.setdefault(key1, (key2, x1, e1))
                    if held[0] != key2:
                        return (x, held[1], x1, held[2], e1)
        return None

    w = cond2()
    add("condition_2", True, w is None, w)

    w = next(
        ((x, e) for x in range(n0) for e in range(ni)
         if act[(sp.plus[x], e)] != ti[ei[sp.plus[x]]][e]),
        None,
    )
    add("condition_3", True, w is None, w)
    return CheckReport(tuple(entries))


def build_semidirect(at: ActionTable) -> BuiltSemigroup:
    """Semidirect product construction for left adequate semigroups.

    The carrier is every pair (e, x) with e in the L-class of x+ in the band,
    ordered by (x, e); the product is (e, x)(g, y) = (e.(x.g), xy). The
    output is re-verified: left adequate and quasi-adequate, with the pairs
    (x+, x) an admissible, left ample adequate transversal isomorphic to s0.
    """
    return _build_semidirect(at, validate_action_table(at))


def _build_semidirect(at: ActionTable, report: CheckReport) -> BuiltSemigroup:
    """build_semidirect on an action whose validation report is already at hand.

    Under (3) it certifies I(W) = I by the projection (e, x) -> e, sound alone
    and unable to fail: I(W) holds one (e, u) for each e in I, u_I L e, and
    (e, u)(g, v) starts with e.(u . g) = e.(u_I.g) = e.g by (3) and e.u_I = e.
    """
    if not report.ok("s0_adequate"):
        raise NotAdequate("the acting semigroup must be adequate")
    if not report.ok("s0_left_ample"):
        raise NotLeftAmple("the acting semigroup must be left ample")
    if not report.ok("i_band_left_regular", "i_transversal"):
        raise TransversalInvalid("the band must be left regular with the declared transversal")
    if not report.ok("action_total"):
        raise ActionLawViolation("totality", report.entry("action_total").witness)
    if not report.ok("action_associative"):
        raise ActionLawViolation("(xy).e = x.(y.e)", report.entry("action_associative").witness)
    if not report.ok("action_distributive"):
        raise ActionLawViolation("x.(ef) = (x.e)(x.f)",
                                 report.entry("action_distributive").witness)
    for k in (1, 2):
        if not report.ok(f"condition_{k}"):
            raise ConditionViolation(k, report.entry(f"condition_{k}").witness)

    n0 = at.s0.order
    sp = star_plus(at.s0)
    l_rel = green_relations(at.i_band).l
    ei = at.e0_in_i
    legend = tuple(
        (e, x) for x in range(n0) for e in l_rel.classes[l_rel.class_of[ei[sp.plus[x]]]]
    )
    t0, ti, act = at.s0.table, at.i_band.table, at.act
    w, index = _carrier_semigroup(
        legend,
        lambda p, q: (ti[p[0]][act[(p[1], q[0])]], t0[p[1]][q[1]]),
        lambda p: f"({at.i_band.label(p[0])},{at.s0.label(p[1])})",
    )
    w0 = tuple(index[(ei[sp.plus[x]], x)] for x in range(n0))
    D = _postvalidate(w, legend, w0, at.s0)
    if not abundance_profile(w).is_left_adequate:
        raise PostconditionFailed("output is not left adequate")
    sprof = abundance_profile(restrict(w, w0)[0])
    if not (sprof.is_adequate and sprof.is_left_ample):
        raise PostconditionFailed("embedded transversal is not left ample")

    c3 = bool(report.entry("condition_3").passed)
    if c3 and _projection_witness(w, legend, D.i_set, at.i_band, 0) is not None:
        raise PostconditionFailed("I(W) is not isomorphic to the acting band")
    return BuiltSemigroup(
        w=w, element_legend=legend, w0=w0, decomposition=D,
        kind="semidirect", condition_flags=(("condition_3", c3),), report=report,
    )


# --- regular specialisations --------------------------------------------------


def check_section4_specialization(b: BuiltSemigroup) -> CheckReport:
    """Regular-case checks: an inverse transversal seed forces an orthodox
    (or, for semidirect builds, left inverse) output, and conversely an
    orthodox output forces an inverse seed.
    """
    entries: list[CheckEntry] = []

    def add(name, applicable, passed=None, witness=None):
        entries.append(CheckEntry(name, applicable, passed, witness))

    sub, _ = restrict(b.w, b.w0)
    s0_inverse = abundance_profile(sub).is_inverse
    wprof = abundance_profile(b.w)
    add("s0_inverse", True, s0_inverse)
    add("orthodox_iff_s0_inverse", True, wprof.is_orthodox == s0_inverse,
        (wprof.is_orthodox, s0_inverse))
    if not s0_inverse:
        add("w_orthodox", False)
        add("w_left_inverse", False)
        add("inverse_transversal", False)
        return CheckReport(tuple(entries))

    if b.kind == "semidirect":
        ew, _ = restrict(b.w, b.w.idempotents())
        li = wprof.is_regular and band_class(ew).is_left_regular
        add("w_left_inverse", True, li)
        add("w_orthodox", False)
    else:
        add("w_orthodox", True, wprof.is_orthodox)
        add("w_left_inverse", False)

    reg = regular_and_inverses(b.w)
    w0_set = set(b.w0)
    bad = next(
        (x for x in range(b.w.order)
         if len([y for y in reg.inverses[x] if y in w0_set]) != 1),
        None,
    )
    add("inverse_transversal", True, bad is None, None if bad is None else (bad,))
    return CheckReport(tuple(entries))
