"""Converse directions: read structure data off a concrete semigroup with a
verified adequate transversal, rebuild, and certify the reconstruction maps.

The extraction formulas come from the converse halves of the structure
results: alpha_xy(a, b) = e(x a b y), beta_xy(a, b) = f(x a b y), the action
x . e = e(x e), and the spined factors L = {x : f_x = f_xbar},
R = {x : e_x = e_xbar}. Every well-definedness claim those formulas rely on
is asserted during extraction, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteSemigroup, is_morphism, restrict
from .errors import (
    InvariantBroken,
    IsoFailed,
    NotAdmissible,
    NotLeftAdequate,
    NotLeftAmple,
    NotQuasiAdequate,
    NotQuasiIdeal,
)
from .greenstar import abundance_profile
from .construct import (
    ActionTable,
    BuiltSemigroup,
    StructureInput,
    _build_semidirect,
    _build_w,
    build_spined_product,
    validate_action_table,
    validate_structure_input,
)
from .transversal import (
    CheckEntry,
    CheckReport,
    TransversalDecomposition,
    transversal_profile,
    verify_adequate_transversal,
)


def extract_structure(S: FiniteSemigroup, D: TransversalDecomposition) -> StructureInput:
    """Recover (s0, I, Lambda, embeddings, alpha, beta) from an admissible
    transversal of a quasi-adequate semigroup.

    The output is guaranteed to pass all five validation conditions; failure
    to do so is an internal error, not a property of the input.
    """
    return _extract_structure(S, D)[0]


def _extract_structure(S: FiniteSemigroup,
                       D: TransversalDecomposition) -> tuple[StructureInput, CheckReport]:
    """extract_structure, also returning the passing validation report."""
    if not abundance_profile(S).is_quasi_adequate:
        raise NotQuasiAdequate("extraction needs a quasi-adequate ambient semigroup")
    if not transversal_profile(S, D).is_admissible:
        raise NotAdmissible("extraction needs an admissible transversal")

    s0_sub, s0_parent = restrict(S, D.s0)
    i_band, i_parent = restrict(S, D.i_set)
    lam_band, lam_parent = restrict(S, D.lambda_set)
    s0_back = {p: i for i, p in enumerate(s0_parent)}
    i_back = {p: i for i, p in enumerate(i_parent)}
    lam_back = {p: i for i, p in enumerate(lam_parent)}

    e0_in_i = {s0_back[u]: i_back[u] for u in D.e0}
    e0_in_lambda = {s0_back[u]: lam_back[u] for u in D.e0}

    plus_p = D.plus_map()
    star_p = D.star_map()
    t = S.table
    alpha: dict = {}
    beta: dict = {}
    for x in D.s0:
        # members of the R-class of x* in the band on Lambda, in ambient indices
        r_members = [a for a in D.lambda_set if D.bar_of[a] == star_p[x]]
        for y in D.s0:
            l_members = [b for b in D.i_set if D.bar_of[b] == plus_p[y]]
            akey: dict = {}
            bkey: dict = {}
            for a in r_members:
                for b in l_members:
                    prod = t[t[t[x][a]][b]][y]
                    akey[(lam_back[a], i_back[b])] = i_back[D.e_of[prod]]
                    bkey[(lam_back[a], i_back[b])] = lam_back[D.f_of[prod]]
            alpha[(s0_back[x], s0_back[y])] = akey
            beta[(s0_back[x], s0_back[y])] = bkey

    si = StructureInput(s0=s0_sub, i_band=i_band, lambda_band=lam_band,
                        e0_in_i=e0_in_i, e0_in_lambda=e0_in_lambda,
                        alpha=alpha, beta=beta)
    report = validate_structure_input(si)
    if not report.all_passed():
        raise InvariantBroken(
            f"extracted structure fails validation: {[e.name for e in report.failures()]}"
        )
    return si, report


def extract_action(S: FiniteSemigroup, D: TransversalDecomposition) -> ActionTable:
    """Recover the left action x . e = e(x e) of the transversal on I."""
    return _extract_action(S, D)[0]


def _extract_action(S: FiniteSemigroup,
                    D: TransversalDecomposition) -> tuple[ActionTable, CheckReport]:
    """extract_action, also returning the passing validation report."""
    prof = abundance_profile(S)
    if not prof.is_left_adequate or not prof.is_quasi_adequate:
        raise NotLeftAdequate("extraction needs a left adequate, quasi-adequate semigroup")
    if not transversal_profile(S, D).is_admissible:
        raise NotAdmissible("extraction needs an admissible transversal")
    s0_sub, s0_parent = restrict(S, D.s0)
    sprof = abundance_profile(s0_sub)
    if not (sprof.is_adequate and sprof.is_left_ample):
        raise NotLeftAmple("the transversal must be left ample")
    i_band, i_parent = restrict(S, D.i_set)
    s0_back = {p: i for i, p in enumerate(s0_parent)}
    i_back = {p: i for i, p in enumerate(i_parent)}

    plus_p = D.plus_map()
    t = S.table
    act: dict = {}
    for x in D.s0:
        for e in D.i_set:
            value = D.e_of[t[x][e]]
            # independence from the witness: e lies in L_{y+} exactly when
            # bar(e) = y+, and then e(x e y) must equal e(x e)
            for y in D.s0:
                if plus_p[y] == D.bar_of[e]:
                    if D.e_of[t[t[x][e]][y]] != value:
                        raise InvariantBroken(
                            f"action at ({x},{e}) depends on the witness {y}"
                        )
            act[(s0_back[x], i_back[e])] = i_back[value]

    e0_in_i = {s0_back[u]: i_back[u] for u in D.e0}
    at = ActionTable(s0=s0_sub, i_band=i_band, e0_in_i=e0_in_i, act=act)
    report = validate_action_table(at)
    if not report.all_passed():
        raise InvariantBroken(
            f"extracted action fails validation: {[e.name for e in report.failures()]}"
        )
    return at, report


def extract_spined_factors(S: FiniteSemigroup, D: TransversalDecomposition):
    """Split S into its left part L = {x : f_x = f_xbar} and right part
    R = {x : e_x = e_xbar}, each carrying the restricted transversal.

    Returns ((l_part, d_l), (r_part, d_r), identify) where identify matches
    the two transversal copies through the shared ambient elements.
    """
    if not abundance_profile(S).is_quasi_adequate:
        raise NotQuasiAdequate("spined extraction needs a quasi-adequate semigroup")
    tprof = transversal_profile(S, D)
    if not tprof.is_quasi_ideal:
        raise NotQuasiIdeal("spined extraction needs a quasi-ideal transversal")
    if not tprof.is_admissible:
        raise NotAdmissible("spined extraction needs an admissible transversal")

    lset, rset = set(D.l_set), set(D.r_set)
    for a in D.l_set:
        for b in D.l_set:
            if S.table[a][b] not in lset:
                raise InvariantBroken(f"left part is not closed at ({a},{b})")
    for a in D.r_set:
        for b in D.r_set:
            if S.table[a][b] not in rset:
                raise InvariantBroken(f"right part is not closed at ({a},{b})")
    l_part, l_parent = restrict(S, D.l_set)
    r_part, r_parent = restrict(S, D.r_set)
    l_back = {p: i for i, p in enumerate(l_parent)}
    r_back = {p: i for i, p in enumerate(r_parent)}

    if not abundance_profile(l_part).is_left_adequate:
        raise InvariantBroken("left part is not left adequate")
    if not abundance_profile(r_part).is_right_adequate:
        raise InvariantBroken("right part is not right adequate")

    d_l = verify_adequate_transversal(l_part, tuple(l_back[s] for s in D.s0))
    d_r = verify_adequate_transversal(r_part, tuple(r_back[s] for s in D.s0))
    for part, d in ((l_part, d_l), (r_part, d_r)):
        if not transversal_profile(part, d).is_quasi_ideal:
            raise InvariantBroken("restricted transversal is not a quasi-ideal")
    identify = {l_back[s]: r_back[s] for s in D.s0}
    return (l_part, d_l), (r_part, d_r), identify


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of rebuilding S from its extracted structure data.

    ``iso`` is the verified bijection x -> (e_x, xbar, f_x) as an index map
    into the rebuilt triple semigroup; ``checks`` records every comparison
    that was run, including the optional semidirect and spined legs.
    """

    rebuilt: BuiltSemigroup
    iso: tuple[int, ...]
    checks: CheckReport


def roundtrip(S: FiniteSemigroup, D: TransversalDecomposition) -> RoundtripReport:
    """Extract, rebuild and certify x -> (e_x, xbar, f_x) as an isomorphism.

    Left adequate inputs with a left ample transversal additionally get the
    semidirect leg, and quasi-ideal inputs the spined leg; each leg must
    reproduce S up to the stated isomorphism or the roundtrip fails.
    """
    entries: list[CheckEntry] = []
    si, report = _extract_structure(S, D)
    entries.append(CheckEntry("structure_conditions", True, True))
    built = _build_w(si, report)

    s0_back = {p: i for i, p in enumerate(D.s0)}
    i_back = {p: i for i, p in enumerate(D.i_set)}
    lam_back = {p: i for i, p in enumerate(D.lambda_set)}
    legend_index = built.legend_index()
    iso = []
    for x in range(S.order):
        triple = (i_back[D.e_of[x]], s0_back[D.bar_of[x]], lam_back[D.f_of[x]])
        wi = legend_index.get(triple)
        if wi is None:
            raise IsoFailed((x, triple))
        iso.append(wi)
    if len(set(iso)) != S.order or built.w.order != S.order:
        raise IsoFailed(("not_bijective", len(set(iso)), built.w.order))
    bad = is_morphism(S, built.w, tuple(iso))
    if bad is not None:
        raise IsoFailed(bad)
    entries.append(CheckEntry("w_isomorphism", True, True))

    prof = abundance_profile(S)
    s0_sub, _ = restrict(S, D.s0)
    s0_prof = abundance_profile(s0_sub)
    if prof.is_left_adequate and s0_prof.is_left_ample:
        sb = _build_semidirect(*_extract_action(S, D))
        sidx = sb.legend_index()
        iso2 = []
        for x in range(S.order):
            pair = (i_back[D.e_of[x]], s0_back[D.bar_of[x]])
            wi = sidx.get(pair)
            if wi is None:
                raise IsoFailed((x, pair))
            iso2.append(wi)
        if len(set(iso2)) != S.order or sb.w.order != S.order:
            raise IsoFailed(("semidirect_not_bijective", len(set(iso2)), sb.w.order))
        if is_morphism(S, sb.w, tuple(iso2)) is not None:
            raise IsoFailed(("semidirect", is_morphism(S, sb.w, tuple(iso2))))
        entries.append(CheckEntry("semidirect_roundtrip", True, True))
    else:
        entries.append(CheckEntry("semidirect_roundtrip", False, None))

    if transversal_profile(S, D).is_quasi_ideal:
        (l_part, d_l), (r_part, d_r), ident = extract_spined_factors(S, D)
        spb = build_spined_product(l_part, d_l, r_part, d_r, ident)
        l_parent = sorted(set(D.l_set))
        r_parent = sorted(set(D.r_set))
        l_back = {p: i for i, p in enumerate(l_parent)}
        r_back = {p: i for i, p in enumerate(r_parent)}
        pidx = spb.legend_index()
        t = S.table
        iso3 = []
        for x in range(S.order):
            pair = (l_back[t[D.e_of[x]][D.bar_of[x]]], r_back[t[D.bar_of[x]][D.f_of[x]]])
            wi = pidx.get(pair)
            if wi is None:
                raise IsoFailed((x, "spined", pair))
            iso3.append(wi)
        if len(set(iso3)) != S.order or spb.w.order != S.order:
            raise IsoFailed(("spined_not_bijective", len(set(iso3)), spb.w.order))
        if is_morphism(S, spb.w, tuple(iso3)) is not None:
            raise IsoFailed(("spined", is_morphism(S, spb.w, tuple(iso3))))
        entries.append(CheckEntry("spined_roundtrip", True, True))

        # triple coordinates map onto spined coordinates by (g, x, l) -> (gx, xl)
        theta = []
        for (g, x, l) in built.element_legend:
            gp, xp, lp = D.i_set[g], D.s0[x], D.lambda_set[l]
            pair = (l_back[t[gp][xp]], r_back[t[xp][lp]])
            wi = pidx.get(pair)
            if wi is None:
                raise IsoFailed(("theta", (g, x, l)))
            theta.append(wi)
        if len(set(theta)) != built.w.order or is_morphism(
                built.w, spb.w, tuple(theta)) is not None:
            raise IsoFailed(("theta_morphism",))
        entries.append(CheckEntry("spined_theta_iso", True, True))
    else:
        entries.append(CheckEntry("spined_roundtrip", False, None))
        entries.append(CheckEntry("spined_theta_iso", False, None))

    return RoundtripReport(rebuilt=built, iso=tuple(iso), checks=CheckReport(tuple(entries)))
