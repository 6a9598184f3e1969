"""Converse directions: read structure data off a concrete semigroup with a
verified adequate transversal, rebuild, and certify the reconstruction maps.

The extraction formulas come from the converse halves of the structure
results: alpha_xy(a, b) = e(x a b y), beta_xy(a, b) = f(x a b y), the action
x . e = e(x e), and the spined factors L = {x : f_x = f_xbar},
R = {x : e_x = e_xbar}. Every well-definedness claim those formulas rely on
is checked, not assumed, and by one prover each: restrict proves every
restricted set closed, and build_spined_product's gates prove the spined
parts left and right adequate with quasi-ideal transversals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteSemigroup, restrict
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
    _iso_witness,
    build_spined_product,
    validate_action_table,
    validate_structure_input,
)
from .transversal import (
    CheckEntry,
    CheckReport,
    TransversalDecomposition,
    TransversalProfile,
    transversal_profile,
    verify_adequate_transversal,
)


def _require_extractable(S: FiniteSemigroup, D: TransversalDecomposition) -> TransversalProfile:
    """The gates of extract_structure, in order; returns the transversal profile."""
    if not abundance_profile(S).is_quasi_adequate:
        raise NotQuasiAdequate("extraction needs a quasi-adequate ambient semigroup")
    tprof = transversal_profile(S, D)
    if not tprof.is_admissible:
        raise NotAdmissible("extraction needs an admissible transversal")
    return tprof


def extract_structure(S: FiniteSemigroup, D: TransversalDecomposition) -> StructureInput:
    """Recover (s0, I, Lambda, embeddings, alpha, beta) from an admissible
    transversal of a quasi-adequate semigroup.

    The output is guaranteed to pass all five validation conditions; failure
    to do so is an internal error, not a property of the input.
    """
    _require_extractable(S, D)
    return _extract_structure(S, D)[0]


def _extract_structure(S: FiniteSemigroup,
                       D: TransversalDecomposition) -> tuple[StructureInput, CheckReport]:
    """extract_structure past its gates, also returning the passing validation report."""
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
    prof = abundance_profile(S)
    if not prof.is_left_adequate or not prof.is_quasi_adequate:
        raise NotLeftAdequate("extraction needs a left adequate, quasi-adequate semigroup")
    if not transversal_profile(S, D).is_admissible:
        raise NotAdmissible("extraction needs an admissible transversal")
    s0 = restrict(S, D.s0)
    sprof = abundance_profile(s0[0])
    if not (sprof.is_adequate and sprof.is_left_ample):
        raise NotLeftAmple("the transversal must be left ample")
    return _extract_action(S, D, s0)[0]


def _extract_action(S: FiniteSemigroup, D: TransversalDecomposition,
                    s0) -> tuple[ActionTable, CheckReport]:
    """extract_action past its gates, given s0 = restrict(S, D.s0); also
    returning the passing validation report."""
    s0_sub, s0_parent = s0
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

    Past the gates on (S, D), restrict proves L and R closed and the verifier
    proves d_l and d_r. build_spined_product's gates, not this function,
    prove L left adequate, R right adequate and both transversals quasi-ideal.
    """
    if not abundance_profile(S).is_quasi_adequate:
        raise NotQuasiAdequate("spined extraction needs a quasi-adequate semigroup")
    tprof = transversal_profile(S, D)
    if not tprof.is_quasi_ideal:
        raise NotQuasiIdeal("spined extraction needs a quasi-ideal transversal")
    if not tprof.is_admissible:
        raise NotAdmissible("spined extraction needs an admissible transversal")

    l_part, l_parent = restrict(S, D.l_set)
    r_part, r_parent = restrict(S, D.r_set)
    l_back = {p: i for i, p in enumerate(l_parent)}
    r_back = {p: i for i, p in enumerate(r_parent)}
    d_l = verify_adequate_transversal(l_part, tuple(l_back[s] for s in D.s0))
    d_r = verify_adequate_transversal(r_part, tuple(r_back[s] for s in D.s0))
    identify = {l_back[s]: r_back[s] for s in D.s0}
    return (l_part, d_l), (r_part, d_r), identify


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of rebuilding S from its extracted structure data.

    ``iso`` is the verified bijection x -> (e_x, xbar, f_x) as an index map
    into the rebuilt triple semigroup; ``checks`` names every leg. Each
    applicable leg certified its map, except ``spined_theta_iso``, which
    the other legs prove (see roundtrip).
    """

    rebuilt: BuiltSemigroup
    iso: tuple[int, ...]
    checks: CheckReport


def _certify(leg: str, S: FiniteSemigroup, built: BuiltSemigroup, coords) -> tuple[int, ...]:
    """The map sending x to the element of ``built`` named ``coords[x]`` in
    its legend, as an index map; raises IsoFailed((leg, witness)) unless it
    is an isomorphism from S."""
    index = built.legend_index()
    phi = tuple(index.get(c) for c in coords)
    witness = _iso_witness(S, built.w, phi)
    if witness is not None:
        raise IsoFailed((leg, witness))
    return phi


def roundtrip(S: FiniteSemigroup, D: TransversalDecomposition) -> RoundtripReport:
    """Extract, rebuild and certify x -> (e_x, xbar, f_x) as an isomorphism.

    Left adequate inputs with a left ample transversal additionally get the
    semidirect leg, certifying x -> (e_x, xbar), and quasi-ideal inputs the
    spined leg, certifying x -> (e_x xbar, xbar f_x). Each leg must reproduce
    S up to its map or the roundtrip fails with IsoFailed((leg, witness)).

    The map theta: (g, x, l) -> (gx, xl) from the triple semigroup onto the
    spined product is not compared: it sends iso(x) = (e_x, xbar, f_x) to
    (e_x xbar, xbar f_x), the spined image of x. So theta is the spined map
    composed with the inverse of iso, an isomorphism once both legs pass.
    """
    tprof = _require_extractable(S, D)
    si, report = _extract_structure(S, D)
    entries = [CheckEntry("structure_conditions", True, True)]
    built = _build_w(si, report)

    s0_back = {p: i for i, p in enumerate(D.s0)}
    i_back = {p: i for i, p in enumerate(D.i_set)}
    lam_back = {p: i for i, p in enumerate(D.lambda_set)}
    e_of, bar_of, f_of = D.e_of, D.bar_of, D.f_of
    xs = range(S.order)
    iso = _certify("w", S, built,
                   [(i_back[e_of[x]], s0_back[bar_of[x]], lam_back[f_of[x]]) for x in xs])
    entries.append(CheckEntry("w_isomorphism", True, True))

    s0 = restrict(S, D.s0)
    if abundance_profile(S).is_left_adequate and abundance_profile(s0[0]).is_left_ample:
        sb = _build_semidirect(*_extract_action(S, D, s0))
        _certify("semidirect", S, sb, [(i_back[e_of[x]], s0_back[bar_of[x]]) for x in xs])
        entries.append(CheckEntry("semidirect_roundtrip", True, True))
    else:
        entries.append(CheckEntry("semidirect_roundtrip", False, None))

    if tprof.is_quasi_ideal:
        (l_part, d_l), (r_part, d_r), ident = extract_spined_factors(S, D)
        spb = build_spined_product(l_part, d_l, r_part, d_r, ident)
        l_back = {p: i for i, p in enumerate(sorted(set(D.l_set)))}
        r_back = {p: i for i, p in enumerate(sorted(set(D.r_set)))}
        t = S.table
        _certify("spined", S, spb,
                 [(l_back[t[e_of[x]][bar_of[x]]], r_back[t[bar_of[x]][f_of[x]]]) for x in xs])
        entries.append(CheckEntry("spined_roundtrip", True, True))
        entries.append(CheckEntry("spined_theta_iso", True, True))
    else:
        entries.append(CheckEntry("spined_roundtrip", False, None))
        entries.append(CheckEntry("spined_theta_iso", False, None))

    return RoundtripReport(rebuilt=built, iso=iso, checks=CheckReport(tuple(entries)))
