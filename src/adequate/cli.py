"""Command-line surface.

Subcommands: analyze, transversals, construct, decompose, census. Exit code 0
means every check that ran passed, 1 means a mathematical check failed on the
given input, 2 means the input or invocation itself was unusable.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census as census_mod
from .construct import (
    _iso_witness,
    build_quasi_ideal_w,
    build_semidirect,
    build_spined_product,
    build_w,
    check_section4_specialization,
)
from .core import CONGRUENCE_CAP, CONGRUENCE_HARD_CAP, SUBSEMIGROUP_CAP, restrict
from .decompose import roundtrip
from .errors import (
    IsoFailed,
    OrderCapExceeded,
    SchemaError,
    SemigroupError,
)
from .fileio import (
    parse_action_table,
    parse_semigroup,
    parse_spined_input,
    parse_structure_input,
    semigroup_to_obj,
)
from .greenstar import (
    abundance_profile,
    delta,
    green_relations,
    min_adequate_admissible_congruence,
    star_relations,
)
from .transversal import (
    _audit_identities,
    find_adequate_transversals,
    transversal_profile,
    verify_adequate_transversal,
)

_MATH_FAIL = 1
_USAGE = 2


def _profile_obj(S):
    p = abundance_profile(S)
    return {
        "abundant": p.is_abundant,
        "adequate": p.is_adequate,
        "left_adequate": p.is_left_adequate,
        "right_adequate": p.is_right_adequate,
        "quasi_adequate": p.is_quasi_adequate,
        "left_ample": p.is_left_ample,
        "idempotent_connected": p.is_idempotent_connected,
        "bountiful": p.is_bountiful,
        "regular": p.is_regular,
        "orthodox": p.is_orthodox,
        "inverse": p.is_inverse,
    }


def _classes(partition):
    return [list(c) for c in partition.classes]


def _cap(args, default: int) -> int:
    """The --max-order setting, or ``default`` when it is not given; 0 is a setting."""
    return default if args.max_order is None else args.max_order


def cmd_analyze(args) -> tuple[int, dict]:
    sf = parse_semigroup(args.file)
    S = sf.semigroup
    stars = star_relations(S)
    green = green_relations(S)
    prof = _profile_obj(S)
    report = {
        "command": "analyze",
        "name": sf.name,
        "order": S.order,
        "profile": prof,
        "rstar_classes": _classes(stars.rstar),
        "lstar_classes": _classes(stars.lstar),
        "hstar_classes": _classes(stars.hstar),
        "green": {
            "r": _classes(green.r),
            "l": _classes(green.l),
            "h": _classes(green.h),
            "d": _classes(green.d),
            "j": _classes(green.j),
        },
    }
    if prof["quasi_adequate"]:
        d = delta(S)
        report["delta"] = {
            "classes": _classes(d.partition),
            "is_congruence": d.is_congruence,
            "quotient_order": d.quotient.order if d.quotient else None,
        }
        cap = min(_cap(args, CONGRUENCE_CAP), CONGRUENCE_HARD_CAP)
        if S.order <= cap:
            gamma = min_adequate_admissible_congruence(S, cap=cap)
            report["gamma_classes"] = _classes(gamma)
        else:
            report["gamma_classes"] = None
            report["notes"] = [f"gamma skipped: order {S.order} above cap {cap}"]
    else:
        report["delta"] = None
        report["notes"] = ["not quasi-adequate" if prof["abundant"] else "not abundant"]
    return 0, report


def cmd_transversals(args) -> tuple[int, dict]:
    sf = parse_semigroup(args.file)
    S = sf.semigroup
    cap = _cap(args, SUBSEMIGROUP_CAP)
    found = find_adequate_transversals(S, cap=cap)
    items = []
    failed = False
    for D in found:
        prof = transversal_profile(S, D)
        item = {
            "transversal": list(D.s0),
            "e_of": list(D.e_of),
            "bar_of": list(D.bar_of),
            "f_of": list(D.f_of),
            "quasi_ideal": prof.is_quasi_ideal,
            "multiplicative": prof.is_multiplicative,
            "admissible": prof.is_admissible,
        }
        if not args.seed_only:
            audit = _audit_identities(S, D, prof)
            item["audit_failures"] = [
                {"name": e.name, "witness": list(e.witness) if e.witness else None}
                for e in audit.failures()
            ]
            failed = failed or bool(audit.failures())
        items.append(item)
    report = {
        "command": "transversals",
        "name": sf.name,
        "order": S.order,
        "abundant": abundance_profile(S).is_abundant,
        "count": len(items),
        "transversals": items,
    }
    return (_MATH_FAIL if failed else 0), report


def cmd_decompose(args) -> tuple[int, dict]:
    sf = parse_semigroup(args.file)
    S = sf.semigroup
    if args.transversal not in sf.subsets:
        raise SchemaError(args.file, f"no subset named {args.transversal!r}")
    subset = sf.subsets[args.transversal]
    report: dict = {
        "command": "decompose",
        "name": sf.name,
        "transversal": list(subset),
    }
    try:
        D = verify_adequate_transversal(S, subset)
    except SemigroupError as exc:
        report["verified"] = False
        report["reason"] = f"{type(exc).__name__}: {exc}"
        return _MATH_FAIL, report
    report["verified"] = True
    prof = transversal_profile(S, D)
    report["profile"] = {
        "quasi_ideal": prof.is_quasi_ideal,
        "multiplicative": prof.is_multiplicative,
        "admissible": prof.is_admissible,
    }
    if not prof.is_admissible:
        report["roundtrip"] = None
        report["reason"] = "transversal is not admissible; the rebuild needs admissibility"
        return _MATH_FAIL, report
    try:
        rt = roundtrip(S, D)
    except (IsoFailed, SemigroupError) as exc:
        report["roundtrip"] = {"passed": False, "reason": f"{type(exc).__name__}: {exc}"}
        return _MATH_FAIL, report
    report["roundtrip"] = {
        "passed": True,
        "checks": [
            {"name": e.name, "applicable": e.applicable, "passed": e.passed}
            for e in rt.checks.entries
        ],
        "isomorphism": list(rt.iso),
        "rebuilt_order": rt.rebuilt.w.order,
    }
    return 0, report


def cmd_construct(args) -> tuple[int, dict]:
    report: dict = {"command": "construct", "builder": args.builder}
    try:
        if args.builder == "general":
            built = build_w(parse_structure_input(args.file))
        elif args.builder == "quasi-ideal":
            si = parse_structure_input(args.file)
            built = build_quasi_ideal_w(si.s0, si.i_band, si.lambda_band,
                                        si.e0_in_i, si.e0_in_lambda)
        elif args.builder == "semidirect":
            built = build_semidirect(parse_action_table(args.file))
        else:
            sp = parse_spined_input(args.file)
            d_l = verify_adequate_transversal(sp.left, sp.left_transversal)
            d_r = verify_adequate_transversal(sp.right, sp.right_transversal)
            identify = sp.identify
            if identify is None:
                identify = _match_transversals(sp, d_l, d_r)
            built = build_spined_product(sp.left, d_l, sp.right, d_r, identify)
    except SchemaError:
        raise
    except SemigroupError as exc:
        report["built"] = False
        report["reason"] = f"{type(exc).__name__}: {exc}"
        return _MATH_FAIL, report
    sec4 = check_section4_specialization(built)
    report["built"] = True
    report["order"] = built.w.order
    report["semigroup"] = semigroup_to_obj(
        built.w,
        name=f"W_{args.builder}",
        subsets={
            "transversal": built.w0,
            "i_set": built.decomposition.i_set,
            "lambda_set": built.decomposition.lambda_set,
        },
    )
    report["condition_flags"] = dict(built.condition_flags)
    report["section4"] = [
        {"name": e.name, "applicable": e.applicable, "passed": e.passed}
        for e in sec4.entries
    ]
    failed = any(e.applicable and not e.passed for e in sec4.entries)
    return (_MATH_FAIL if failed else 0), report


def _match_transversals(sp, d_l, d_r):
    """Identify the two transversal copies by the map from the sorted left
    transversal to the sorted right one, certified as an isomorphism. There is
    no search: copies that match only under another bijection need 'identify'.
    """
    sub_l, l_parent = restrict(sp.left, d_l.s0)
    sub_r, r_parent = restrict(sp.right, d_r.s0)
    if _iso_witness(sub_l, sub_r, range(sub_l.order)) is not None:
        raise SemigroupError("transversal copies are not isomorphic; supply 'identify'")
    return dict(zip(l_parent, r_parent))


def cmd_census(args) -> tuple[int, dict]:
    n = args.order
    cap = _cap(args, census_mod.CENSUS_CAP)
    counts = {
        "total": 0,
        "abundant": 0,
        "adequate": 0,
        "quasi_adequate": 0,
        "with_adequate_transversal": 0,
        "with_admissible_adequate_transversal": 0,
    }
    for S in census_mod.enumerate_semigroups(n, up_to_iso=True, max_order=cap):
        counts["total"] += 1
        prof = abundance_profile(S)
        counts["abundant"] += prof.is_abundant
        counts["adequate"] += prof.is_adequate
        counts["quasi_adequate"] += prof.is_quasi_adequate
        transversals = find_adequate_transversals(S)
        if transversals:
            counts["with_adequate_transversal"] += 1
            if any(transversal_profile(S, D).is_admissible for D in transversals):
                counts["with_admissible_adequate_transversal"] += 1
    return 0, {"command": "census", "order": n, "counts": counts}


def _render_text(report: dict, out) -> None:
    def line(s=""):
        print(s, file=out)

    cmd = report.get("command")
    if cmd == "analyze":
        line(f"{report['name']}: order {report['order']}")
        flags = [k for k, v in report["profile"].items() if v]
        line("profile: " + (", ".join(flags) if flags else "none"))
        line(f"rstar classes: {report['rstar_classes']}")
        line(f"lstar classes: {report['lstar_classes']}")
        if report.get("delta"):
            d = report["delta"]
            line(f"delta: {len(d['classes'])} classes, congruence={d['is_congruence']}")
            if report.get("gamma_classes") is not None:
                line(f"gamma: {len(report['gamma_classes'])} classes")
        for note in report.get("notes", []):
            line(f"note: {note}")
    elif cmd == "transversals":
        line(f"{report['name']}: order {report['order']}, "
             f"{report['count']} adequate transversal(s)")
        for item in report["transversals"]:
            flags = [k for k in ("quasi_ideal", "multiplicative", "admissible") if item[k]]
            line(f"  {item['transversal']}: {', '.join(flags) or 'plain'}")
            for f in item.get("audit_failures", []):
                line(f"    AUDIT FAIL {f['name']} at {f['witness']}")
    elif cmd == "decompose":
        line(f"{report['name']}: transversal {report['transversal']}")
        line(f"verified: {report['verified']}")
        if report.get("profile"):
            flags = [k for k, v in report["profile"].items() if v]
            line("profile: " + (", ".join(flags) if flags else "plain"))
        rt = report.get("roundtrip")
        if rt:
            line(f"roundtrip: {'pass' if rt['passed'] else 'FAIL'}")
            for c in rt.get("checks", []):
                status = "skip" if not c["applicable"] else ("pass" if c["passed"] else "FAIL")
                line(f"  {c['name']}: {status}")
        if report.get("reason"):
            line(f"reason: {report['reason']}")
    elif cmd == "construct":
        if report["built"]:
            line(f"built order {report['order']} semigroup ({report['builder']})")
            for k, v in sorted(report["condition_flags"].items()):
                line(f"  {k}: {v}")
            for c in report["section4"]:
                if c["applicable"]:
                    line(f"  section4 {c['name']}: {'pass' if c['passed'] else 'FAIL'}")
            sg = report["semigroup"]
            labels = sg.get("labels") or [str(i) for i in range(sg["order"])]
            line("elements: " + " ".join(labels))
            for row in sg["table"]:
                line("  " + " ".join(str(v) for v in row))
            line(f"transversal: {sg['subsets']['transversal']}")
        else:
            line(f"construction rejected: {report['reason']}")
    elif cmd == "census":
        line(f"census at order {report['order']}:")
        for k, v in report["counts"].items():
            line(f"  {k}: {v}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adequate",
        description="finite semigroup computations around adequate transversals",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--max-order", type=int, default=None,
                        help="raise or lower an enumeration cap")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("analyze", help="classification profile and relations")
    p.add_argument("file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("transversals", help="find and audit adequate transversals")
    p.add_argument("file")
    p.add_argument("--seed-only", action="store_true", help="skip the identity audits")
    p.set_defaults(fn=cmd_transversals)

    p = sub.add_parser("construct", help="run a structure builder on an input file")
    p.add_argument("builder", choices=["general", "quasi-ideal", "spined", "semidirect"])
    p.add_argument("file")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("decompose", help="extract structure data and round-trip")
    p.add_argument("file")
    p.add_argument("--transversal", required=True, help="name of a subset in the file")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("census", help="enumerate small semigroups and tabulate")
    p.add_argument("order", type=int)
    p.set_defaults(fn=cmd_census)

    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return _USAGE
    try:
        code, report = args.fn(args)
    except (SchemaError, OrderCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE
    except SemigroupError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _MATH_FAIL
    if args.json:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
