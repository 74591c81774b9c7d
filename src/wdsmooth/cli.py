"""Command line interface.

Subcommands:
    classify   smooth/singular/not-covered verdict for components
    orbits     nilpotent orbit labels for a group
    wdd        weighted diagram, grading dimensions and order bound
    arith      considerate / banal / order / sweep utilities
    verify     exact desk-scale checks on matrix realizations
    certify    singularity certificate at a degeneration base point

Reports are JSON by default (deterministic: sorted keys, no
timestamps); --format table renders the same data as text. Exit codes:
0 success, 1 usage or unsupported input, 2 a property check failed
(one machine-parsable line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import __version__
from .arith import (
    QContext,
    chevalley_steinberg_order,
    implication_sweep,
    is_banal,
    is_considerate,
    multiplicative_order,
    order_capped,
)
from .classifier import classify_component, classify_product
from .certificates import CertificateError, epsilon_certificate
from .orbits import (
    OrbitLabel,
    classical_orbits,
    distinguished_table,
    grading_dims,
    is_distinguished,
    is_very_even,
    is_zero_orbit,
    smooth_bound_r,
    weighted_dynkin,
)
from .rootsys import RootSystem, build_root_system, parse_group
from .tables import PROVENANCE
from .variety import (
    GroupSpec,
    _field,
    bundle_count_check,
    enumerate_sg,
    exp_bridge_check,
    nilpotency_redundancy_check,
    sg_member,
    stratum_sample,
    tangent_dim,
)

SCHEMA_VERSION = "1"

_INT_KEYS = {"p", "q", "l", "s", "samples", "seed", "marked", "rank_max", "l_max", "q_max"}


def _parse_orbit(text: str) -> OrbitLabel:
    text = text.strip()
    if text in ("0", "zero"):
        return OrbitLabel.zero()
    if all(ch.isdigit() or ch == "," for ch in text) and text:
        parts = tuple(int(x) for x in text.split(",") if x)
        return OrbitLabel.partition(parts)
    return OrbitLabel.named(text)


def _root_system(name: str) -> RootSystem:
    return build_root_system(parse_group(name))


def _group_spec(name: str) -> GroupSpec:
    key = name.strip().upper()
    if key == "GSP4":
        return GroupSpec.gsp4()
    if key.startswith("GL"):
        n = int(key[2:])
        return GroupSpec.gl(n)
    raise ValueError(
        "matrix realizations cover GL1..GL4 and GSp4, not %r" % name
    )


def _verdict_dict(v) -> dict:
    orbit = v.orbit
    if isinstance(orbit, tuple):
        orbit_text = ";".join(str(o) for o in orbit)
    else:
        orbit_text = str(orbit)
    return {
        "status": v.status,
        "orbit": orbit_text,
        "reasons": list(v.reasons),
        "component_count": v.component_count,
        "sharpened_order_bound": v.sharpened_order_bound,
        "considerate_checked": v.considerate_checked,
    }


# ---------------------------------------------------------------- handlers


def _cmd_classify(args) -> tuple[dict, dict, str | None]:
    if args.q is None:
        raise ValueError("classify needs --q (or --s)")
    ctx = QContext(q=args.q, l=args.l)
    groups = [g for g in args.group.split("x") if g]
    orbit_texts = [o for o in args.orbit.split(";") if o]
    inputs = {"group": args.group, "orbit": args.orbit, "q": args.q, "l": args.l}
    if len(groups) == 1 and len(orbit_texts) == 1:
        rs = _root_system(groups[0])
        verdict = classify_component(rs, _parse_orbit(orbit_texts[0]), ctx)
        return inputs, _verdict_dict(verdict), None
    if len(groups) != len(orbit_texts):
        raise ValueError(
            "product needs one ';'-separated orbit per 'x'-separated factor"
        )
    components = [
        (_root_system(g), _parse_orbit(o)) for g, o in zip(groups, orbit_texts)
    ]
    verdict = classify_product(components, ctx)
    return inputs, _verdict_dict(verdict), None


def _cmd_orbits(args) -> tuple[dict, dict, str | None]:
    t = parse_group(args.group)
    inputs = {"group": args.group}
    if t.family in ("E",):
        rows = [
            {"label": str(o), "weights": list(w.labels)}
            for o, w in distinguished_table(t)
        ]
        return inputs, {"distinguished_only": True, "orbits": rows}, None
    rs = build_root_system(t)
    rows = []
    for o in classical_orbits(rs):
        rows.append(
            {
                "label": str(o),
                "distinguished": is_distinguished(rs, o),
                "zero": is_zero_orbit(rs, o),
                "very_even": is_very_even(rs, o),
            }
        )
    return inputs, {"distinguished_only": False, "orbits": rows}, None


def _cmd_wdd(args) -> tuple[dict, dict, str | None]:
    rs = _root_system(args.group)
    o = _parse_orbit(args.orbit)
    w = weighted_dynkin(rs, o)
    gd = grading_dims(rs, w)
    results = {
        "weights": list(w.labels),
        "grading": {str(k): v for k, v in sorted(gd.as_dict().items())},
        "order_bound": smooth_bound_r(gd),
        "distinguished": is_distinguished(rs, o),
        "zero": is_zero_orbit(rs, o),
    }
    return {"group": args.group, "orbit": args.orbit}, results, None


def _cmd_arith(args) -> tuple[dict, dict, str | None]:
    if args.arith_command == "order":
        k = multiplicative_order(args.q, args.l)
        return {"q": args.q, "l": args.l}, {"order": k}, None
    if args.arith_command == "considerate":
        rs = _root_system(args.group)
        ctx = QContext(q=args.q, l=args.l)
        h = rs.coxeter_number
        ok = is_considerate(ctx, h)
        results = {
            "considerate": ok,
            "coxeter_number": h,
            "order_capped_at_h": order_capped(args.q, args.l, h) if args.l else None,
        }
        return {"group": args.group, "q": args.q, "l": args.l}, results, None
    if args.arith_command == "banal":
        rs = _root_system(args.group)
        ok = is_banal(args.l, rs, args.q)
        results = {
            "banal": ok,
            "group_order": chevalley_steinberg_order(rs, args.q),
        }
        return {"group": args.group, "q": args.q, "l": args.l}, results, None
    report = implication_sweep(
        args.families, args.rank_max, args.l_max, args.q_max
    )
    results = {
        "checked": report.checked,
        "violations": [list(v) for v in report.violations],
        "type_a_violations": [list(v) for v in report.type_a_violations],
        "banal_not_considerate": len(report.banal_not_considerate),
        "ok": report.ok,
    }
    inputs = {
        "families": args.families,
        "rank_max": args.rank_max,
        "l_max": args.l_max,
        "q_max": args.q_max,
    }
    failure = None if report.ok else "implication sweep found a violation"
    return inputs, results, failure


def _cmd_verify(args) -> tuple[dict, dict, str | None]:
    sub = args.verify_command
    if sub == "enumerate":
        spec = GroupSpec.gl(2)
        pts = enumerate_sg(spec, args.p, args.q)
        members = bool(sg_member(spec, pts[:, 0], pts[:, 1], args.q, args.p).all())
        dims = Counter(tangent_dim(spec, phi, n_mat, args.q, args.p) for phi, n_mat in pts)
        nonzero = int(pts[:, 1].any(axis=(1, 2)).sum())
        results = {
            "points": len(pts),
            "zero_points": len(pts) - nonzero,
            "nonzero_points": nonzero,
            "all_members": members,
            "tangent_dim_counts": {str(k): dims[k] for k in sorted(dims)},
        }
        failure = None if members else "enumerated point fails membership"
        return {"p": args.p, "q": args.q}, results, failure
    if sub == "tangent":
        spec = _group_spec(args.group)
        orbit = _parse_orbit(args.orbit)
        pts = stratum_sample(spec, args.p, args.q, orbit, args.samples, seed=args.seed)
        dims = [tangent_dim(spec, phi, n_mat, args.q, args.p) for phi, n_mat in pts]
        generic_smooth = len(pts) > 0 and min(dims) == spec.dim_g
        results = {
            "samples": len(pts),
            "tangent_dims": dims,
            "component_dim": spec.dim_g,
            "generic_smooth": generic_smooth,
        }
        inputs = {
            "group": args.group, "orbit": args.orbit, "p": args.p,
            "q": args.q, "samples": args.samples, "seed": args.seed,
        }
        failure = None if generic_smooth else "sampled tangent dims never reach the component dimension"
        return inputs, results, failure
    if sub == "nilpotency":
        spec = GroupSpec.gl(2)
        report = nilpotency_redundancy_check(spec, args.p, args.q)
        order = multiplicative_order(args.q, args.p)
        redundant_expected = order > 2
        consistent = (report.non_nilpotent_count == 0) == redundant_expected
        results = {
            "pairs_checked": report.pairs_checked,
            "non_nilpotent": report.non_nilpotent_count,
            "order_of_q": order,
            "redundant_expected": redundant_expected,
            "consistent": consistent,
        }
        if report.witness_phi is not None:
            results["witness_phi"] = report.witness_phi.tolist()
            results["witness_n"] = report.witness_n.tolist()
        failure = None if consistent else "nilpotency redundancy does not match the order of q"
        return {"p": args.p, "q": args.q}, results, failure
    if sub == "expbridge":
        spec = _group_spec(args.group)
        orbit = _parse_orbit(args.orbit)
        pts = stratum_sample(spec, args.p, args.q, orbit, args.samples, seed=args.seed)
        ok = len(pts) > 0 and all(exp_bridge_check(phi, n_mat, args.q, args.p)
                                  for phi, n_mat in pts)
        results = {"samples": len(pts), "all_pass": ok}
        inputs = {
            "group": args.group, "orbit": args.orbit, "p": args.p,
            "q": args.q, "samples": args.samples, "seed": args.seed,
        }
        failure = None if ok else "unipotent translation of a sample fails the conjugation identity"
        return inputs, results, failure
    # bundle
    spec = _group_spec(args.group)
    report = bundle_count_check(spec, args.p, args.q, samples=args.samples, seed=args.seed)
    fibers = Counter(report.fiber_counts)
    results = {
        "base_points": report.base_points,
        "expected_fiber": report.expected_fiber,
        "fiber_counts": {str(k): fibers[k] for k in sorted(fibers)},
        "quadratic_extension_points": report.quadratic_extension_points,
        "ok": report.ok,
    }
    inputs = {
        "group": args.group, "p": args.p, "q": args.q,
        "samples": args.samples, "seed": args.seed,
    }
    failure = None if report.ok else "fiber count differs from p^(n-1)"
    return inputs, results, failure


def _cmd_certify(args) -> tuple[dict, dict, str | None]:
    spec = _group_spec(args.group)
    orbit = _parse_orbit(args.orbit)
    cert = epsilon_certificate(spec, orbit, args.q, args.p, marked=args.marked)
    inputs = {
        "group": args.group, "orbit": args.orbit, "p": args.p,
        "q": args.q, "marked": args.marked,
    }
    failure = None if cert.verified_tangency else (
        "certificate checks failed: " + ",".join(cert.failed_checks)
    )
    return inputs, cert.as_dict(), failure


# ---------------------------------------------------------------- plumbing


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("config lines must look like key=value: %r" % line)
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    for key, val in _load_config(args.config).items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or getattr(args, attr) is not None:
            continue
        setattr(args, attr, int(val) if attr in _INT_KEYS else val)


def _render_table(data: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for key in data:
        val = data[key]
        if isinstance(val, dict):
            lines.append("%s%s:" % (pad, key))
            lines.extend(_render_table(val, indent + 1))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            for i, item in enumerate(val):
                lines.append("%s%s[%d]:" % (pad, key, i))
                lines.extend(_render_table(item, indent + 1))
        elif isinstance(val, list):
            lines.append("%s%s: %s" % (pad, key, ", ".join(str(x) for x in val)))
        else:
            lines.append("%s%s: %s" % (pad, key, val))
    return lines


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "table":
        text = "\n".join(_render_table(report)) + "\n"
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file supplying default flags")
    common.add_argument("--format", choices=("json", "table"), default=None,
                        help="output rendering (default json)")
    common.add_argument("--out", help="write the report to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="wdsmooth",
        description="classify and verify smoothness of framed unipotent pair varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", parents=[common],
                       help="verdict for one component or an 'x'-product")
    c.add_argument("--group", required=True,
                   help="group name, 'x'-separated for products (GL3, Sp6xGL2)")
    c.add_argument("--orbit", required=True,
                   help="partition like 2,1 (';'-separated for products), 0, or a label like E6(a1)")
    c.add_argument("--q", type=int, default=None, help="residual cardinality")
    c.add_argument("--s", type=int, default=None,
                   help="square root of q; sets q = s*s when --q is omitted")
    c.add_argument("--l", type=int, default=None, help="coefficient characteristic (0: generic)")

    o = sub.add_parser("orbits", parents=[common], help="list nilpotent orbits")
    o.add_argument("--group", required=True)

    w = sub.add_parser("wdd", parents=[common],
                       help="weighted diagram, grading and order bound for one orbit")
    w.add_argument("--group", required=True)
    w.add_argument("--orbit", required=True)

    a = sub.add_parser("arith", parents=[common], help="order arithmetic utilities")
    asub = a.add_subparsers(dest="arith_command", required=True)
    ac = asub.add_parser("considerate", parents=[common])
    ac.add_argument("--group", required=True)
    ac.add_argument("--q", type=int, required=True)
    ac.add_argument("--l", type=int, required=True)
    ab = asub.add_parser("banal", parents=[common])
    ab.add_argument("--group", required=True)
    ab.add_argument("--q", type=int, required=True)
    ab.add_argument("--l", type=int, required=True)
    ao = asub.add_parser("order", parents=[common])
    ao.add_argument("--q", type=int, required=True)
    ao.add_argument("--l", type=int, required=True)
    asw = asub.add_parser("sweep", parents=[common])
    asw.add_argument("--families", default="ABCDG")
    asw.add_argument("--rank-max", type=int, default=4, dest="rank_max")
    asw.add_argument("--l-max", type=int, default=13, dest="l_max")
    asw.add_argument("--q-max", type=int, default=9, dest="q_max")

    v = sub.add_parser("verify", parents=[common], help="exact matrix-level checks")
    vsub = v.add_subparsers(dest="verify_command", required=True)
    ve = vsub.add_parser("enumerate", parents=[common],
                         help="exhaustive GL2 pair enumeration")
    ve.add_argument("--p", type=int, required=True)
    ve.add_argument("--q", type=int, required=True)
    vt = vsub.add_parser("tangent", parents=[common],
                         help="tangent dimensions at sampled stratum points")
    vt.add_argument("--group", required=True)
    vt.add_argument("--orbit", required=True)
    vt.add_argument("--p", type=int, required=True)
    vt.add_argument("--q", type=int, required=True)
    vt.add_argument("--samples", type=int, default=None)
    vt.add_argument("--seed", type=int, default=None)
    vn = vsub.add_parser("nilpotency", parents=[common],
                         help="is the nilpotency constraint redundant for GL2")
    vn.add_argument("--p", type=int, required=True)
    vn.add_argument("--q", type=int, required=True)
    vx = vsub.add_parser("expbridge", parents=[common],
                         help="exp/log translation between nilpotent and unipotent pairs")
    vx.add_argument("--group", required=True)
    vx.add_argument("--orbit", required=True)
    vx.add_argument("--p", type=int, required=True)
    vx.add_argument("--q", type=int, required=True)
    vx.add_argument("--samples", type=int, default=None)
    vx.add_argument("--seed", type=int, default=None)
    vb = vsub.add_parser("bundle", parents=[common],
                         help="fiber counts over generic semisimple base points")
    vb.add_argument("--group", required=True)
    vb.add_argument("--p", type=int, required=True)
    vb.add_argument("--q", type=int, required=True)
    vb.add_argument("--samples", type=int, default=None)
    vb.add_argument("--seed", type=int, default=None)

    ce = sub.add_parser("certify", parents=[common],
                        help="singularity certificate for a non-distinguished orbit")
    ce.add_argument("--group", required=True)
    ce.add_argument("--orbit", required=True)
    ce.add_argument("--p", type=int, required=True)
    ce.add_argument("--q", type=int, default=None)
    ce.add_argument("--s", type=int, default=None,
                    help="square root of q; sets q = s*s mod p when --q is omitted")
    ce.add_argument("--marked", type=int, default=None,
                    help="block boundary carrying the doubled torus (default: first)")
    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "orbits": _cmd_orbits,
    "wdd": _cmd_wdd,
    "arith": _cmd_arith,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _apply_config(args)
        _fill_defaults(args)
        if getattr(args, "p", None) is not None:  # verify * and certify
            _field(args.p)
        if getattr(args, "samples", 1) < 1:  # verify tangent|expbridge|bundle
            raise ValueError("samples must be positive")
        inputs, results, failure = _HANDLERS[args.command](args)
    except (ValueError, CertificateError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "provenance": dict(sorted(PROVENANCE.items()))
        | {"package": "wdsmooth %s" % __version__},
    }
    _emit(report, args)
    if failure:
        print("check failed: %s" % failure, file=sys.stderr)
        return 2
    return 0


def _fill_defaults(args: argparse.Namespace) -> None:
    if getattr(args, "format", None) is None:
        args.format = "json"
    if getattr(args, "l", None) is None and hasattr(args, "l"):
        args.l = 0
    if getattr(args, "samples", None) is None and hasattr(args, "samples"):
        args.samples = 5
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = 0
    if getattr(args, "q", None) is None and getattr(args, "s", None) is not None:
        s = args.s
        args.q = (s * s) % args.p if getattr(args, "p", None) else s * s


if __name__ == "__main__":
    sys.exit(main())
