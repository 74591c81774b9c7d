"""Command line interface.

Subcommands:
    classify   smooth/singular/not-covered verdict for components
    orbits     nilpotent orbit labels for a group
    wdd        weighted diagram, grading dimensions and order bound
    arith      considerate / banal / order / sweep utilities
    verify     exact desk-scale checks on matrix realizations
    certify    singularity certificate at a degeneration base point

Reports are JSON by default (deterministic: sorted keys, no
timestamps; byte for byte what ``json.dumps`` writes with an indent of 2
and sorted keys); --format table renders the same data as text. Exit codes:
0 success, 1 usage or unsupported input, 2 a property check failed
(one machine-parsable line on stderr).

A call that starts with its command words, followed by exact ``--name
value`` pairs that the command's flags accept, is parsed straight from the
command table; any other call (help, ``--name=value``, an abbreviation,
a value starting with ``-``, an unknown, missing or invalid flag) goes
through the argparse tree, which prints the help and the errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

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
    PROVENANCE,
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
from .variety import (
    GroupSpec,
    bundle_count_check,
    enumerate_sg,
    exp_bridge_check,
    nilpotency_redundancy_check,
    sg_member,
    stratum_sample,
    tangent_dim,
)

SCHEMA_VERSION = "1"
#: the report's provenance block; sorted, so that --format table lists it in order
_PROVENANCE = dict(sorted(PROVENANCE.items())) | {"package": "wdsmooth %s" % __version__}


def _fields(text: str, sep: str, what: str) -> list[str]:
    """``text`` split at ``sep``, each field stripped of the spaces around
    it; an empty or blank field is an error naming the text."""
    fields = [field.strip() for field in text.split(sep)]
    if not all(fields):
        raise ValueError("%s %r has an empty %r-separated field" % (what, text, sep))
    return fields


def _parse_orbit(text: str) -> OrbitLabel:
    text = text.strip()
    if text in ("0", "zero"):
        return OrbitLabel.zero()
    # a partition: digits separated by commas, with spaces around them allowed
    if text and all(not field or field.isdigit() for field in map(str.strip, text.split(","))):
        return OrbitLabel.partition(tuple(int(x) for x in _fields(text, ",", "orbit")))
    return OrbitLabel.named(text)


def _root_system(name: str) -> RootSystem:
    return build_root_system(parse_group(name))


def _group_spec(name: str) -> GroupSpec:
    key = name.strip().upper()
    if key == "GSP4":
        return GroupSpec.gsp4()
    if key in ("GL1", "GL2", "GL3", "GL4"):
        return GroupSpec.gl(int(key[2:]))
    raise ValueError("matrix realizations cover GL1..GL4 and GSp4, not %r" % name)


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
#
# Each handler takes the resolved arguments and returns (results, failure):
# failure is None, or the message of a property check that ran and failed.


def _classify(args) -> tuple[dict, str | None]:
    ctx = QContext(q=args.q, l=args.l)
    if not args.group.strip("x"):
        raise ValueError("group is empty")
    if not args.orbit.strip(";"):
        raise ValueError("orbit is empty")
    groups = _fields(args.group, "x", "group")
    orbit_texts = _fields(args.orbit, ";", "orbit")
    if len(groups) == 1 and len(orbit_texts) == 1:
        rs = _root_system(groups[0])
        verdict = classify_component(rs, _parse_orbit(orbit_texts[0]), ctx)
        return _verdict_dict(verdict), None
    if len(groups) != len(orbit_texts):
        raise ValueError(
            "product needs one ';'-separated orbit per 'x'-separated factor"
        )
    components = [
        (_root_system(g), _parse_orbit(o)) for g, o in zip(groups, orbit_texts)
    ]
    verdict = classify_product(components, ctx)
    return _verdict_dict(verdict), None


def _orbits(args) -> tuple[dict, str | None]:
    t = parse_group(args.group)
    if t.family in ("E",):
        rows = [
            {"label": str(o), "weights": list(w.labels)}
            for o, w in distinguished_table(t)
        ]
        return {"distinguished_only": True, "orbits": rows}, None
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
    return {"distinguished_only": False, "orbits": rows}, None


def _wdd(args) -> tuple[dict, str | None]:
    rs = _root_system(args.group)
    o = _parse_orbit(args.orbit)
    w = weighted_dynkin(rs, o)
    gd = grading_dims(rs, w)
    results = {
        "weights": list(w.labels),
        "grading": {str(k): v for k, v in gd.items()},
        "order_bound": smooth_bound_r(gd),
        "distinguished": is_distinguished(rs, o),
        "zero": is_zero_orbit(rs, o),
    }
    return results, None


def _arith_order(args) -> tuple[dict, str | None]:
    order = multiplicative_order(args.q, args.l)
    QContext(q=args.q)  # q a prime power, after l's own checks
    return {"order": order}, None


def _arith_considerate(args) -> tuple[dict, str | None]:
    rs = _root_system(args.group)
    ctx = QContext(q=args.q, l=args.l)
    h = rs.coxeter_number
    results = {
        "considerate": is_considerate(ctx, h),
        "coxeter_number": h,
        "order_capped_at_h": order_capped(args.q, args.l, h) if args.l else None,
    }
    return results, None


def _arith_banal(args) -> tuple[dict, str | None]:
    rs = _root_system(args.group)
    QContext(q=args.q, l=args.l)  # q a prime power, l not dividing it
    results = {
        "banal": is_banal(args.l, rs, args.q),
        "group_order": chevalley_steinberg_order(rs, args.q),
    }
    return results, None


def _arith_sweep(args) -> tuple[dict, str | None]:
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
    return results, None if report.ok else "implication sweep found a violation"


def _verify_enumerate(args) -> tuple[dict, str | None]:
    spec = GroupSpec.gl(2)
    pts = enumerate_sg(spec, args.p, args.q)
    members = bool(sg_member(spec, pts[:, 0], pts[:, 1], args.q, args.p).all())
    dims = Counter(tangent_dim(spec, phi, n_mat, args.q, args.p)
                   for phi, n_mat in zip(pts[:, 0], pts[:, 1]))
    nonzero = int(pts[:, 1].any(axis=(1, 2)).sum())
    results = {
        "points": len(pts),
        "zero_points": len(pts) - nonzero,
        "nonzero_points": nonzero,
        "all_members": members,
        "tangent_dim_counts": {str(k): dims[k] for k in sorted(dims)},
    }
    return results, None if members else "enumerated point fails membership"


def _stratum_points(args):
    spec = _group_spec(args.group)
    orbit = _parse_orbit(args.orbit)
    pts = stratum_sample(spec, args.p, args.q, orbit, args.samples, seed=args.seed)
    if len(pts) < args.samples:
        # a print, not warnings.warn, which -W error would turn into an exception
        print("warning: sampled %d of %d requested points" % (len(pts), args.samples),
              file=sys.stderr)
    return spec, pts


def _verify_tangent(args) -> tuple[dict, str | None]:
    spec, pts = _stratum_points(args)
    dims = [tangent_dim(spec, phi, n_mat, args.q, args.p)
            for phi, n_mat in zip(pts[:, 0], pts[:, 1])]
    generic_smooth = len(pts) > 0 and min(dims) == spec.dim_g
    results = {
        "samples": len(pts),
        "tangent_dims": dims,
        "component_dim": spec.dim_g,
        "generic_smooth": generic_smooth,
    }
    return results, None if generic_smooth else (
        "sampled tangent dims never reach the component dimension"
    )


def _verify_nilpotency(args) -> tuple[dict, str | None]:
    report = nilpotency_redundancy_check(GroupSpec.gl(2), args.p, args.q)
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
    return results, None if consistent else (
        "nilpotency redundancy does not match the order of q"
    )


def _verify_expbridge(args) -> tuple[dict, str | None]:
    _, pts = _stratum_points(args)
    ok = len(pts) > 0 and bool(exp_bridge_check(pts[:, 0], pts[:, 1], args.q, args.p).all())
    results = {"samples": len(pts), "all_pass": ok}
    return results, None if ok else (
        "unipotent translation of a sample fails the conjugation identity"
    )


def _verify_bundle(args) -> tuple[dict, str | None]:
    spec = _group_spec(args.group)
    report = bundle_count_check(spec, args.p, args.q, samples=args.samples, seed=args.seed)
    results = {
        "base_points": report.base_points,
        "expected_fiber": report.expected_fiber,
        "fiber_counts": {str(k): n for k, n in sorted(report.fiber_counts.items())},
        "quadratic_extension_points": report.quadratic_extension_points,
        "ok": report.ok,
    }
    return results, None if report.ok else "fiber count differs from p^(n-1)"


def _certify(args) -> tuple[dict, str | None]:
    spec = _group_spec(args.group)
    orbit = _parse_orbit(args.orbit)
    cert = epsilon_certificate(spec, orbit, args.q, args.p, marked=args.marked)
    failure = None if cert.verified_tangency else (
        "certificate checks failed: " + ",".join(cert.failed_checks)
    )
    return cert.as_dict(), failure


# ---------------------------------------------------------------- commands


class _Flag(NamedTuple):
    """One flag, parsed from the command table or by argparse; an unset
    flag takes its value from the config file (converted with ``type``),
    else from ``default``. argparse itself sets no default, so a flag
    given to a command group is not overwritten by its subcommand's unset
    copy."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    help: str | None = None
    required: bool = False
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


#: flags of the top level, every command group and every command; they
#: are not report inputs, and the one given last on the command line wins
_COMMON = (
    _Flag("--config", help="key=value file supplying default flags"),
    _Flag("--format", default="json", choices=("json", "table"),
          help="output rendering (default json)"),
    _Flag("--out", help="write the report to this path instead of stdout"),
)

_GROUP = _Flag("--group", required=True)
_ORBIT = _Flag("--orbit", required=True)
_P = _Flag("--p", int, required=True)
_Q = _Flag("--q", int, required=True)
_GROUP_ORBIT = (_GROUP, _ORBIT)
_P_Q = (_P, _Q)
_Q_L = (_Q, _Flag("--l", int, required=True))
_SAMPLING = (_Flag("--samples", int, 5), _Flag("--seed", int, 0))

#: command path -> (help, handler, flags), in --help order. A path with
#: no handler is a command group whose subcommands follow it.
_COMMANDS = {
    ("classify",): ("verdict for one component or an 'x'-product", _classify, (
        _GROUP._replace(help="group name, 'x'-separated for products (GL3, Sp6xGL2)"),
        _ORBIT._replace(help="partition like 2,1 (';'-separated for products), 0, "
                             "or a label like E6(a1)"),
        _Flag("--q", int, help="residual cardinality"),
        _Flag("--s", int, help="square root of q; sets q = s*s when --q is omitted"),
        _Flag("--l", int, default=0, help="coefficient characteristic (0: generic)"),
    )),
    ("orbits",): ("list nilpotent orbits", _orbits, (_GROUP,)),
    ("wdd",): ("weighted diagram, grading and order bound for one orbit", _wdd,
               _GROUP_ORBIT),
    ("arith",): ("order arithmetic utilities", None, ()),
    ("arith", "considerate"): (None, _arith_considerate, (_GROUP, *_Q_L)),
    ("arith", "banal"): (None, _arith_banal, (_GROUP, *_Q_L)),
    ("arith", "order"): (None, _arith_order, _Q_L),
    ("arith", "sweep"): (None, _arith_sweep, (
        _Flag("--families", default="ABCDG"),
        _Flag("--rank-max", int, 4),
        _Flag("--l-max", int, 13),
        _Flag("--q-max", int, 9),
    )),
    ("verify",): ("exact matrix-level checks", None, ()),
    ("verify", "enumerate"): ("exhaustive GL2 pair enumeration", _verify_enumerate, _P_Q),
    ("verify", "tangent"): ("tangent dimensions at sampled stratum points", _verify_tangent,
                            (*_GROUP_ORBIT, *_P_Q, *_SAMPLING)),
    ("verify", "nilpotency"): ("is the nilpotency constraint redundant for GL2",
                               _verify_nilpotency, _P_Q),
    ("verify", "expbridge"): ("exp/log translation between nilpotent and unipotent pairs",
                              _verify_expbridge, (*_GROUP_ORBIT, *_P_Q, *_SAMPLING)),
    ("verify", "bundle"): ("fiber counts over generic semisimple base points", _verify_bundle,
                           (_GROUP, *_P_Q, *_SAMPLING)),
    ("certify",): ("singularity certificate for a non-distinguished orbit", _certify, (
        *_GROUP_ORBIT, _P,
        _Flag("--q", int),
        _Flag("--s", int, help="square root of q; sets q = s*s mod p when --q is omitted"),
        _Flag("--marked", int, help="block boundary carrying the doubled torus "
                                    "(default: first)"),
    )),
}


def _add_flags(parser: argparse.ArgumentParser, flags: tuple[_Flag, ...]) -> None:
    for flag in flags:
        parser.add_argument(flag.name, type=flag.type, required=flag.required,
                            choices=flag.choices, help=flag.help,
                            default=argparse.SUPPRESS)


#: each command's namespace defaults by its ``_COMMANDS`` path: its
#: handler, its flags by dest over ``_COMMON`` and the command, and the
#: dests its report echoes
_DEFAULTS = {
    path: {
        "handler": handler,
        "flags": {flag.dest: flag for flag in _COMMON + flags},
        "inputs": tuple(flag.dest for flag in flags if flag.name != "--s"),
    }
    for path, (_, handler, flags) in _COMMANDS.items()
    if handler is not None
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process, on the first
    call that the direct parse refuses: parsing returns a new namespace
    each call, and a command's defaults are its ``_DEFAULTS``."""
    # copying a parent's actions is cheaper than adding them anew to every parser
    common = argparse.ArgumentParser(add_help=False)
    _add_flags(common, _COMMON)
    parser = argparse.ArgumentParser(
        prog="wdsmooth",
        description="classify and verify smoothness of framed unipotent pair varieties",
        parents=[common],
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (help_text, handler, flags) in _COMMANDS.items():
        # a help=None keyword would still list the subcommand in --help
        extra = {"help": help_text} if help_text else {}
        sp = subparsers[path[:-1]].add_parser(path[-1], parents=[common], **extra)
        _add_flags(sp, flags)
        if handler is None:
            subparsers[path] = sp.add_subparsers(dest=path[-1] + "_command", required=True)
        else:
            sp.set_defaults(**_DEFAULTS[path])
    for action in subparsers.values():
        # a "required" error names the action by its metavar, else by its dest
        action.metavar = "{%s}" % ",".join(action.choices)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a call straight from the command table when ``argv[:1]`` or
    ``argv[:2]`` is a command's path and the words after it are
    ``--name value`` pairs where each name is exactly one of the command's
    flags (no abbreviation, no ``=``), no value starts with ``-``, each
    value converts with its flag's type and lies in its choices, and every
    required flag is given. The namespace then holds the command's
    defaults, the values (the last of a repeated flag wins) and
    ``command``, as the tree's would. Every other call, help included,
    goes through the argparse tree, which prints the help and errors."""
    k = 1 if tuple(argv[:1]) in _DEFAULTS else 2
    defaults = _DEFAULTS.get(tuple(argv[:k]))
    if defaults is not None and (len(argv) - k) % 2 == 0:
        flags = defaults["flags"]
        values = {}
        for name, text in zip(argv[k::2], argv[k + 1::2]):
            flag = flags.get(name[2:].replace("-", "_"))
            if flag is None or flag.name != name or text.startswith("-"):
                break
            try:
                value = flag.type(text)
            except ValueError:
                break
            if flag.choices is not None and value not in flag.choices:
                break
            values[flag.dest] = value
        else:
            if all(dest in values for dest, flag in flags.items() if flag.required):
                # cheaper than Namespace(**kwargs), which sets each attribute in turn
                args = argparse.Namespace(command=argv[0])
                vars(args).update(defaults, **values)
                return args
    return _build_parser().parse_args(argv)


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


def _resolve(args: argparse.Namespace) -> dict:
    """Fill each flag left unset on the command line, first from the
    config file, then from the flag's default; --s sets q = s*s (mod p
    when the command has --p) if q is still unset, and a command with
    --s needs one of the two. Returns the report's inputs: the command's
    flags without --s."""
    flags = args.flags
    config = getattr(args, "config", None)
    if config:
        for key, text in _load_config(config).items():
            dest = key.replace("-", "_")
            flag = flags.get(dest)
            if flag is not None and getattr(args, dest, None) is None:
                setattr(args, dest, flag.type(text))
    for dest, flag in flags.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, flag.default)
    if "s" in flags and args.q is None:
        if args.s is None:
            raise ValueError("%s needs --q (or --s)" % args.command)
        args.q = args.s * args.s % args.p if getattr(args, "p", None) else args.s * args.s
    return {dest: getattr(args, dest) for dest in args.inputs}


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


def _json(obj, pad: str = "\n") -> str:
    """The text ``json.dumps`` writes for ``obj`` with an indent of 2 and
    sorted keys, written directly: with an indent, ``json.dumps`` builds a
    new encoder on each call and runs json's pure-Python encoder, since
    the C encoder writes only unindented text. ``pad`` is the newline and
    indent that precede ``obj``'s closing bracket. Dicts must have str
    keys; anything but dicts, lists, tuples, str, int, bool, None and
    float raises TypeError, as ``json.dumps`` does."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        # encode_basestring_ascii raises TypeError on a key that is not a str
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json(obj[key], inner) for key in sorted(obj)
        ]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + pad + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)  # repr, or NaN / Infinity / -Infinity
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _emit(args: argparse.Namespace, inputs: dict, results: dict) -> None:
    if args.format == "table":
        text = "\n".join(_render_table({
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "provenance": _PROVENANCE,
        })) + "\n"
    else:
        # the five top-level keys in sorted order, around the constant ones
        text = ('{\n  "command": ' + _json(args.command, "\n  ")
                + ',\n  "inputs": ' + _json(inputs, "\n  ")
                + _PROVENANCE_JSON + _json(results, "\n  ") + _SCHEMA_JSON)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: the report's constant keys, encoded once: the provenance block, which
#: sorts between "inputs" and "results", and schema_version, which closes
#: the report
_PROVENANCE_JSON = ',\n  "provenance": ' + _json(_PROVENANCE, "\n  ") + ',\n  "results": '
_SCHEMA_JSON = ',\n  "schema_version": ' + _json(SCHEMA_VERSION, "\n  ") + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        inputs = _resolve(args)
        results, failure = args.handler(args)
        _emit(args, inputs, results)
    except (ValueError, CertificateError, OSError) as exc:
        # OSError: a --config file that cannot be read, an --out path that cannot be written
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if failure:
        print("check failed: %s" % failure, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
