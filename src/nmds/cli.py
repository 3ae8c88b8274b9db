"""Command-line surface: build, verify and report on the constructions.

Grammar:

    nmds verify [--id ID | --all] --m M[,M...] [--modulus HEX]
                [--format json|csv|markdown] [--out PATH] [-v]
    nmds show   --id ID --m M --what matrix|enumerator|locality|bounds
                [--modulus HEX]
    nmds repair --id ID --m M --erase IDX [--modulus HEX]

Exit status: 0 all expectations met, 1 a verified expectation failed (the
failing fields are named on stderr), 2 usage error.  Violating a
construction's m-constraint is a recorded warning, not a failure.  Both
come from ``nmds.constructions.verify_construction``; ``run_verification``
builds a pair's code and renders that comparison as the report.

All codeword counts are serialized as decimal strings; they outgrow 64-bit
consumers well inside the supported field range.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys

from . import constructions as cons
from .classify import classify
from .codes import matrix_to_text, weight_distribution
from .field import GF2m, MAX_M
from .lrc import FLAGS, classify_lrc, locality_of_code, locality_of_dual, repair_map, repair_value

__all__ = ["main", "run_verification", "report_to_json"]

_REPAIR_SEED = 0x5EED


def run_verification(cid: str, m: int, modulus: int | None = None) -> tuple[dict, list[str]]:
    """Full pipeline for one (construction, m) pair; ``cid`` is a registry
    key, as ``normalize_id`` returns it.

    Returns the report object (JSON-ready) and the list of failed check
    names; an empty list means every registered expectation held.
    """
    ctx = GF2m(m, modulus)
    code = cons.build(cid, ctx)
    vr = cons.verify_construction(cid, ctx, code)
    report: dict = {
        "key": f"{cid}@{m}",
        "id": cid,
        "m": m,
        "q": ctx.q,
        "n": vr.n,
        "k": vr.k,
        "d": vr.d,
        "d_dual": vr.d_dual,
        "class": vr.tag,
        "distribution": {str(w): str(c) for w, c in weight_distribution(code).nonzero_items()},
        "dual_weight3_count": None if vr.dual_weight3_count is None else str(vr.dual_weight3_count),
        "pairing_ok": vr.pairing_ok,
        "locality": None,
        "bounds": None,
        "warnings": vr.warnings,
    }
    if vr.locality:
        (loc_code, loc_dual), (opt_code, opt_dual) = vr.locality, vr.bounds
        report["locality"] = {
            "code": loc_code.r,
            "dual": loc_dual.r,
            "mechanism_code": loc_code.mechanism,
            "mechanism_dual": loc_dual.mechanism,
        }
        report["bounds"] = {
            "sl_rhs_code": opt_code.sl_rhs,
            "sl_rhs_dual": opt_dual.sl_rhs,
            "cm_rhs_code": opt_code.cm_rhs,
            "cm_rhs_dual": opt_dual.cm_rhs,
            "flags": {
                "code": {name: getattr(opt_code, name) for name in FLAGS},
                "dual": {name: getattr(opt_dual, name) for name in FLAGS},
            },
        }
    return report, vr.failing_fields()


def report_to_json(reports: list[dict]) -> str:
    return json.dumps(reports, indent=2) + "\n"


def _flatten(report: dict) -> dict:
    loc = report.get("locality") or {}
    bounds = report.get("bounds") or {}
    return {
        **{k: report.get(k) for k in (
            "key", "id", "m", "q", "n", "k", "d", "d_dual", "class",
            "dual_weight3_count", "pairing_ok",
        )},
        "locality_code": loc.get("code"),
        "locality_dual": loc.get("dual"),
        "mechanism_code": loc.get("mechanism_code"),
        "mechanism_dual": loc.get("mechanism_dual"),
        "sl_rhs_code": bounds.get("sl_rhs_code"),
        "sl_rhs_dual": bounds.get("sl_rhs_dual"),
        "cm_rhs_code": bounds.get("cm_rhs_code"),
        "cm_rhs_dual": bounds.get("cm_rhs_dual"),
        "distribution": ";".join(f"{w}:{c}" for w, c in report["distribution"].items()),
        "warnings": " | ".join(report["warnings"]),
    }


def report_to_csv(reports: list[dict]) -> str:
    import csv  # here alone, so that a run without csv output never imports it

    rows = [_flatten(rep) for rep in reports]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def report_to_markdown(reports: list[dict]) -> str:
    cols = ["key", "n", "k", "d", "d_dual", "class", "pairing_ok",
            "locality_code", "locality_dual", "warnings"]
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for rep in reports:
        flat = _flatten(rep)
        lines.append("| " + " | ".join("" if flat.get(c) is None else str(flat.get(c)) for c in cols) + " |")
    return "\n".join(lines) + "\n"


_FORMATTERS = {"json": report_to_json, "csv": report_to_csv, "markdown": report_to_markdown}


def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad m list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty m list")
    for i, m in enumerate(values):
        if not 2 <= m <= MAX_M:
            raise argparse.ArgumentTypeError(f"m={m} outside supported range [2, {MAX_M}]")
        if m in values[:i]:
            raise argparse.ArgumentTypeError(f"m={m} given more than once")
    return values


def _parse_single_m(text: str) -> int:
    values = _parse_m_list(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError("expected a single m value")
    return values[0]


def _parse_modulus(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"modulus must be a hex integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmds",
        description="Build and verify the NMDS code constructions over GF(2^m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification pipeline")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help=f"construction id ({', '.join(cons.CONSTRUCTION_IDS)})")
    group.add_argument("--all", action="store_true", help="verify every construction")
    p_verify.add_argument("--m", type=_parse_m_list, required=True,
                          help="extension degree(s), e.g. 3 or 3,5; weights are "
                               f"counted on the lines of PG(2,q), for m = 2..{MAX_M}")
    p_verify.add_argument("--modulus", type=_parse_modulus, default=None,
                          help="modulus override as hex coefficient bits, e.g. 0xB")
    p_verify.add_argument("--format", choices=sorted(_FORMATTERS), default="json")
    p_verify.add_argument("--out", default=None, help="write the aggregate report here")
    p_verify.add_argument("--verbose", "-v", action="store_true")

    p_show = sub.add_parser("show", help="print one object for a construction")
    p_show.add_argument("--id", required=True)
    p_show.add_argument("--m", type=_parse_single_m, required=True)
    p_show.add_argument("--what", choices=["matrix", "enumerator", "locality", "bounds"],
                        required=True)
    p_show.add_argument("--modulus", type=_parse_modulus, default=None)

    p_repair = sub.add_parser("repair", help="erase one coordinate and recover it")
    p_repair.add_argument("--id", required=True)
    p_repair.add_argument("--m", type=_parse_single_m, required=True)
    p_repair.add_argument("--erase", type=int, required=True, help="coordinate index to erase")
    p_repair.add_argument("--modulus", type=_parse_modulus, default=None)
    return parser


def _cmd_verify(args) -> int:
    ids = [cons.normalize_id(i) for i in (cons.CONSTRUCTION_IDS if args.all else [args.id])]
    for m in args.m:  # a modulus that does not fit a later m fails before any pair
        GF2m(m, args.modulus)
    reports = []
    all_failures: list[tuple[str, list[str]]] = []
    for m in args.m:
        for cid in ids:
            report, failures = run_verification(cid, m, args.modulus)
            reports.append(report)
            if failures:
                all_failures.append((report["key"], failures))
            if args.verbose:
                status = "FAIL" if failures else "ok"
                warn = f" ({len(report['warnings'])} warning)" if report["warnings"] else ""
                print(f"{report['key']}: {status}{warn}", file=sys.stderr)
    text = _FORMATTERS[args.format](reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if all_failures:
        for key, fields in all_failures:
            print(f"nmds: FAIL {key}: {', '.join(fields)}", file=sys.stderr)
        return 1
    return 0


def _require_nmds(cid: str, code) -> None:
    """Locality, bounds and repair read an NMDS code.  A pair that is not
    NMDS is refused naming its class, and its m-constraint if it is off it."""
    tag, m = classify(code).tag, code.ctx.m
    if tag != "NMDS":
        off = "" if cons.m_constraint_ok(cid, m) else ": " + cons.M_CONSTRAINT.format(m=m)
        raise ValueError(f"{cid} at m={m} is {tag}, not NMDS{off}, and locality, bounds "
                         "and repair need an NMDS code")


def _cmd_show(args) -> int:
    cid = cons.normalize_id(args.id)
    ctx = GF2m(args.m, args.modulus)
    code = cons.build(cid, ctx)
    if args.what == "matrix":
        sys.stdout.write(matrix_to_text(code))
        return 0
    if args.what == "enumerator":
        print(weight_distribution(code).enumerator_str())
        return 0
    _require_nmds(cid, code)
    r_code, r_dual = locality_of_code(code).r, locality_of_dual(code).r
    if args.what == "locality":
        print(f"({r_code}, {r_dual})")
        return 0
    for rep in classify_lrc(code, r_code, r_dual):
        # k-optimal is always among the flags: on both sides of an NMDS code
        # the CM bound's t = 1 term is k, and _optimality refuses k above it.
        flags = ", ".join(name.replace("_", "-") for name in FLAGS if getattr(rep, name))
        print(
            f"{rep.side}: [n={rep.n}, k={rep.k}, d={rep.d}] r={rep.r} "
            f"singleton_like_rhs={rep.sl_rhs} cm_rhs={rep.cm_rhs} (t={rep.cm_t}) {flags}"
        )
    return 0


def _cmd_repair(args) -> int:
    cid = cons.normalize_id(args.id)
    ctx = GF2m(args.m, args.modulus)
    code = cons.build(cid, ctx)
    _require_nmds(cid, code)
    if not 0 <= args.erase < code.n:
        print(f"nmds: erase index {args.erase} outside [0, {code.n})", file=sys.stderr)
        return 2
    loc = locality_of_code(code)
    witnesses = repair_map(code)
    idx, coeffs = witnesses[args.erase]
    if len(idx) > loc.r:
        print(f"nmds: no repair set of size {loc.r} covers coordinate {args.erase}",
              file=sys.stderr)
        return 1

    rng = random.Random(_REPAIR_SEED)
    message = [rng.randrange(ctx.q) for _ in range(code.k)]
    word = code.codeword(message)
    true_value = word[args.erase]
    recovered = repair_value(word, (idx, coeffs), ctx)

    terms = " + ".join(f"{h:#x}*c[{j}]" for j, h in zip(idx, coeffs))
    print(f"construction {cid} over GF({ctx.q}), locality r={loc.r}")
    print(f"message {message} -> codeword {word}")
    print(f"erased c[{args.erase}] = {true_value:#x}")
    print(f"repair set {list(idx)}, linear function c[{args.erase}] = {terms}")
    print(f"recovered {recovered:#x}: {'ok' if recovered == true_value else 'MISMATCH'}")
    return 0 if recovered == true_value else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "show":
            return _cmd_show(args)
        return _cmd_repair(args)
    except KeyError as exc:  # an unknown id; str() of a KeyError would quote it
        print(f"nmds: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"nmds: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
