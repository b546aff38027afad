"""Command-line front end; one JSON document per run, errors to stderr.

Subcommands::

    validate <file>                       axiom report
    props <file> [--rmax N]               tameness properties
    complete <file> --max-norm N          canonical forms by norm level
    envelope <file>                       enveloping-group presentation
    ring <file> [--present|--dual|--hilbert D]
    symgeo --d D [--triples N | --connect S1 S2]
    homology <file> --grading a,b,c [--mod P] [--csv]
    rack-core <file>                      quandle-like core of a PMR

Exit codes: 0 success, 1 structural error, 2 axiom violation,
3 precondition failure.  ``--csv`` switches tabular sections to CSV.
``ring`` prints the quadratic presentation (``--present``) by default.
"""

from __future__ import annotations

import argparse
import json
import sys

from .completion import Completion
from .core import require_valid, validate
from .envelope import presentation
from .errors import AxiomError, PreconditionError, StructureError
from .serialize import load_pmq, pmq_to_json

__all__ = ["main"]


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _violations(report) -> list[dict]:
    return [
        {"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
        for v in report.violations
    ]


def _load_valid(path: str):
    q, is_rack = load_pmq(path)
    require_valid(q, rack=is_rack)
    return q, is_rack


def cmd_validate(args) -> int:
    q, is_rack = load_pmq(args.file)
    report = validate(q, rack=is_rack)
    if report.ok:
        _emit({"valid": True})
        return 0
    _emit({"valid": False, "violations": _violations(report)})
    return 2


def cmd_props(args) -> int:
    from .properties import property_report

    q, _ = _load_valid(args.file)
    report = property_report(q, args.rmax)
    if args.csv:
        sys.stdout.write("property,value\n")
        doc = report.to_json()
        for key in ("augmented", "locally_finite", "maximally_decomposable", "coconnected"):
            sys.stdout.write(f"{key},{doc[key]}\n")
        pw = doc["pairwise_determined"]
        sys.stdout.write(f"pairwise_determined,{pw['status']} (r_max={pw['r_max']})\n")
        return 0
    _emit(report.to_json())
    return 0


def cmd_complete(args) -> int:
    q, _ = _load_valid(args.file)
    comp = Completion(q)
    levels = {}
    for n in range(args.max_norm + 1):
        levels[str(n)] = [list(h.labels()) for h in comp.classes_of_norm(n)]
    _emit(
        {
            "max_norm": args.max_norm,
            "counts": {n: len(v) for n, v in levels.items()},
            "classes_by_norm": levels,
        }
    )
    return 0


def cmd_envelope(args) -> int:
    q, _ = _load_valid(args.file)
    pres = presentation(q)
    _emit(
        {
            "generators": list(pres.generators),
            "conjugation_relators": len(pres.conj_relators),
            "product_relators": len(pres.product_relators),
            "relators": pres.relator_lines(),
        }
    )
    return 0


def cmd_ring(args) -> int:
    from .ring import (
        class_sum_centrality,
        quadratic_dual,
        quadratic_presentation,
        quadratic_quotient_dimensions,
    )

    q, _ = _load_valid(args.file)
    if args.dual:
        dual = quadratic_dual(q)
        _emit(
            {
                "generators": list(dual.generators),
                "relators": [
                    {
                        "element": lbl,
                        "terms": [
                            [dual.generators[a], dual.generators[b]] for a, b in pairs
                        ],
                    }
                    for lbl, pairs in dual.relators
                ],
            }
        )
        return 0
    if args.hilbert is not None:
        dims = quadratic_quotient_dimensions(q, args.hilbert)
        _emit(
            {
                "degrees": [
                    {"degree": d, "quotient_dim": a, "norm_census": c}
                    for d, a, c in dims
                ],
                "match": all(a == c for _, a, c in dims),
            }
        )
        return 0
    pres = quadratic_presentation(q)
    _emit(
        {
            "generators": list(pres.generators),
            "pair_relators": len([1 for l, r in pres.pair_relators if l != r]),
            "zero_relators": len(pres.zero_relators),
            "class_sums_central": class_sum_centrality(q),
        }
    )
    return 0


def _pairs(text: str) -> list:
    """A ``--connect`` argument: a JSON list of integer pairs [i, j]."""
    try:
        pairs = json.loads(text)
    except json.JSONDecodeError:
        pairs = None
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in pairs
    ):
        raise StructureError(f"--connect argument {text!r} is not a JSON list of pairs [i, j]")
    return pairs


def cmd_symgeo(args) -> int:
    from .symgeo import clebsch_connect, sym_geodesic_pmq, transposition, triples_of_weight

    if args.connect:
        t1, t2 = ([transposition(args.d, i, j) for i, j in _pairs(text)] for text in args.connect)
        kind, payload = clebsch_connect(t1, t2, args.d)
        if kind == "log":
            _emit({"connected": True, "moves": payload})
        else:
            _emit({"connected": False, "differing_invariant": payload})
        return 0
    n = args.triples if args.triples is not None else args.d
    q = sym_geodesic_pmq(args.d)
    comp = Completion(q)
    census = []
    for level in range(n + 1):
        triples = triples_of_weight(args.d, level)
        classes = comp.classes_of_norm(level)
        census.append(
            {"norm": level, "triples": len(triples), "canonical_classes": len(classes)}
        )
    _emit({"d": args.d, "census": census, "match": all(c["triples"] == c["canonical_classes"] for c in census)})
    return 0


def cmd_homology(args) -> int:
    from .barhur import build_relative_complex, homology
    from .snf import is_prime

    p = args.mod
    if p and not is_prime(p):
        raise PreconditionError(f"--mod {p} is not a prime", failed="prime")
    q, _ = _load_valid(args.file)
    comp = Completion(q)
    factors = [s for s in args.grading.split(",") if s] if args.grading else []
    b = comp.of_labels(factors)
    cx = build_relative_complex(q, b, mod=args.mod or 0)
    hom = homology(cx)
    table = {
        str(n): (
            {"rank": data["rank"], "torsion": data["torsion"]}
            if "torsion" in data
            else {"rank": data["rank"]}
        )
        for n, data in sorted(hom.items())
        if data["rank"] or data.get("torsion")
    }
    if args.csv:
        sys.stdout.write("degree,rank,torsion\n")
        for n, data in sorted(hom.items()):
            torsion = ";".join(str(t) for t in data.get("torsion", []))
            sys.stdout.write(f"{n},{data['rank']},{torsion}\n")
        return 0
    _emit(
        {
            "grading": list(b.labels()),
            "mod": args.mod or 0,
            "dims": {str(n): d for n, d in sorted(cx.dims().items())},
            "H": table,
        }
    )
    return 0


def cmd_rack_core(args) -> int:
    from .racks import quandle_like_core

    q, _ = load_pmq(args.file)
    core = quandle_like_core(q)
    _emit(
        {
            "core_elements": list(core.labels),
            "pmq": pmq_to_json(core),
            "pmq_valid": validate(core).ok,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmq", description="exact computations with finite partially multiplicative quandles"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every axiom")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("props", help="tameness properties")
    p.add_argument("file")
    p.add_argument("--rmax", type=int, default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("complete", help="canonical forms in the completion")
    p.add_argument("file")
    p.add_argument("--max-norm", type=int, required=True)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("envelope", help="enveloping-group presentation")
    p.add_argument("file")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("ring", help="quadratic ring data")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--present", action="store_true", help="the presentation (the default)")
    group.add_argument("--dual", action="store_true")
    group.add_argument("--hilbert", type=int, default=None, metavar="D")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("symgeo", help="symmetric geodesic calculus")
    p.add_argument("--d", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--triples", type=int, default=None, metavar="N")
    group.add_argument("--connect", nargs=2, metavar=("S1", "S2"))
    p.set_defaults(func=cmd_symgeo)

    p = sub.add_parser("homology", help="homology of the relative complex")
    p.add_argument("file")
    p.add_argument("--grading", required=True, help="comma-separated factor labels")
    p.add_argument("--mod", type=int, default=0)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("rack-core", help="quandle-like core of a PMR")
    p.add_argument("file")
    p.set_defaults(func=cmd_rack_core)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StructureError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        _emit({"error": "structural", "message": str(exc)})
        return 1
    except AxiomError as exc:
        print(f"axiom violation: {exc}", file=sys.stderr)
        doc = {"error": "axiom", "message": str(exc)}
        if exc.report is not None:
            doc["violations"] = _violations(exc.report)
        _emit(doc)
        return 2
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        _emit({"error": "precondition", "message": str(exc), "failed": exc.failed})
        return 3


if __name__ == "__main__":
    sys.exit(main())
