"""Command-line front end.

Subcommands: disc, glues, overlattice, ample, evenset, hyperelliptic, chow,
table1, correspond, verify-paper.  Exit status 0 on success and verified
outcomes, 1 on a verification mismatch, 2 on usage errors (including
malformed families, divisors outside their lattice and inadmissible glue).
All reports are deterministic byte-for-byte for fixed inputs.

A cold call loads only its own subcommand's modules: `exactlin`, `lattice`,
`disc` and `families` come with the package, and each subcommand imports
`positivity`, `chow`, `models` or `acceptance` in its own body, so that
`disc` or `chow` never pays for the root search or the acceptance suite.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .disc import disc_report_json, discriminant_group
from .families import (
    KIND_L,
    GlueVector,
    admissible_glues,
    canonical_octet,
    glue_indices,
    make,
    overlattice,
    parse_divisor,
    parse_family,
)
from .lattice import lattice_to_json, vector_to_json

SCHEMA = "k3evenset/1"


def _emit(data: dict, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps({"schema": SCHEMA, **data}, indent=2, sort_keys=True))
    else:
        text_renderer(data)


def _cmd_disc(args) -> int:
    lat = make(parse_family(args.family))
    group = discriminant_group(lat)
    data = {"family": args.family, **disc_report_json(group)}

    def text(d):
        factors = " + ".join(f"Z/{f}" for f in group.invariant_factors)
        print(f"{args.family}: discriminant group {factors} (order {group.order})")

    _emit(data, args.format, text)
    return 0


def _cmd_glues(args) -> int:
    classes = admissible_glues(args.d)
    data = {
        "d": args.d,
        "count": sum(len(c) for c in classes),
        "classes": [
            [list(g.sorted_support()) for g in cls] for cls in classes
        ],
    }

    def text(d):
        total = d["count"]
        print(f"d={args.d}: {total} admissible glue vectors in {len(classes)} class(es)")
        for i, cls in enumerate(classes):
            supports = ", ".join(str(g.sorted_support()) for g in cls[:6])
            more = "" if len(cls) <= 6 else f", ... ({len(cls)} total)"
            print(f"  class {i + 1}: {supports}{more}")

    _emit(data, args.format, text)
    return 0


def _cmd_overlattice(args) -> int:
    family = parse_family(args.family)
    if family.kind != KIND_L:
        raise ValueError(f"overlattice extends an L family, not {family.label()}")
    if args.support is None:
        support = frozenset(glue_indices(family))
    else:
        try:
            indices = [int(x) for x in args.support.split(",")]
        except ValueError:
            raise ValueError(
                f"support must be comma-separated indices in 1..8, got {args.support!r}"
            ) from None
        for i, index in enumerate(indices):
            if index in indices[:i]:
                raise ValueError(f"support repeats index {index}, got {args.support!r}")
        support = frozenset(indices)
    glue_vector = GlueVector(support)
    if len(support) == 8:
        raise ValueError("support 1..8 gives v = 2*Nhat, and v/2 already lies in N")
    base = make(family)
    glue = glue_vector.glue_class(base.root())
    over = overlattice(base, glue)
    group = discriminant_group(over)
    data = {
        "family": args.family,
        "support": sorted(support),
        "lattice": lattice_to_json(over),
        "discriminant": disc_report_json(group),
    }

    def text(d):
        print(f"{args.family} + (L - sum N_i)/2 over {sorted(support)}:")
        print(f"  rank {over.rank}, |det| {abs(over.determinant())}")
        factors = " + ".join(f"Z/{f}" for f in group.invariant_factors)
        print(f"  discriminant group {factors}")

    _emit(data, args.format, text)
    return 0


def _cmd_ample(args) -> int:
    from .positivity import classify_positivity

    ns = make(parse_family(args.family))
    divisor = parse_divisor(ns, args.divisor)
    report = classify_positivity(ns, divisor)
    data = {"family": args.family, "report": report.to_json()}

    def text(d):
        print(f"{args.family}, D = {args.divisor}: {report.status} (D^2 = {report.self_intersection})")
        if report.witness is not None:
            print(f"  witness: {report.witness!r}")

    _emit(data, args.format, text)
    return 0


def _cmd_evenset(args) -> int:
    from .positivity import is_even_set

    ns = make(parse_family(args.family))
    octet = canonical_octet(ns)
    result = is_even_set(ns, octet)
    data = {"family": args.family, "octet": "N1..N8", "even": result}

    def text(d):
        verdict = "an even set" if result else "not an even set"
        print(f"{args.family}: N1..N8 form {verdict}")

    _emit(data, args.format, text)
    return 0


def _cmd_hyperelliptic(args) -> int:
    from .positivity import hyperelliptic_test

    ns = make(parse_family(args.family))
    divisor = parse_divisor(ns, args.divisor)
    verdict = hyperelliptic_test(ns, divisor)
    data = {
        "family": args.family,
        "divisor": args.divisor,
        "kind": verdict.kind,
        "witness_kind": verdict.witness_kind,
        "witness": vector_to_json(verdict.witness) if verdict.witness else None,
    }

    def text(d):
        print(f"{args.family}, D = {args.divisor}: {verdict.kind}")
        if verdict.witness is not None:
            print(f"  witness ({verdict.witness_kind}): {verdict.witness!r}")

    _emit(data, args.format, text)
    return 0


def _cmd_chow(args) -> int:
    from .chow import ci_is_k3, intersection_matrix, parse_ci

    ci = parse_ci(args.ci)
    matrix = intersection_matrix(ci)
    data = {
        "ci": ci.label(),
        "k3": ci_is_k3(ci),
        "matrix": [list(row) for row in matrix.entries],
    }

    def text(d):
        print(f"{ci.label()} (K3: {d['k3']})")
        for row in matrix.entries:
            print("  " + "  ".join(f"{x:4d}" for x in row))

    _emit(data, args.format, text)
    return 0


def _cmd_table1(args) -> int:
    from .models import verify_table1

    reports = verify_table1(args.family)
    ok = all(r["ok"] for r in reports)
    data = {"ok": ok, "rows": reports}

    def text(d):
        fam = None
        for r in reports:
            if r["family"] != fam:
                fam = r["family"]
                print(fam)
            mark = "ok " if r["ok"] else "FAIL"
            desc = r["computed"]
            if r["polarization"] == "(partner)":
                line = f"partner {desc['partner']} (model in P{desc['target_dim']})"
            else:
                line = f"phi_{r['polarization']}: {desc['map_kind']} -> {desc['target']}"
                if "degree" in desc:
                    line += f", degree {desc['degree']}"
            print(f"  [{mark}] {line}")

    _emit(data, args.format, text)
    return 0 if ok else 1


def _cmd_correspond(args) -> int:
    partner = parse_family(args.family).partner()
    data = {"family": args.family, "partner": partner.label()}

    def text(d):
        print(f"{args.family} <-> {partner.label()}")

    _emit(data, args.format, text)
    return 0


def _cmd_verify_paper(args) -> int:
    from .acceptance import run_all

    results = run_all(dmax=args.dmax)
    all_ok = all(r.passed for r in results)
    data = {"ok": all_ok, "criteria": [r.to_json() for r in results]}

    def text(d):
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(
                f"[{mark}] criterion {r.number}: {r.title} "
                f"({r.elapsed:.2f}s / limit {r.time_limit:.0f}s)"
            )
            for f in r.failures:
                print(f"    - {f}")
        print("all criteria passed" if all_ok else "verification FAILED")

    _emit(data, args.format, text)
    return 0 if all_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    `parse_args` leaves it unchanged, so one parser serves every `main`
    call of a process.
    """
    parser = argparse.ArgumentParser(
        prog="k3evenset",
        description="Exact lattice computations for K3 surfaces with an even set "
        "of eight disjoint rational curves.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc", help="discriminant group of a family lattice")
    p.add_argument("family", help="e.g. L:2d=6, L':2d=8, M:2d'=4, M':2d'=8")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("glues", help="admissible glue vectors for a given d")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_glues)

    p = sub.add_parser("overlattice", help="index-two extension by a glue class")
    p.add_argument("family", help="an L family, e.g. L:2d=8")
    p.add_argument("--support", default=None, help="comma-separated N indices, e.g. 1,2,3,4")
    p.set_defaults(func=_cmd_overlattice)

    p = sub.add_parser("ample", help="classify a divisor (ample / pseudo ample / nef)")
    p.add_argument("family")
    p.add_argument("--divisor", required=True, help="e.g. L-Nhat, 2L-Nhat, (L-N1-N2)/2")
    p.set_defaults(func=_cmd_ample)

    p = sub.add_parser("evenset", help="test the canonical octet N1..N8")
    p.add_argument("family")
    p.set_defaults(func=_cmd_evenset)

    p = sub.add_parser("hyperelliptic", help="2:1 versus birational for a polarization")
    p.add_argument("family")
    p.add_argument("--divisor", required=True)
    p.set_defaults(func=_cmd_hyperelliptic)

    p = sub.add_parser("chow", help="intersection matrix of a complete intersection")
    p.add_argument("ci", help="e.g. \"P4xP2: (2,0)+(1,1)^3\"")
    p.set_defaults(func=_cmd_chow)

    p = sub.add_parser("table1", help="regenerate and verify the model table")
    p.add_argument("family", nargs="?", default=None)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("correspond", help="partner family under the Nikulin correspondence")
    p.add_argument("family")
    p.set_defaults(func=_cmd_correspond)

    p = sub.add_parser("verify-paper", help="run the complete acceptance suite")
    p.add_argument("--dmax", type=int, default=12)
    p.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
