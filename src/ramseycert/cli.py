"""Command-line frontend for the whole pipeline.

Subcommands: build-graph, census, certify, generate, verify, bounds-table,
recheck, verify-g0. Every census comes from the closed form of the
orthogonality graph (graphs.g0_census); the exhaustive census is a test
oracle only. `verify-g0` is the one reader of graph files. Exit codes:
0 success/verified, 1 unverified outcome or failed recheck, 2 parameter
errors and malformed input files. Diagnostics go to stderr; artifacts go
to files and stdout. Every run echoes its full resolved parameter set,
including a defaulted seed, so any output can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from .bounds import asymptotic_bound_table, certify_max_N, exact_decimal, write_bounds_csv
from .coloring import (
    EDGE_DUMP_LIMIT,
    KIND_BLOWUP,
    ColoringSpec,
    canonical_json_bytes,
    load_certificate,
    produce_certificate,
    recheck_certificate,
    regenerate,
    save_certificate,
    write_edge_dump,
)
from .graphs import (
    build_g0,
    g0_census,
    max_clique,
    read_graph_file,
    write_graph_file,
)

EXIT_OK = 0
EXIT_UNVERIFIED = 1
EXIT_PARAMS = 2

DEFAULT_MAX_TRIES = 64


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _echo_params(command: str, params: dict) -> None:
    rendered = " ".join(f"{k}={v}" for k, v in params.items() if v is not None)
    _diag(f"params: command={command} {rendered}")


def cmd_build_graph(args) -> int:
    out = args.out or f"g0_t{args.t}.graph"
    _echo_params("build-graph", {"t": args.t, "out": out})
    g = build_g0(args.t)
    write_graph_file(g, args.t, out)
    size, _ = max_clique(g)
    lemma1 = "OK" if size <= args.t - 1 else "VIOLATED"
    print(f"n={g.n} m={g.edge_count()} max_clique={size} lemma1: {lemma1}")
    return EXIT_OK if lemma1 == "OK" else EXIT_UNVERIFIED


def cmd_census(args) -> int:
    t = args.t
    out = args.out or f"census_t{t}.csv"
    _echo_params("census", {"t": t, "out": out})
    census = g0_census(t)
    with open(out, "w", encoding="ascii") as fh:
        fh.write("k,i_k\n")
        for k, count in enumerate(census.counts):
            fh.write(f"{k},{count}\n")
    reference = 5 * t * t / 8
    slack = reference + 2 * t
    log2_total = math.log2(census.total_nonempty)
    print(f"nonempty_total={census.total_nonempty} with_empty={census.total_with_empty}")
    print(
        f"log2(nonempty_total)={log2_total:.3f} five_t_sq_over_8={reference:.3f} "
        f"slack_bound={slack:.3f} within_bound={'yes' if log2_total <= slack else 'no'}"
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    _echo_params("certify", {"t": args.t, "m": args.m})
    census = g0_census(args.t) if args.m > 0 else None
    best_n, report = certify_max_N(args.t, args.m, census)
    if report.p_ind is not None:
        print(f"p_ind = {report.p_ind} (~{exact_decimal(report.p_ind)})")
    if best_n is None:
        _diag(f"no certifiable N: expectation at N={args.t} is already {report.expected_count}")
        return EXIT_UNVERIFIED
    print(
        f"certified N={best_n}, r({args.t};{args.m + 2}) >= {best_n + 1}, "
        f"E = {report.display_fraction()} (~{exact_decimal(report.expected_count)})"
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.edge_dump and args.N > EDGE_DUMP_LIMIT:
        raise ValueError(f"edge dumps are limited to N <= {EDGE_DUMP_LIMIT}, got {args.N}")
    seed = args.seed if args.seed is not None else random.SystemRandom().getrandbits(64)
    spec_out = args.spec_out or f"coloring_t{args.t}_m{args.m}_N{args.N}.json"
    _echo_params(
        "generate",
        {
            "t": args.t,
            "m": args.m,
            "N": args.N,
            "seed": seed,
            "spec_out": spec_out,
            "edge_dump": args.edge_dump,
        },
    )
    spec = ColoringSpec(
        kind=KIND_BLOWUP, t=args.t, m=args.m, ell=args.m + 2, N=args.N, seed=seed
    )
    payload = canonical_json_bytes(spec.to_json_dict())
    Path(spec_out).write_bytes(payload)
    sys.stdout.write(payload.decode("ascii"))
    if args.edge_dump:
        write_edge_dump(regenerate(spec), args.edge_dump)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = ColoringSpec.from_json_dict(
        json.loads(Path(args.spec_file).read_text(encoding="ascii"))
    )
    cert_out = args.certificate_out or str(
        Path(args.spec_file).with_suffix(".certificate.json")
    )
    _echo_params(
        "verify",
        {
            "spec_file": args.spec_file,
            "max_tries": args.max_tries,
            "certificate_out": cert_out,
        },
    )
    cert, failures = produce_certificate(spec, max_tries=args.max_tries)
    for seed, witness in failures:
        _diag(
            f"try seed={seed}: monochromatic K_{cert.t} found, "
            f"color={witness.color} vertices={list(witness.vertices)}"
        )
    save_certificate(cert, cert_out)
    if cert.verified:
        print(
            f"verified: r({cert.t};{spec.ell}) >= {cert.certified_bound()} "
            f"(seed={cert.seed}, tries={cert.search_stats['tries']})"
        )
        return EXIT_OK
    _diag(f"unverified after {cert.search_stats['tries']} tries; certificate at {cert_out}")
    return EXIT_UNVERIFIED


def cmd_bounds_table(args) -> int:
    out = args.out or "bounds_table.csv"
    _echo_params(
        "bounds-table", {"ell_min": args.ell_min, "ell_max": args.ell_max, "out": out}
    )
    rows = asymptotic_bound_table(args.ell_min, args.ell_max)
    with open(out, "w", encoding="ascii") as fh:
        write_bounds_csv(rows, fh)
    for row in rows:
        rate = str(row.rate) if row.rate is not None else row.rate_expr
        base = f"{row.base:.3f}" if row.base is not None else "symbolic"
        print(f"ell={row.ell} source={row.source} rate={rate} base={base}")
    return EXIT_OK


def cmd_recheck(args) -> int:
    cert = load_certificate(args.certificate_file)
    _echo_params("recheck", {"certificate_file": args.certificate_file})
    ok, reasons = recheck_certificate(cert)
    if ok:
        print("recheck: OK")
        return EXIT_OK
    for reason in reasons:
        _diag(f"recheck failed: {reason}")
    return EXIT_UNVERIFIED


def cmd_verify_g0(args) -> int:
    _echo_params("verify-g0", {"graph_file": args.graph_file})
    g, t = read_graph_file(args.graph_file)
    reference = build_g0(t)
    if g.n != reference.n or g.adj != reference.adj:
        _diag(f"graph file does not match the order-{t} construction")
        return EXIT_UNVERIFIED
    size, _ = max_clique(g)
    lemma1 = "OK" if size <= t - 1 else "VIOLATED"
    print(f"n={g.n} m={g.edge_count()} max_clique={size} lemma1: {lemma1} file: OK")
    return EXIT_OK if lemma1 == "OK" else EXIT_UNVERIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseycert",
        description="Certified multicolor Ramsey lower bounds from blowup colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build the orthogonality graph and write its file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("census", help="count independent sets by size")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("certify", help="largest N with expected mono-clique count below 1")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("generate", help="write a coloring spec (and optional edge dump)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--spec-out")
    p.add_argument("--edge-dump")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="seed-retry search for a clique-free coloring")
    p.add_argument("--spec-file", required=True)
    p.add_argument("--max-tries", type=int, default=DEFAULT_MAX_TRIES)
    p.add_argument("--certificate-out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds-table", help="compare lower-bound growth rates")
    p.add_argument("--ell-min", type=int, required=True)
    p.add_argument("--ell-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds_table)

    p = sub.add_parser("recheck", help="re-verify a certificate from scratch")
    p.add_argument("--certificate-file", required=True)
    p.set_defaults(func=cmd_recheck)

    p = sub.add_parser("verify-g0", help="check a graph file against the construction")
    p.add_argument("--graph-file", required=True)
    p.set_defaults(func=cmd_verify_g0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _diag(f"error: {exc}")
        return EXIT_PARAMS


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
