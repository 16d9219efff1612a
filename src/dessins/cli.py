"""Command line front end.

Subcommands: strata (enumeration, poset and exports), hopf (coproduct,
antipode and verification suites), qsm (representation, partition tables,
Gibbs values, full verification).  Exit codes: 0 success, 1 validation error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from dessins import hopf, qsm, strata


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

# `strata --n 9 --counts` lists 660,032 strata in about 1.2 s with a peak RSS
# of about 120 MiB on a 2-vCPU x86-64 machine, and `--poset` writes their
# 3,109,296 covers in about 8 s and 660 MiB; n = 10 has 12,818,912 strata,
# which at the 150 bytes a stratum takes at n = 9 would need about 2 GiB.
MAX_STRATA_LABELS = 9

# `hopf --verify --max-vertices 6` checks 11,220 trees over 3 labels in
# 0.7-0.8 s with a peak RSS of 28 MiB on the same machine; 7 vertices would
# mean 73,845 trees, and `hopf.verify_identities(7)` takes 7.1-7.7 s and
# 92 MiB in process, with no cache trim: above a 5 s budget, so the cap stays.
MAX_HOPF_VERTICES = 6

# Times below are on the same 2-vCPU x86-64 machine.
# `qsm verify`, start-up included, takes 0.25-0.4 s at each conductor up to
# 100, even ones the slowest (two fixed labels, so 127 words in the window);
# `--m 97` (a prime, so a field of degree 96) takes 0.23-0.34 s, m = 127
# 0.23-0.39 s and m = 181 0.30-0.44 s.
# Building the group alone multiplies every pair of units: 5.9 s at m = 20,000.
MAX_QSM_CONDUCTOR = 100

# `qsm verify --lmax 8` takes 0.9 s at m = 12 and 5.2 s at m = 94; --lmax 9
# takes 1.9 s and 14 s at those conductors, and --lmax 10 takes 6 s at m = 12.
MAX_QSM_WINDOW = 8

# `qsm partition --trunc 2000` sums the five default integer betas exactly in
# 0.14 s, all of it start-up: each sum is one closed form, so --trunc 20,000
# also takes 0.14 s, 50,000 0.19 s and 200,000 0.6 s (2 CPUs, Python 3.11).
MAX_QSM_TRUNC = 2000


def _labels(n):
    return [str(i) for i in range(1, n + 1)]


def _parse_betas(text):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = chunk.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif chunk:
            val = float(chunk)
            out.append(int(val) if val == int(val) else val)
    if not out:
        raise ValueError(f"no inverse temperatures in {text!r}")
    return out


def _write(path, text):
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_rows(path, rows):
    _write(path, "".join(",".join(str(x) for x in row) + "\n" for row in rows))


def _in_range(flag, value, lo, hi) -> bool:
    if lo <= value <= hi:
        return True
    print(f"error: {flag} must be between {lo} and {hi}, got {value}", file=sys.stderr)
    return False


def _print_report(report, as_json=False, **extra) -> int:
    """One line per check, or with `as_json` one JSON object holding the
    report and the `extra` keys; exit 2 when any check failed."""
    if as_json:
        print(json.dumps({**report.to_json(), **extra}, indent=2))
    else:
        for c in report.checks:
            line = f"{c.name}: {'ok' if c.passed else 'FAIL'} (cases {c.cases}, {c.seconds:.3f} s)"
            print(line + (f"; {c.detail}" if c.detail else ""))
    if report.ok:
        return EXIT_OK
    print(f"{len(report.failed())} of {len(report.checks)} checks failed", file=sys.stderr)
    return EXIT_VERIFICATION


# --- strata ------------------------------------------------------------------

def cmd_strata(args) -> int:
    if not _in_range("--n", args.n, 3, MAX_STRATA_LABELS):
        return EXIT_VALIDATION
    grouped = strata.enumerate_strata(_labels(args.n))
    flat = [s for group in grouped.values() for s in group]

    if args.counts or not (args.dot or args.json or args.poset or args.csv or args.clean):
        print(", ".join(f"codim {c}: {len(group)}" for c, group in grouped.items()))
    if args.csv:
        _write_rows(args.csv, [("codim", "count"), *((c, len(g)) for c, g in grouped.items())])
    if args.json:
        payload = [strata.stratum_to_json(s) for s in flat]
        _write(args.json, json.dumps(payload, indent=2) + "\n")
    if args.poset:
        # contracting an edge drops its split, so each cover drops one split;
        # every stratum has the same label order, so its splits identify it
        lines = set()
        name_of = {s.splits: f"s{i}" for i, s in enumerate(flat)}
        for i, splits in enumerate(s.splits for s in flat):
            for j in range(len(splits)):
                lines.add(f"s{i} < {name_of[splits[:j] + splits[j + 1:]]}")
        _write(args.poset, "\n".join(sorted(lines)) + "\n")
    if args.dot:
        outdir = Path(args.dot)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, s in enumerate(flat):
            (outdir / f"stratum_{i:04d}.dot").write_text(
                strata.stratum_to_dot(s, name=f"stratum_{i}"))
        print(f"wrote {len(flat)} DOT files to {outdir}")
    if args.clean:
        outdir = Path(args.clean)
        outdir.mkdir(parents=True, exist_ok=True)
        count = 0
        for s, caterpillar in strata.maximal_codim_strata(_labels(args.n)):
            if not caterpillar:
                continue
            (outdir / f"clean_{count:04d}.dot").write_text(
                strata.clean_dessin_to_dot(strata.clean_dessin(s), name=f"clean_{count}"))
            count += 1
        print(f"wrote {count} clean dessins to {outdir}")
    return EXIT_OK


# --- hopf --------------------------------------------------------------------

def cmd_hopf(args) -> int:
    if not _in_range("--max-vertices", args.max_vertices, 1, MAX_HOPF_VERTICES):
        return EXIT_VALIDATION
    if args.json and not args.verify:
        print("error: --json needs --verify", file=sys.stderr)
        return EXIT_VALIDATION
    if args.verify:
        report = hopf.verify_identities(args.max_vertices, args.seed)
        stats = hopf.CACHE.stats()
        if args.json:
            return _print_report(report, as_json=True, cache=stats)
        status = _print_report(report)
        print(f"cache: {stats['size']} entries (bound {stats['max_entries']}), "
              f"{stats['trims']} trims; per public call, {stats['hits']} hits "
              f"(answer already memoised) and {stats['misses']} misses")
        return status

    if not args.tree:
        print("error: provide --tree or --verify", file=sys.stderr)
        return EXIT_VALIDATION
    t = hopf.parse_tree(args.tree)
    x = hopf.ForestPolynomial.generator(t)
    did_something = False
    if args.coproduct:
        did_something = True
        pairs = hopf.coproduct(x)
        print(f"coproduct of {hopf.format_tree(t)} ({len(pairs.terms)} terms):")
        for (a, b), c in sorted(pairs.terms.items()):
            print(f"  {c} * {hopf.format_forest(a)} (x) {hopf.format_forest(b)}")
    if args.antipode:
        did_something = True
        s = hopf.antipode(x)
        print(f"antipode of {hopf.format_tree(t)}:")
        for f, c in sorted(s.terms.items()):
            print(f"  {c} * {hopf.format_forest(f)}")
    if args.counit or not did_something:
        print(f"counit of {hopf.format_tree(t)}: {hopf.counit(x)}")
    return EXIT_OK


# --- qsm ---------------------------------------------------------------------

def cmd_qsm(args) -> int:
    if not (_in_range("--m", args.m, 1, MAX_QSM_CONDUCTOR)
            and _in_range("--lmax", args.lmax, 1, MAX_QSM_WINDOW)
            and _in_range("--trunc", args.trunc, 0, MAX_QSM_TRUNC)):
        return EXIT_VALIDATION
    if args.json and args.qsm_command != "verify":
        print("error: --json needs the verify command", file=sys.stderr)
        return EXIT_VALIDATION
    system = qsm.QsmSystem(m=args.m, N=args.N, D=args.D, max_length=args.lmax)
    if args.k != "auto" and int(args.k) != system.k:
        raise ValueError(
            f"--k {args.k} disagrees with the {system.k} fixed labels of (Z/{args.m})*")

    if args.qsm_command == "build":
        rep = system.rep
        print(f"conductor m={system.m}, group order {len(system.group.elements)}, "
              f"fixed labels {list(system.fixed_labels)} (k={system.k})")
        print(f"window: words of length <= {system.max_length}, basis size {rep.dim}")
        print(f"character: exponent-sum with denominator D={system.D}; N={system.N}")
        return EXIT_OK

    if args.qsm_command == "partition":
        rows = [("beta", "Z", "phi_beta_real", "phi_beta_imag", "tail_bound")]
        for beta_val in _parse_betas(args.beta):
            if args.exact and isinstance(beta_val, int):
                closed = qsm.partition_function(beta_val, system.k, system.N,
                                                args.model, "closed")
                z_text = str(closed.value)
                tail = "0"
            else:
                trunc = qsm.partition_function(beta_val, system.k, system.N,
                                               args.model, "truncated",
                                               max_length=args.trunc)
                z_text = repr(float(trunc.value))
                tail = repr(float(trunc.tail_bound))
            rows.append((beta_val, z_text, "", "", tail))
        _write_rows(args.out, rows)
        return EXIT_OK

    if args.qsm_command == "gibbs":
        t = hopf.parse_tree(args.tree)
        rows = [("beta", "Z", "phi_beta_real", "phi_beta_imag", "tail_bound")]
        for beta_val in _parse_betas(args.beta):
            z = qsm.partition_function(beta_val, system.k, system.N, "word", "closed")
            val = qsm.gibbs_value(system, t, beta_val, route=args.route)
            tail = qsm.partition_function(beta_val, system.k, system.N, "word",
                                          "truncated", max_length=system.max_length)
            rows.append((beta_val, repr(float(z.value)), repr(val.real), repr(val.imag),
                         repr(float(tail.tail_bound))))
        _write_rows(args.out, rows)
        return EXIT_OK

    return _print_report(qsm.verify_system(system, args.seed), args.json)


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dessins",
        description="stable labelled trees, boundary strata, the rooted-tree Hopf "
                    "algebra, and the derived quantum statistical system")
    sub = parser.add_subparsers(dest="command", required=True)

    p_strata = sub.add_parser("strata", help="enumerate boundary strata")
    p_strata.add_argument("--n", type=int, required=True,
                          help=f"number of labels (3..{MAX_STRATA_LABELS}); n = 9 gives 660,032 "
                               "strata in about 1.2 s and 120 MiB, and their "
                               "--poset in about 8 s and 660 MiB")
    p_strata.add_argument("--counts", action="store_true", help="print counts by codimension")
    p_strata.add_argument("--csv", help="write a codim,count table (path or -)")
    p_strata.add_argument("--json", help="write all strata as JSON (path or -)")
    p_strata.add_argument("--poset", help="write covering relations (path or -)")
    p_strata.add_argument("--dot", help="directory for DOT files of the dessins")
    p_strata.add_argument("--clean", help="directory for clean-dessin DOT files")

    p_hopf = sub.add_parser("hopf", help="coproduct, antipode and verification")
    p_hopf.add_argument("--tree", help='tree in bracket syntax, e.g. "j0[j0]"')
    p_hopf.add_argument("--coproduct", action="store_true")
    p_hopf.add_argument("--antipode", action="store_true")
    p_hopf.add_argument("--counit", action="store_true")
    p_hopf.add_argument("--verify", action="store_true", help="run the identity suites")
    p_hopf.add_argument("--max-vertices", type=int, default=5,
                        help=f"largest tree checked by --verify (1..{MAX_HOPF_VERTICES})")
    p_hopf.add_argument("--seed", type=int, default=0)
    p_hopf.add_argument("--json", action="store_true",
                        help="print the --verify report and cache statistics as JSON")

    p_qsm = sub.add_parser("qsm", help="representation, partition data, Gibbs states")
    p_qsm.add_argument("qsm_command", choices=["build", "partition", "gibbs", "verify"])
    p_qsm.add_argument("--m", type=int, default=12,
                       help=f"cyclotomic conductor (1..{MAX_QSM_CONDUCTOR})")
    p_qsm.add_argument("--k", default="auto",
                       help="fixed-label count; must agree with the conductor")
    p_qsm.add_argument("--N", type=int, default=10, help="spectral base, lambda = N^length")
    p_qsm.add_argument("--D", type=int, default=2, help="character denominator")
    p_qsm.add_argument("--lmax", type=int, default=6,
                       help=f"word window length (1..{MAX_QSM_WINDOW})")
    p_qsm.add_argument("--beta", default="1..5", help="inverse temperatures, e.g. 1..5 or 2.5")
    p_qsm.add_argument("--model", choices=["word", "paper", "vertex-edge"],
                       default="word", help="multiplicity model; paper = vertex-edge")
    p_qsm.add_argument("--trunc", type=int, default=40,
                       help=f"truncation level for sums (0..{MAX_QSM_TRUNC})")
    p_qsm.add_argument("--exact", action="store_true", help="exact rational partition values")
    p_qsm.add_argument("--tree", default="j6[j0]", help="tree for gibbs values")
    p_qsm.add_argument("--route", choices=["closed", "series", "trace"], default="closed")
    p_qsm.add_argument("--out", default="-", help="output path or - for stdout")
    p_qsm.add_argument("--seed", type=int, default=0)
    p_qsm.add_argument("--json", action="store_true", help="print the verify report as JSON")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"strata": cmd_strata, "hopf": cmd_hopf, "qsm": cmd_qsm}[args.command]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        # bad trees, betas and parameters, and divergent series, end up here
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
