"""Command line front end.

Subcommands: strata (enumeration, poset and exports), hopf (coproduct,
antipode and verification suites), qsm (representation, partition tables,
Gibbs values, full verification).  Exit codes: 0 success, 1 validation error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from dessins import galois, hopf, qsm, strata


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

# `strata --n 9 --counts` lists 660,032 strata in about 3 s with a peak RSS of
# about 200 MiB on a 2-vCPU x86-64 machine; n = 10 has 12,818,912, which would
# need about 4 GiB.
MAX_STRATA_LABELS = 9

# `hopf --verify --max-vertices 6` checks 11,220 trees over 3 labels in about
# 2 s; 7 vertices would mean 73,845 trees.
MAX_HOPF_VERTICES = 6


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


# --- strata ------------------------------------------------------------------

def cmd_strata(args) -> int:
    if not (3 <= args.n <= MAX_STRATA_LABELS):
        print(f"error: --n must be between 3 and {MAX_STRATA_LABELS}, got {args.n}",
              file=sys.stderr)
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
        lines = []
        key_to_name = {s.canonical_key(): f"s{i}" for i, s in enumerate(flat)}
        for i, s in enumerate(flat):
            for e in s.tree.graph.edges:
                parent = strata.contract_edge(s.tree, e)
                lines.append(f"s{i} < {key_to_name[parent.canonical_key()]}")
        _write(args.poset, "\n".join(sorted(set(lines))) + "\n")
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
            d = strata.clean_dessin(s)
            lines = [f"graph clean_{count} {{"]
            for v in d.black:
                lines.append(f'  "{v}" [color=black, style=filled];')
            for v in d.white:
                lines.append(f'  "{v}" [color=white, shape=circle];')
            for a, b in d.edges:
                lines.append(f'  "{a}" -- "{b}";')
            lines.append("}")
            (outdir / f"clean_{count:04d}.dot").write_text("\n".join(lines) + "\n")
            count += 1
        print(f"wrote {count} clean dessins to {outdir}")
    return EXIT_OK


# --- hopf --------------------------------------------------------------------

def cmd_hopf(args) -> int:
    if not (1 <= args.max_vertices <= MAX_HOPF_VERTICES):
        print(f"error: --max-vertices must be between 1 and {MAX_HOPF_VERTICES}, "
              f"got {args.max_vertices}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.verify:
        rng = random.Random(args.seed)
        labels = tuple(range(3))
        trees = hopf.enumerate_trees(labels, args.max_vertices)
        bad = [t for t in trees if not hopf.coassociativity_holds(t)]
        print(f"coassociativity on {len(trees)} trees (<= {args.max_vertices} vertices): "
              f"{'ok' if not bad else 'FAIL'}")
        anti_max = min(args.max_vertices, 5)
        anti_trees = hopf.enumerate_trees(labels, anti_max)
        bad_anti = [t for t in anti_trees if not hopf.antipode_identity_holds(t)]
        print(f"antipode convolution on {len(anti_trees)} trees (<= {anti_max} vertices): "
              f"{'ok' if not bad_anti else 'FAIL'}")
        bad_counit = [t for t in trees if not hopf.counit_axioms_hold(t)]
        print(f"counit axioms: {'ok' if not bad_counit else 'FAIL'}")
        sample = [hopf.ForestPolynomial.generator(rng.choice(trees)) for _ in range(6)]
        morphism_ok = all(
            hopf.coproduct(a * b) == hopf.coproduct(a) * hopf.coproduct(b)
            for a, b in zip(sample[::2], sample[1::2]))
        print(f"coproduct is an algebra morphism on sampled products: "
              f"{'ok' if morphism_ok else 'FAIL'}")
        stats = hopf.CACHE.stats()
        print(f"cache: {stats['size']} entries (bound {stats['max_entries']}), "
              f"{stats['hits']} hits, {stats['misses']} misses, {stats['trims']} trims")
        if bad or bad_anti or bad_counit or not morphism_ok:
            return EXIT_VERIFICATION
        return EXIT_OK

    if not args.tree:
        print("error: provide --tree or --verify", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        t = hopf.parse_tree(args.tree)
    except hopf.TreeSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
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

def _system_from_args(args) -> qsm.QsmSystem:
    system = qsm.QsmSystem(m=args.m, N=args.N, D=args.D, max_length=args.lmax)
    if args.k not in ("auto", None) and int(args.k) != system.k:
        raise ValueError(
            f"--k {args.k} disagrees with the {system.k} fixed labels of (Z/{args.m})*")
    return system


def cmd_qsm(args) -> int:
    try:
        system = _system_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.qsm_command == "build":
        rep = system.rep
        print(f"conductor m={system.m}, group order {len(system.group.elements)}, "
              f"fixed labels {list(system.fixed_labels)} (k={system.k})")
        print(f"window: words of length <= {system.max_length}, basis size {rep.dim}")
        print(f"character: exponent-sum with denominator D={system.D}; N={system.N}")
        return EXIT_OK

    if args.qsm_command == "partition":
        try:
            betas = _parse_betas(args.beta)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        rows = [("beta", "Z", "phi_beta_real", "phi_beta_imag", "tail_bound")]
        for beta_val in betas:
            try:
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
            except qsm.Divergent as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
            rows.append((beta_val, z_text, "", "", tail))
        _write_rows(args.out, rows)
        return EXIT_OK

    if args.qsm_command == "gibbs":
        try:
            t = hopf.parse_tree(args.tree)
        except hopf.TreeSyntaxError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            betas = _parse_betas(args.beta)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        rows = [("beta", "Z", "phi_beta_real", "phi_beta_imag", "tail_bound")]
        for beta_val in betas:
            try:
                z = qsm.partition_function(beta_val, system.k, system.N, "word", "closed")
                val = qsm.gibbs_value(system, t, beta_val, route=args.route)
                tail = qsm.partition_function(beta_val, system.k, system.N, "word",
                                              "truncated", max_length=system.max_length)
            except qsm.Divergent as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
            rows.append((beta_val, repr(float(z.value)), repr(val.real), repr(val.imag),
                         repr(float(tail.tail_bound))))
        _write_rows(args.out, rows)
        return EXIT_OK

    if args.qsm_command == "verify":
        return _qsm_verify(system, args)

    print(f"error: unknown qsm subcommand {args.qsm_command!r}", file=sys.stderr)
    return EXIT_VALIDATION


def _qsm_verify(system: qsm.QsmSystem, args) -> int:
    rng = random.Random(args.seed)
    failures = []
    rep = system.rep

    report = qsm.verify_crossed_relations(rep)
    n_ok = sum(1 for c in report.checks if c.passed)
    print(f"crossed-product relations: {n_ok}/{len(report.checks)} checks pass")
    if not report.ok:
        failures.extend(c.name for c in report.failed())

    for w in [(a,) for a in system.fixed_labels]:
        iso = rep.shift_adjoint(w).compose(rep.shift(w)).equal_on(rep.identity())
        print(f"isometry S*{w} S{w} = 1: {'ok' if iso else 'FAIL'}")
        if not iso:
            failures.append(f"isometry {w}")

    for t_val in (0.5, 1.0):
        evo = qsm.time_evolution_report(rep, system.N, t_val, group=system.group)
        ok = evo.max_shift_deviation <= 1e-10 and evo.diag_invariant and evo.galois_commutes
        print(f"time evolution at t={t_val}: max deviation {evo.max_shift_deviation:.2e}, "
              f"diagonal invariant {evo.diag_invariant}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"time evolution t={t_val}")

    labels_pool = list(range(system.m))
    sample_trees = [hopf.leaf(rng.choice(labels_pool)) for _ in range(2)]
    sample_trees += [hopf.node(rng.choice(labels_pool), hopf.leaf(rng.choice(labels_pool)))
                     for _ in range(2)]
    sample_trees += [hopf.node(1, hopf.leaf(7)), hopf.node(6, hopf.leaf(0), hopf.leaf(3))]
    inter = qsm.verify_intertwining(system, sample_trees, betas=(1, 2))
    print(f"ground-state and Gibbs intertwining (exact): {'ok' if inter.ok else 'FAIL'}")
    if not inter.ok:
        failures.append("intertwining")

    for beta_val in (1, 2):
        gaps = []
        for t in sample_trees[:4]:
            closed = qsm.gibbs_value(system, t, beta_val, route="closed")
            series = qsm.gibbs_value(system, t, beta_val, route="series")
            trace = qsm.gibbs_value(system, t, beta_val, route="trace")
            gaps.append(max(abs(closed - series), abs(closed - trace)))
        worst = max(gaps)
        print(f"gibbs three-route agreement at beta={beta_val}: max gap {worst:.2e}: "
              f"{'ok' if worst <= 1e-10 else 'FAIL'}")
        if worst > 1e-10:
            failures.append(f"gibbs routes beta={beta_val}")

    vanish = all(
        qsm.ground_state(system.char, [(1, (("S", (lab,)),))]).is_zero()
        and qsm.ground_state(system.char, [(1, (("S*", (lab,)),))]).is_zero()
        for lab in system.fixed_labels)
    print(f"ground state vanishes on shift monomials: {'ok' if vanish else 'FAIL'}")
    if not vanish:
        failures.append("ground state on shifts")

    if failures:
        print(f"{len(failures)} verification failures", file=sys.stderr)
        return EXIT_VERIFICATION
    print("all verifications pass")
    return EXIT_OK


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
                               "strata in about 3 s and 200 MiB")
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

    p_qsm = sub.add_parser("qsm", help="representation, partition data, Gibbs states")
    p_qsm.add_argument("qsm_command", choices=["build", "partition", "gibbs", "verify"])
    p_qsm.add_argument("--m", type=int, default=12, help="cyclotomic conductor")
    p_qsm.add_argument("--k", default="auto",
                       help="fixed-label count; must agree with the conductor")
    p_qsm.add_argument("--N", type=int, default=10, help="spectral base, lambda = N^length")
    p_qsm.add_argument("--D", type=int, default=2, help="character denominator")
    p_qsm.add_argument("--lmax", type=int, default=6, help="word window length")
    p_qsm.add_argument("--beta", default="1..5", help="inverse temperatures, e.g. 1..5 or 2.5")
    p_qsm.add_argument("--model", choices=["word", "paper", "vertex-edge"],
                       default="word", help="multiplicity model; paper = vertex-edge")
    p_qsm.add_argument("--trunc", type=int, default=40, help="truncation level for sums")
    p_qsm.add_argument("--exact", action="store_true", help="exact rational partition values")
    p_qsm.add_argument("--tree", default="j6[j0]", help="tree for gibbs values")
    p_qsm.add_argument("--route", choices=["closed", "series", "trace"], default="closed")
    p_qsm.add_argument("--out", default="-", help="output path or - for stdout")
    p_qsm.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "strata":
            return cmd_strata(args)
        if args.command == "hopf":
            return cmd_hopf(args)
        if args.command == "qsm":
            return cmd_qsm(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
