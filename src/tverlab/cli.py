"""Command-line interface: validate, solve, explore, and plot.

Exit codes are script-friendly: 0 on success (certificate found, report
printed, or an asserted infeasibility confirmed), 1 when no certificate could
be produced or verified (candidate directions exhausted or proven infeasible
where one was requested), 2 on usage or hypothesis violations, 3 on a file
that cannot be read, parsed or written or a number too long to print, and 4
when an internal cap was hit.
Any unreadable input file exits 3 with one line, whatever is wrong with it:
missing, not UTF-8 or JSON, nested too deep, an integer too long to convert,
or a malformed field.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize, svg
from .errors import CapExceeded, ParseError, PreconditionError
from .geometry import Verdict
from .model import default_profile, tightness_instance, validate
from .solver import (
    TransversalCertificate,
    TverbergCertificate,
    solve,
    sweep,
    verify_transversal,
    verify_tverberg,
)
from .topology import (
    chessboard_complex,
    cyclic_row_action,
    dims_report,
    homology_mod_p,
    is_free_action,
    is_pseudo_manifold,
    orient,
    test_map_degree,
)

EXIT_OK = 0
EXIT_NO_CERTIFICATE = 1
EXIT_HYPOTHESIS = 2
EXIT_PARSE = 3
EXIT_CAP = 4


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not items:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return items


def _profile_list(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_int_list(part) for part in text.split(";"))


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_HYPOTHESIS


def _board(args):
    """The chessboard complex named by a board subcommand's --r and --n."""
    return chessboard_complex(args.r, args.n)


def _point_str(point) -> str:
    return "(" + ", ".join(map(serialize.rational_text, point)) + ")"


def _gap_str(gap) -> str:
    """A report's gap as text; "None" when the search measured none."""
    return "None" if gap is None else serialize.rational_text(gap)


def _verified(instance, cert) -> bool:
    """Re-check a certificate against the instance; say why when it fails."""
    if isinstance(cert, TverbergCertificate) and instance.k:  # its plane is a point
        verdict = Verdict(False, "bad-plane")
    elif isinstance(cert, TverbergCertificate):
        verdict = verify_tverberg(instance.collections[0], instance.rs[0], cert)
    else:
        verdict = verify_transversal(instance, cert)
    if not verdict:
        print(f"verification FAILED: {verdict.reason}", file=sys.stderr)
    return bool(verdict)


def _save_and_verify(args, instance, cert) -> int:
    """Write a certificate if requested; optionally re-load and re-check it."""
    if args.out:
        serialize.save_certificate(args.out, cert)
        print(f"wrote {args.out}")
    if args.verify:
        reloaded = serialize.load_certificate(args.out) if args.out else cert
        if not _verified(instance, reloaded):
            return EXIT_NO_CERTIFICATE
        print("verified: ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_validate(args) -> int:
    instance = serialize.load_instance(args.instance)
    report = validate(instance)
    for name, flag in (
        ("size", report.size_ok),
        ("class-bound", report.class_bound_ok),
        ("parity", report.parity_ok),
        ("prime", report.prime_ok),
    ):
        print(f"{name}: {'ok' if flag else 'FAIL'}")
    for note in report.notes:
        print(f"note: {note}")
    if report.all_ok:
        print("hypotheses: all satisfied")
        return EXIT_OK
    print("hypotheses: violated")
    return EXIT_HYPOTHESIS


def cmd_partition(args) -> int:
    instance = serialize.load_instance(args.instance)
    if instance.k != 0:
        return _usage("partition requires a k = 0 instance (use transversal)")
    report = solve(instance)
    work = (
        f"subproblems solved: {report.stats['lps']} full, "
        f"{report.stats['pair_lps']} piece-pair"
    )
    if report.certified:
        cert = report.certificate
        print(f"certified: common point {_point_str(cert.point)}")
        print(f"partition: {tuple(cert.partition.pieces)}")
        print(work)
        return _save_and_verify(args, instance, cert)
    if report.status == "infeasible-exhausted":
        print(
            f"infeasible: {report.stats['partitions']} partition tuples "
            f"exhausted (best gap {_gap_str(report.gap)}; {work})"
        )
    else:
        print("infeasible: no colorful partition shape exists")
    return EXIT_NO_CERTIFICATE


def cmd_transversal(args) -> int:
    instance = serialize.load_instance(args.instance)
    if instance.k < 1:
        return _usage("transversal requires k >= 1 (use partition for k = 0)")
    report = solve(instance)
    if instance.k == instance.d - 1:
        work = f"candidate planes checked: {report.stats['planes']}"
    else:
        work = f"subproblems solved: {report.stats['lps']}"
    if report.certified:
        cert = report.certificate
        print(f"certified: plane base {_point_str(cert.plane.base)}")
        for v in cert.plane.directions:
            print(f"direction: {_point_str(v)}")
        print(work)
        return _save_and_verify(args, instance, cert)
    if report.status == "infeasible-exhausted":
        print(f"infeasible: search space exhausted ({work}, best gap {_gap_str(report.gap)})")
    elif report.status == "budget-exhausted":
        print(
            f"budget exhausted: best gap {_gap_str(report.gap)} "
            f"({report.stats['lps']} subproblems, "
            f"{report.stats['directions']} candidate directions)"
        )
    else:
        print("infeasible: no colorful partition shape exists")
    return EXIT_NO_CERTIFICATE


def cmd_top_fvector(args) -> int:
    complex_ = _board(args)
    print(f"f-vector: {complex_.f_vector()}")
    print(f"dimension: {complex_.dim}")
    print(f"euler characteristic: {complex_.euler_characteristic()}")
    return EXIT_OK


def cmd_top_homology(args) -> int:
    complex_ = _board(args)
    betti = homology_mod_p(complex_, args.p)
    print(f"betti numbers (mod {args.p}): {betti}")
    return EXIT_OK


def cmd_top_pseudo(args) -> int:
    complex_ = _board(args)
    report = is_pseudo_manifold(complex_)
    print(f"pure: {'yes' if report.pure else 'no'}")
    print(f"ridges in exactly two facets: {'yes' if not report.bad_ridges else 'no'}")
    print(f"facet graph connected: {'yes' if report.connected else 'no'}")
    print(f"pseudo-manifold: {'yes' if report.ok else 'no'}")
    return EXIT_OK


def cmd_top_orient(args) -> int:
    complex_ = _board(args)
    orientation = orient(complex_)
    if orientation is None:
        print("orientable: no")
        return EXIT_OK
    plus = sum(1 for s in orientation.signs if s == 1)
    minus = len(orientation.signs) - plus
    print("orientable: yes")
    print(f"facet signs: {plus} positive, {minus} negative")
    return EXIT_OK


def cmd_top_free(args) -> int:
    # joined copies under the diagonal row shift are free iff one board is
    free = is_free_action(_board(args), cyclic_row_action(args.r, args.n))
    print(f"cyclic row action free: {'yes' if free else 'no'}")
    return EXIT_OK


def cmd_top_degree(args) -> int:
    report = test_map_degree(args.r, args.d)
    print(f"degree magnitude: {abs(report.degree)}")
    print(
        f"residue mod {report.modulus}: {report.residue} "
        f"({'is' if report.residue_is_plus_minus_one else 'is NOT'} +-1)"
    )
    print(f"facets: {report.facets}")
    print(f"crossings: {report.crossings}")
    return EXIT_OK


def cmd_top_dims(args) -> int:
    profile = args.profile or default_profile(args.d, args.k, args.r)
    report = dims_report(profile, args.r, args.d, args.k)
    print(f"join dimension: {report.join_dim}")
    print(f"reduced join dimension: {report.reduced_join_dim}")
    print(f"target dimension: {report.target_dim}")
    print(f"sum bundle rank: {report.sum_bundle_rank}")
    print(f"diagonal rank: {report.diagonal_rank}")
    print(f"complement rank: {report.complement_rank}")
    return EXIT_OK


def cmd_tightness(args) -> int:
    rs = args.rs
    if args.verify and 0 < args.k < args.d - 1:
        return _usage("--verify needs k = 0 or k = d-1 (complete solvers only)")
    instance = tightness_instance(args.d, args.k, rs, args.ell)
    sizes = tuple(cfg.size for cfg in instance.collections)
    print(f"built instance: d={args.d} k={args.k} rs={rs} sizes={sizes}")
    if args.out:
        serialize.save_instance(args.out, instance)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(
            serialize.canonical_bytes(serialize.instance_to_json(instance)).decode()
        )
    if not args.verify:
        return EXIT_OK
    report = solve(instance)
    checked = report.stats.get("partitions", report.stats.get("combos"))
    if report.status in ("infeasible-exhausted", "no-valid-partition"):
        print(f"verified infeasible: {checked} cases exhausted (gap {_gap_str(report.gap)})")
        return EXIT_OK
    print("verification FAILED: a certificate exists", file=sys.stderr)
    return EXIT_NO_CERTIFICATE


def cmd_sweep(args) -> int:
    if args.trials < 1:
        return _usage("--trials must be at least 1")
    if args.jitter_q is not None and args.jitter_q < 1:
        return _usage("--jitter-q must be at least 1")
    profiles = args.profiles
    if profiles is None:
        profiles = tuple(default_profile(args.d, args.k, r) for r in args.rs)
    report = sweep(
        args.d, args.k, args.rs, profiles, args.trials, seed=args.seed, jitter_q=args.jitter_q
    )
    for label in sorted(report.counts):
        print(f"{label}: {report.counts[label]}/{args.trials}")
    print(f"certified: {report.certified}/{args.trials}")
    if args.out:
        params = {
            "d": args.d,
            "k": args.k,
            "rs": list(args.rs),
            "profiles": [list(p) for p in profiles],
            "trials": args.trials,
            "seed": args.seed,
            "jitter_q": args.jitter_q,
        }
        serialize.write_json(args.out, serialize.sweep_report_to_json(report, params))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_plot(args) -> int:
    instance = serialize.load_instance(args.instance)
    certificate = serialize.load_certificate(args.certificate) if args.certificate else None
    if certificate is not None and not _verified(instance, certificate):
        return EXIT_NO_CERTIFICATE
    document = svg.render_svg(instance, certificate)
    serialize.write_bytes_atomic(args.out, document.encode("utf-8"))
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _board_parser(tsub, name: str, help_text: str, func):
    """A topology subcommand that builds the chessboard complex --r x --n."""
    q = tsub.add_parser(name, help=help_text)
    q.add_argument("--r", type=int, required=True, help="rows")
    q.add_argument("--n", type=int, required=True, help="columns")
    q.set_defaults(func=func)
    return q


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tverlab",
        description="Colorful partition and transversal-plane search with "
        "exact rational certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance against the hypotheses")
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("partition", help="exhaustive common-point search (k = 0)")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--out", metavar="FILE", help="write the certificate as JSON")
    p.add_argument(
        "--verify", action="store_true", help="re-load and re-check the certificate"
    )
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("transversal", help="search for a k-plane transversal")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--out", metavar="FILE", help="write the certificate as JSON")
    p.add_argument(
        "--verify", action="store_true", help="re-load and re-check the certificate"
    )
    p.set_defaults(func=cmd_transversal)

    top = sub.add_parser("topology", help="combinatorial reports")
    tsub = top.add_subparsers(dest="subcommand", required=True)

    _board_parser(
        tsub, "fvector", "face counts of a chessboard complex", cmd_top_fvector
    )
    q = _board_parser(tsub, "homology", "mod-p betti numbers", cmd_top_homology)
    q.add_argument("--p", type=int, required=True, help="coefficient prime")
    _board_parser(tsub, "pseudo", "pseudo-manifold check", cmd_top_pseudo)
    _board_parser(tsub, "orient", "orient a pseudo-manifold", cmd_top_orient)
    _board_parser(tsub, "free", "check the cyclic row action is free", cmd_top_free)

    q = tsub.add_parser("degree", help="signed crossing count of the canonical map")
    q.add_argument("--r", type=int, required=True, help="pieces")
    q.add_argument("--d", type=int, required=True, help="ambient dimension")
    q.set_defaults(func=cmd_top_degree)

    q = tsub.add_parser("dims", help="dimension and rank bookkeeping")
    q.add_argument("--r", type=int, required=True, help="pieces")
    q.add_argument("--d", type=int, required=True, help="ambient dimension")
    q.add_argument("--k", type=int, required=True, help="plane dimension")
    q.add_argument(
        "--profile", type=_int_list, help="class sizes, e.g. 2,2,1 (default extremal)"
    )
    q.set_defaults(func=cmd_top_dims)

    p = sub.add_parser("tightness", help="build a no-certificate instance")
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.add_argument("--k", type=int, required=True, help="plane dimension")
    p.add_argument("--rs", type=_int_list, required=True, help="piece counts")
    p.add_argument("--ell", type=int, default=0, help="oversized-class collection")
    p.add_argument("--out", metavar="FILE", help="write the instance as JSON")
    p.add_argument(
        "--verify", action="store_true", help="run a complete solver, assert none"
    )
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("sweep", help="solve many seeded random instances")
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.add_argument("--k", type=int, required=True, help="plane dimension")
    p.add_argument("--rs", type=_int_list, required=True, help="piece counts")
    p.add_argument(
        "--profiles", type=_profile_list, help="class sizes per collection, ;-separated"
    )
    p.add_argument("--trials", type=int, required=True, help="number of instances")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--jitter-q", type=int, help="rational jitter denominator")
    p.add_argument("--out", metavar="FILE", help="write the report as JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render a d = 2 instance to SVG")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("certificate", nargs="?", help="optional certificate JSON file")
    p.add_argument("--out", metavar="FILE", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
