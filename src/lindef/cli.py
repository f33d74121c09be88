"""Command-line interface.

Four subcommands: analyze (full report for one algebra), resolve
(Betti table and differentials), upsilon (one comparison map), scan
(randomized suites). Exit codes: 0 success, 1 input or I/O error,
2 violation flags found.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AlgebraError, LindefError
from .lab import ScanConfig, exit_code_for_summary, full_check, scan
from .presentation import algebra_from_text, load_structure_constants
from .resolution import resolve
from .tor_ladder import upsilon

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def _load_ring(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_text(fh.read())


def _load_table(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as err:
            # valid JSON that Python cannot load, such as an integer over
            # the int-string conversion digit limit
            raise AlgebraError(f"{path}: {err}") from None
    return load_structure_constants(data)


def _algebra_from_args(args):
    if getattr(args, "table", None):
        return _load_table(args.table)
    return _load_ring(args.ring)


def _format_report_text(report) -> str:
    lines = []
    if report.presentation:
        lines.append("ring: " + " | ".join(report.presentation["ideal"]))
        lines.append(
            f"char {report.presentation['char']}, "
            f"vars {' '.join(report.presentation['vars'])}"
        )
    lines.append(
        f"dim {report.dim}, nilpotency index {report.nilpotency_index}, "
        f"filtration dims {report.filtration_dims}"
    )
    lines.append(f"betti: {report.betti}")
    lines.append(f"lin homology h: {report.lin['h']}")
    by_deg = report.lin["by_degree"]
    if by_deg:
        parts = []
        for i in sorted(by_deg):
            inner = ", ".join(f"j={j}:{v}" for j, v in sorted(by_deg[i].items()))
            parts.append(f"H_{i}({inner})")
        lines.append("lin homology by degree: " + "; ".join(parts))
    lines.append("upsilon ranks:")
    for n in sorted(report.upsilon["table"]):
        lines.append(f"  n={n}: {report.upsilon['table'][n]}")
    lines.append(f"classification: {report.lin['classification']}")
    raised = [name for name, value in report.flags.items() if value]
    lines.append("flags: " + (", ".join(raised) if raised else "none"))
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    algebra = _algebra_from_args(args)
    report = full_check(algebra, args.horizon)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), separators=(",", ":"), sort_keys=True))
    else:
        print(_format_report_text(report))
    return EXIT_VIOLATION if report.has_violation else EXIT_OK


def _cmd_resolve(args) -> int:
    algebra = _load_ring(args.ring)
    res = resolve(algebra.residue_field(), args.horizon)
    print("betti:", ",".join(str(b) for b in res.betti))
    if args.verbose:
        for i in range(1, res.horizon + 1):
            dmat = res.diff[i]
            print(f"differential {i}: {dmat.src_rank} -> {dmat.dst_rank}")
            for c in range(dmat.src_rank):
                row = [dmat.entry_string(c, c2) for c2 in range(dmat.dst_rank)]
                print("  [" + ", ".join(row) + "]")
    return EXIT_OK


def _cmd_upsilon(args) -> int:
    algebra = _load_ring(args.ring)
    res = resolve(algebra.residue_field(), args.i + 1)
    cell = upsilon(res, args.n, args.i)
    print(f"v^{args.n}_{args.i}: "
          f"Tor_{args.i}(k, R/m^{args.n + 1}) dim {cell['src_dim']} -> "
          f"Tor_{args.i}(k, R/m^{args.n}) dim {cell['dst_dim']}")
    mat = cell["matrix"]
    if mat.shape[0] and mat.shape[1]:
        for r in range(mat.shape[0]):
            print("  [" + " ".join(str(x) for x in mat[r]) + "]")
    else:
        print("  (empty matrix)")
    print(f"rank {cell['rank']}")
    if cell["note"]:
        print(f"note: {cell['note']}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    degree_range = None
    if args.extra_degrees:
        lo, _, hi = args.extra_degrees.partition(":")
        try:
            degree_range = (int(lo), int(hi or lo))
        except ValueError:
            raise LindefError(
                f"bad --extra-degrees {args.extra_degrees!r}, expected LO:HI"
            ) from None
    cfg = ScanConfig(
        nvars=args.vars,
        char=args.char,
        nilpotency=args.nilpotency,
        extra_gens=args.extra_gens,
        degree_range=degree_range,
        horizon=args.horizon,
        count=args.count,
        seed=args.seed,
    )
    summary, _ = scan(cfg, out_path=args.out)
    print(json.dumps(summary, separators=(",", ":"), sort_keys=True))
    return exit_code_for_summary(summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindef",
        description="Exact linearity-defect computations for Artinian "
        "local algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one algebra")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ring", help="presentation file (char/vars/ideal)")
    src.add_argument("--table", help="structure-constant JSON file")
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("resolve", help="Betti table of the residue field")
    p.add_argument("--ring", required=True)
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--verbose", action="store_true",
                   help="print differential entries")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("upsilon", help="one comparison map on Tor")
    p.add_argument("--ring", required=True)
    p.add_argument("-i", type=int, required=True, help="homological index")
    p.add_argument("-n", type=int, required=True, help="power of m (target)")
    p.set_defaults(func=_cmd_upsilon)

    p = sub.add_parser("scan", help="randomized suite of small algebras")
    p.add_argument("--vars", type=int, default=2)
    p.add_argument("--char", type=int, default=101)
    p.add_argument("--nilpotency", type=int, choices=(3, 4, 5), default=4)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--extra-gens", type=int, default=2)
    p.add_argument("--extra-degrees", default=None, metavar="LO:HI",
                   help="degree range for the extra forms")
    p.add_argument("--out", default=None, help="JSONL output path")
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except LindefError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
