"""povmquad command line.

Subcommands: construct, certify, strength, simulate, score, table.
Exit codes: 0 success, 1 verification failure, 2 I/O error,
3 insufficient data, 64 usage error (including a request over the size
budget, quadrature.SIZE_BUDGET_BYTES), 65 parse error.

Every subcommand is deterministic given its flags; `simulate` therefore
requires an explicit --seed. The grid directory for `table` resolves as
--grids flag, then the POVMQUAD_GRIDS environment variable, then the
grids bundled with the package.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import (
    CapExceeded,
    DomainError,
    DuplicatePoint,
    NotNormalized,
    ParseError,
    PovmQuadError,
    WeightError,
    ZeroVector,
)
from .povm import (
    exact_score,
    legendre_pure_counts,
    mixed_min_elements,
    operator_completeness_residual,
    povm_from_json,
    povm_from_quadrature,
    povm_to_csv,
    povm_to_json,
    scalar_completeness_residual,
    spin_subspaces,
)
from .quadrature import _format_rows, certify, ingest_pointset, product_rule, product_rule_count
from .simulate import _NORMALIZATION_TOL, quadrature_averaged_score, run_game, score_by_direction

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_INSUFFICIENT = 3
EXIT_USAGE = 64
EXIT_PARSE = 65

ENV_GRIDS = "POVMQUAD_GRIDS"
MIN_TRIALS = 100

# Static reference data: minimal known POVM sizes (search-based, N <= 7).
LATORRE_COUNTS = {1: 2, 2: 4, 3: 6, 4: 10, 5: 12, 6: 18, 7: 22}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_finite(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _path(text: str) -> Path:
    # the operating system refuses a NUL byte in a path with ValueError
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot contain a NUL byte")
    return Path(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="povmquad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the product-rule POVM for N copies")
    p.add_argument("copies", type=_positive_int, metavar="N")
    p.add_argument("--out", type=_path, help="write the POVM to this file")
    p.add_argument("--format", choices=("json", "csv"),
                   help="file format for --out (default json)")
    p.add_argument("--residual-tol", type=_positive_finite, default=1e-9,
                   help="completeness residual bound for exit status")

    p = sub.add_parser("certify", help="residuals per harmonic order of a point-set file")
    p.add_argument("file", type=_path)
    p.add_argument("--lmax", type=_positive_int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--expect", type=_non_negative_int,
                   help="exit 1 unless strength >= this order (at most --lmax)")
    p.add_argument("--weights", choices=("auto", "uniform", "explicit"), default="auto")
    p.add_argument("--signed", action="store_true",
                   help="measure exactness even if some weights are negative")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("strength", help="detected design strength of a point-set file")
    p.add_argument("file", type=_path)
    p.add_argument("--cap", type=_positive_int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--weights", choices=("auto", "uniform", "explicit"), default="auto")
    p.add_argument("--signed", action="store_true")

    p = sub.add_parser("simulate", help="Monte Carlo estimation game on a POVM file")
    p.add_argument("file", type=_path)
    p.add_argument("--trials", type=_positive_int, default=1_000_000,
                   help="games to play (default 1000000): a trial of a certified POVM "
                        "costs O(1) time whatever N, and memory is bounded per chunk "
                        "of trials, so the count sets the time only")
    p.add_argument("--seed", type=_seed_value, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("score", help="exact score and conditional-score diagnostics")
    p.add_argument("file", type=_path)
    p.add_argument("--grid", type=_path,
                   help="emit E[score|direction] for directions in this point file")
    p.add_argument("--out", type=_path, help="write the --grid table to this file")
    p.add_argument("--format", choices=("csv", "json"),
                   help="format of the --grid table (default csv)")

    p = sub.add_parser("table", help="element counts per construction method")
    p.add_argument("--nmax", type=_positive_int, default=15)
    p.add_argument("--grids", type=_path, help=f"grid directory (default ${ENV_GRIDS} or bundled)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    return parser


# Building the parser costs about 20 parses, so main builds it once per process.
_shared_parser = functools.cache(build_parser)


def _read_text(path: Path) -> str:
    """The file as UTF-8 text; other bytes raise ParseError naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path.name} is not UTF-8 text ({exc})") from None


def _detect_weight_mode(lines) -> str:
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            return "explicit" if len(line.split()) == 4 else "uniform"
    return "uniform"


def _load_pointset(path: Path, mode: str):
    lines = _read_text(path).split("\n")
    if mode == "auto":
        mode = _detect_weight_mode(lines)
    return ingest_pointset(lines, mode, label=path.name)


def cmd_construct(args) -> int:
    if args.format is not None and args.out is None:
        raise DomainError("--format applies only to the file written by --out")
    povm = povm_from_quadrature(product_rule(args.copies), args.copies)
    scalar = scalar_completeness_residual(povm)
    # OPERATOR_CHECK_CAP bounds the cost of the check on any POVM; a
    # product rule's rings have period N + 1, which leaves the Gram only its
    # diagonal, at O(n + R N) within the size budget of product_rule
    operator = operator_completeness_residual(povm, cap=args.copies)
    if args.out is not None:
        text = povm_to_csv(povm) if args.format == "csv" else povm_to_json(povm)
        args.out.write_text(text, encoding="utf-8")
    print(f"n: {povm.n}")
    print(f"score_exact: {exact_score(povm)!r}")
    print(f"scalar_residual: {scalar:.3e}")
    print(f"operator_residual: {operator:.3e}")
    return EXIT_OK if max(scalar, operator) < args.residual_tol else EXIT_VERIFY


def cmd_certify(args) -> int:
    if args.expect is not None and args.expect > args.lmax:
        raise DomainError(
            f"--expect {args.expect} exceeds --lmax {args.lmax}; strength is never above --lmax"
        )
    q = _load_pointset(args.file, args.weights)
    report = certify(q, args.lmax, args.tol, allow_signed=args.signed)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"points: {report.n_points}")
        print(f"weight_sum/4pi - 1: {report.weight_sum / (4 * math.pi) - 1.0:.3e}")
        if not report.all_weights_positive:
            print("warning: non-positive weights present (not POVM-suitable)")
        print("l  max|sum w Ylm|")
        for l in range(1, report.l_max_tested + 1):
            print(f"{l:<3d}{report.residual(l):.6e}")
        print(f"strength: {report.strength}")
    if args.expect is not None and report.strength < args.expect:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_strength(args) -> int:
    q = _load_pointset(args.file, args.weights)
    report = certify(q, args.cap, args.tol, allow_signed=args.signed)
    print(report.strength)
    return EXIT_OK


def cmd_simulate(args) -> int:
    povm = povm_from_json(_read_text(args.file), label=args.file.name)
    povm.validate()
    report = run_game(povm, args.trials, args.seed)
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"N: {report.copies}")
        print(f"trials: {report.trials}")
        print(f"seed: {report.seed}")
        print(f"mean_score: {report.mean_score:.6f}")
        print(f"std_error: {report.std_error:.3e}")
        print(f"expected: {report.expected:.6f}")
        print(f"chunks: {report.chunks}")
    if args.trials < MIN_TRIALS:
        print(f"insufficient trials ({args.trials} < {MIN_TRIALS})", file=sys.stderr)
        return EXIT_INSUFFICIENT
    ok = abs(report.mean_score - report.expected) < 5.0 * report.std_error
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_score(args) -> int:
    if args.grid is None and (args.out is not None or args.format is not None):
        raise DomainError("--out and --format apply only to the --grid table")
    povm = povm_from_json(_read_text(args.file), label=args.file.name)
    povm.validate()
    # score_quadrature_avg is sum(c)/(N+2) for any directions (an identity:
    # quadrature_averaged_score), so the check that can fail is this
    # certified completeness bound, the one construct and simulate take
    bound = scalar_completeness_residual(povm)
    if not bound <= _NORMALIZATION_TOL:
        raise NotNormalized(
            f"{args.file.name}: certified completeness bound {bound:.3e} "
            f"exceeds {_NORMALIZATION_TOL:g}"
        )
    if args.grid is None:
        score = exact_score(povm)
        averaged = quadrature_averaged_score(povm)
        print(f"score_exact: {score!r}")
        print(f"score_quadrature_avg: {averaged!r}")
        print(f"difference: {abs(score - averaged):.3e}")
        return EXIT_OK if abs(score - averaged) < 1e-10 else EXIT_VERIFY
    grid = _load_pointset(args.grid, "auto")
    columns = grid.theta, grid.phi, score_by_direction(povm, (grid.theta, grid.phi))
    if args.format == "json":
        rows = _format_rows('{"theta": %.17g, "phi": %.17g, "score": %.17g}', ",\n    ", *columns)
        out = f'{{\n  "N": {povm.copies},\n  "scores": [\n    {rows}\n  ]\n}}\n'
    else:
        out = "theta,phi,score\n" + _format_rows("%.17g,%.17g,%.17g\n", "", *columns)
    if args.out is not None:
        args.out.write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return EXIT_OK


@dataclass
class TableRow:
    """One table row: copies N and the element count per method."""

    copies: int
    counts: dict = field(default_factory=dict)  # column -> int
    sources: dict = field(default_factory=dict)  # column -> computed|ingested|reference

    def cell(self, column, value, source):
        if value is not None:
            self.counts[column] = int(value)
            self.sources[column] = source

    def to_dict(self) -> dict:
        out = {"N": self.copies}
        for col in TABLE_COLUMNS:
            out[col] = self.counts.get(col)
        out["sources"] = {c: self.sources[c] for c in TABLE_COLUMNS if c in self.sources}
        return out


TABLE_COLUMNS = (
    "latorre",
    "legendre",
    "lebedev",
    "design",
    "legendre_mixed",
    "lebedev_mixed",
)


def default_grid_dir() -> Path:
    return Path(str(resources.files("povmquad") / "data" / "grids"))


def _scan_grids(grids_dir: Path, cap: int):
    """Certified (strength, count) data for grid files; absent dir -> empty."""
    lebedev = {}  # exact strength -> count
    designs = []  # (strength, count)
    if grids_dir is None or not grids_dir.is_dir():
        return lebedev, designs
    for path in sorted(grids_dir.glob("*.txt")):
        is_lebedev = path.name.startswith("lebedev")
        is_design = path.name.startswith("design")
        if not (is_lebedev or is_design):
            continue
        try:
            q = _load_pointset(path, "auto")
            report = certify(q, cap, allow_signed=is_lebedev)
        except CapExceeded:
            raise  # the cap, not the file, is at fault
        except (PovmQuadError, OSError) as exc:
            print(f"povmquad table: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        if is_lebedev:
            # Fill only at the exact order: the failure at strength+1 must be
            # observed below the cap, otherwise the true order is unknown.
            if report.strength < cap:
                prev = lebedev.get(report.strength)
                if prev is None or q.n < prev:
                    lebedev[report.strength] = q.n
        else:
            designs.append((report.strength, q.n))
    return lebedev, designs


def build_table(nmax: int, grids_dir: Path | None) -> list[TableRow]:
    lebedev, designs = _scan_grids(grids_dir, nmax + 1)
    rows = []
    for copies in range(1, nmax + 1):
        row = TableRow(copies)
        row.cell("latorre", LATORRE_COUNTS.get(copies), "reference")
        row.cell("legendre", product_rule_count(copies), "computed")
        row.cell("lebedev", lebedev.get(copies), "ingested")
        design_counts = [n for s, n in designs if s >= copies]
        row.cell("design", min(design_counts) if design_counts else None, "ingested")
        row.cell(
            "legendre_mixed",
            mixed_min_elements(copies, legendre_pure_counts(copies)),
            "computed",
        )
        if copies % 2 == 1:
            pure = {1: product_rule_count(1)}
            pure.update({s: lebedev[s] for s in lebedev if s % 2 == 1})
            if all(two_s in pure for two_s in spin_subspaces(copies)):
                row.cell(
                    "lebedev_mixed", mixed_min_elements(copies, pure), "ingested"
                )
        rows.append(row)
    return rows


def cmd_table(args) -> int:
    grids_dir = args.grids
    if grids_dir is None:
        env = os.environ.get(ENV_GRIDS)
        grids_dir = Path(env) if env else default_grid_dir()
    rows = build_table(args.nmax, grids_dir)
    if args.format == "json":
        payload = {
            "nmax": args.nmax,
            "grids_dir": str(grids_dir) if grids_dir is not None else None,
            "rows": [row.to_dict() for row in rows],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    header = ("N",) + TABLE_COLUMNS
    cells = [
        [str(row.copies)] + [str(row.counts.get(c, "")) for c in TABLE_COLUMNS]
        for row in rows
    ]
    if args.format == "csv":
        print(",".join(header))
        for line in cells:
            print(",".join(line))
        return EXIT_OK
    widths = [max(len(h), *(len(line[i]) for line in cells)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for line in cells:
        print("  ".join(v.ljust(widths[i]) for i, v in enumerate(line)))
    return EXIT_OK


_HANDLERS = {
    "construct": cmd_construct,
    "certify": cmd_certify,
    "strength": cmd_strength,
    "simulate": cmd_simulate,
    "score": cmd_score,
    "table": cmd_table,
}


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"povmquad {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ParseError, ZeroVector, DuplicatePoint, NotNormalized) as exc:
        print(f"povmquad {args.command}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, CapExceeded) as exc:
        print(f"povmquad {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WeightError, PovmQuadError) as exc:
        print(f"povmquad {args.command}: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
