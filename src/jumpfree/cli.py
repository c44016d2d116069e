"""Batch command-line driver.

One command per process.  Every run prints a single machine-readable
document wrapping the command, the fully resolved config, the report,
and an optional violation object.  Exit status follows one contract for
all subcommands: 0 when the property holds or a result was produced, 2
exactly when the violation field is non-null, 1 for usage, input, or
capacity errors.  All randomness flows from the explicit --seed flag, so
identical configs replay to identical reports up to timing fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields
from typing import Optional

from .core import Cube
from .families import (
    FAMILY_KINDS,
    UniverseSpec,
    build_universe,
    find_regressively_regular_witness,
    gen_family,
)
from .intsets import (
    MULTISET,
    SEMANTICS,
    GammaTriple,
    IntMultiset,
    build_fh,
)
from .predicates import (
    Family,
    FiniteFunction,
    is_full_over,
    is_jump_free_family,
    regressive_regularity,
)
from .subsetsum import (
    METHODS,
    CapacityError,
    run_corollary_experiment,
    solve_subset_sum,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

COMMANDS = (
    "gen",
    "check-jumpfree",
    "check-full",
    "check-rr",
    "search",
    "sets",
    "solve",
    "experiment",
)

# Commands exercising cube-indexed machinery, which needs k >= 2 and p >= 2.
THEOREM_COMMANDS = ("check-rr", "search", "sets", "experiment")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this contract reserves 2 for
    violations, so usage errors are remapped to 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """The fully resolved knobs of one run; sufficient for exact replay."""

    command: str
    k: int = 2
    p: int = 2
    grid: int = 4
    max_domain: int = 8
    samples: int = 50
    seed: int = 0
    cubes: bool = True
    family: str = "max"
    gamma: str = "zigzag,zigzag,zigzag"
    semantics: str = MULTISET
    method: str = "dp"
    format: str = "json"
    input: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "k": self.k,
            "p": self.p,
            "gridBound": self.grid,
            "maxDomainSize": self.max_domain,
            "sampleCount": self.samples,
            "seed": self.seed,
            "includeAllCubes": self.cubes,
            "family": self.family,
            "gamma": self.gamma,
            "semantics": self.semantics,
            "method": self.method,
            "format": self.format,
            "input": self.input,
        }

    def universe_spec(self) -> UniverseSpec:
        return UniverseSpec(
            k=self.k,
            grid_bound=self.grid,
            max_domain_size=self.max_domain,
            sample_count=self.samples,
            seed=self.seed,
            include_all_cubes=self.cubes,
        )


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--k", type=int, default=2, help="tuple arity (default 2)")
    common.add_argument("--p", type=int, default=2, help="cube side length (default 2)")
    common.add_argument("--grid", type=int, default=4, help="coordinates range over 0..grid-1")
    common.add_argument(
        "--max-domain", type=int, default=8, help="largest domain size in the universe"
    )
    common.add_argument("--samples", type=int, default=50, help="seeded random domains to add")
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument(
        "--cubes",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include all cube powers that fit the size bound",
    )
    common.add_argument(
        "--family", choices=FAMILY_KINDS, default="max", help="construction rule for members"
    )
    common.add_argument(
        "--gamma",
        default="zigzag,zigzag,zigzag",
        help="comma-separated interval encoders, e.g. zigzag,zigzagneg,shifted:10",
    )
    common.add_argument("--semantics", choices=SEMANTICS, default=MULTISET)
    common.add_argument(
        "--method",
        choices=METHODS,
        default="dp",
        help="subset-sum solver: exhaustive (oracle, at most 24 elements) or dp (bitset)",
    )
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--input", default=None, help="path to a serialized input file")

    parser = _Parser(
        prog="jumpfree",
        description="Generate, check, search, and run the full solvability experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    helps = {
        "gen": "generate a family over a seeded universe and print it",
        "check-jumpfree": "decide all ordered pairs, skipping those with no shared x where b(x) > a(x)",
        "check-full": "check the family covers every domain of the universe",
        "check-rr": "classify one function over one cube (input file required)",
        "search": "find the first regressively regular (member, cube) witness",
        "sets": "build the paired integer multisets for one function and cube",
        "solve": "decide target-zero subset sum for a multiset (input file required)",
        "experiment": "witness search, multiset build, and paired solvability check",
    }
    for name in COMMANDS:
        sub.add_parser(name, parents=[common], help=helps[name])
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_family(cfg: RunConfig) -> tuple[Family, Optional[UniverseSpec]]:
    """Family from --input when given, else generated from the universe flags.

    Input files may be a bare family document or a previous run's output
    wrapping one under report.family.
    """
    if cfg.input is None:
        spec = cfg.universe_spec()
        return gen_family(cfg.family, build_universe(spec)), spec
    data = _read_json(cfg.input)
    if isinstance(data, dict) and "members" in data:
        return Family.from_json_dict(data), None
    if isinstance(data, dict) and "report" in data and "family" in data["report"]:
        return Family.from_json_dict(data["report"]["family"]), None
    raise ValueError(f"{cfg.input}: not a family document")


def _load_function_cube(cfg: RunConfig) -> tuple[FiniteFunction, Cube]:
    if cfg.input is None:
        raise ValueError(f"{cfg.command} requires --input with a function and cube document")
    data = _read_json(cfg.input)
    if not isinstance(data, dict) or "function" not in data or "cube" not in data:
        raise ValueError(f'{cfg.input}: expected {{"function": ..., "cube": ...}}')
    return FiniteFunction.from_json_dict(data["function"]), Cube.from_json_dict(data["cube"])


def _load_multiset(cfg: RunConfig) -> IntMultiset:
    if cfg.input is None:
        raise ValueError("solve requires --input with a [[value, multiplicity], ...] document")
    data = _read_json(cfg.input)
    if not isinstance(data, list):
        raise ValueError(f"{cfg.input}: expected a [[value, multiplicity], ...] document")
    return IntMultiset.from_pairs(data)


Outcome = tuple[dict, Optional[dict]]


def _run_gen(cfg: RunConfig) -> Outcome:
    fam, spec = _load_family(cfg)
    report = {
        "universe": None if spec is None else spec.to_json_dict(),
        "family": fam.to_json_dict(),
        "members": len(fam),
    }
    return report, None


def _run_check_jumpfree(cfg: RunConfig) -> Outcome:
    fam, spec = _load_family(cfg)
    witness = is_jump_free_family(fam)
    report = {
        "universe": None if spec is None else spec.to_json_dict(),
        "members": len(fam),
        "pairsChecked": len(fam) ** 2,
        "jumpFree": witness is None,
        "witness": None if witness is None else witness.to_json_dict(),
    }
    return report, report["witness"]


def _run_check_full(cfg: RunConfig) -> Outcome:
    # Fullness is relative to an explicit universe, so the universe is
    # always rebuilt from the flags and surfaced, even for input families.
    fam, _ = _load_family(cfg)
    spec = cfg.universe_spec()
    universe = build_universe(spec)
    uncovered = is_full_over(fam, universe)
    report = {
        "universe": spec.to_json_dict(),
        "domainsChecked": len(universe),
        "members": len(fam),
        "full": uncovered is None,
        "uncovered": None if uncovered is None else [list(t) for t in uncovered],
    }
    violation = None
    if uncovered is not None:
        violation = {"kind": "uncoveredDomain", "domain": [list(t) for t in uncovered]}
    return report, violation


def _run_check_rr(cfg: RunConfig) -> Outcome:
    f, cube = _load_function_cube(cfg)
    rr = regressive_regularity(f, cube)
    report = {
        "functionId": f.id,
        "cube": cube.to_json_dict(),
        "report": rr.to_json_dict(),
    }
    violation = None
    violated = rr.violated_classes()
    if violated:
        sig = violated[0]
        violation = {
            "kind": "irregularClass",
            "signature": "(" + ",".join(map(str, sig)) + ")",
            "verdict": rr.per_class[sig].to_json_dict(),
        }
    return report, violation


def _run_search(cfg: RunConfig) -> Outcome:
    fam, spec = _load_family(cfg)
    witness = find_regressively_regular_witness(fam, cfg.p)
    report = {
        "universe": None if spec is None else spec.to_json_dict(),
        "p": cfg.p,
        "found": witness is not None,
        "witness": None if witness is None else witness.to_json_dict(),
    }
    return report, None


def _run_sets(cfg: RunConfig) -> Outcome:
    f, cube = _load_function_cube(cfg)
    gammas = GammaTriple.parse(cfg.gamma)
    f_ms, h_ms = build_fh(f, cube, gammas=gammas, semantics=cfg.semantics)
    report = {
        "functionId": f.id,
        "cube": cube.to_json_dict(),
        "gamma": gammas.to_json_dict(),
        "semantics": cfg.semantics,
        "F": f_ms.to_json(),
        "H": h_ms.to_json(),
        "fh_equal": f_ms == h_ms,
    }
    return report, None


def _run_solve(cfg: RunConfig) -> Outcome:
    ms = _load_multiset(cfg)
    cert = solve_subset_sum(ms, cfg.method)
    report = {
        "method": cfg.method,
        "multiset": ms.to_json(),
        "solvable": cert is not None,
        "certificate": None if cert is None else cert.to_json_dict(),
    }
    return report, None


def _run_experiment(cfg: RunConfig) -> Outcome:
    fam, spec = _load_family(cfg)
    gammas = GammaTriple.parse(cfg.gamma)
    result = run_corollary_experiment(fam, cfg.p, gammas=gammas, method=cfg.method)
    report = result.to_json_dict()
    report["universe"] = None if spec is None else spec.to_json_dict()
    violation = None
    if result.outcome == "ok" and not (
        result.fh_equal and result.agreement and result.cardinality_ok
    ):
        violation = {
            "kind": "solvabilityMismatch",
            "fh_equal": result.fh_equal,
            "agreement": result.agreement,
            "cardinality_ok": result.cardinality_ok,
        }
    return report, violation


_HANDLERS = {
    "gen": _run_gen,
    "check-jumpfree": _run_check_jumpfree,
    "check-full": _run_check_full,
    "check-rr": _run_check_rr,
    "search": _run_search,
    "sets": _run_sets,
    "solve": _run_solve,
    "experiment": _run_experiment,
}


def _validate(cfg: RunConfig) -> None:
    if cfg.k < 1:
        raise ValueError("--k must be >= 1")
    if cfg.command in THEOREM_COMMANDS:
        if cfg.k < 2:
            raise ValueError(f"{cfg.command} requires --k >= 2")
        if cfg.p < 2:
            raise ValueError(f"{cfg.command} requires --p >= 2")
    GammaTriple.parse(cfg.gamma)


def _to_csv(report: dict) -> str:
    """Scalar report fields only; nested objects stay JSON-only."""
    scalars = {
        key: value
        for key, value in sorted(report.items())
        if value is None or isinstance(value, (str, int, float, bool))
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(scalars.keys())
    writer.writerow(
        "" if v is None else (str(v).lower() if isinstance(v, bool) else v)
        for v in scalars.values()
    )
    return buf.getvalue()


def run(cfg: RunConfig) -> tuple[str, int]:
    """Rendered output document and exit status for one config."""
    _validate(cfg)
    report, violation = _HANDLERS[cfg.command](cfg)
    if cfg.format == "csv":
        text = _to_csv(report)
    else:
        document = {
            "command": cfg.command,
            "config": cfg.to_json_dict(),
            "report": report,
            "violation": violation,
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return text, EXIT_VIOLATION if violation is not None else EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    try:
        text, status = run(cfg)
    except CapacityError as exc:
        print(f"jumpfree: capacity: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"jumpfree: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
