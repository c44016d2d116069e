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

import functools
import io
import json
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .core import CapacityError, Cube, JsonRecord, json_items, render_json
from .families import (
    FAMILY_KINDS,
    Domain,
    UniverseSpec,
    _iter_members,
    build_universe,
    find_regressively_regular_witness,
    iter_universe,
)
from .intsets import (
    MULTISET,
    SEMANTICS,
    GammaTriple,
    IntMultiset,
    build_fh,
)
from .predicates import (
    VIOLATED,
    Family,
    FiniteFunction,
    is_full_over,
    is_jump_free_family,
    regressive_regularity,
)
from .subsetsum import METHODS, run_corollary_experiment, solve_subset_sum

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


class RunConfig(NamedTuple):
    """The fully resolved knobs of one run; sufficient for exact replay.
    The universe fields take UniverseSpec's names."""

    command: str
    k: int = 2
    p: int = 2
    grid_bound: int = 4
    max_domain_size: int = 8
    sample_count: int = 50
    seed: int = 0
    include_all_cubes: bool = True
    family: str = "max"
    gamma: str = "zigzag,zigzag,zigzag"
    semantics: str = MULTISET
    method: str = "dp"
    format: str = "json"
    input: Optional[str] = None
    to_json_dict = JsonRecord.to_json_dict

    def universe_spec(self) -> UniverseSpec:
        return UniverseSpec(**{name: getattr(self, name) for name in UniverseSpec._fields})


class _reading:
    """The JSON document at path, read as UTF-8 bytes with text mode's
    universal newlines.  Text that is not UTF-8 JSON raises a ValueError
    that names the file; so does a TypeError or KeyError raised while the
    body reads it into records, naming what it should hold."""

    def __init__(self, path: str, expected: str) -> None:
        self.path, self.expected = path, expected

    def __enter__(self):
        with open(self.path, "rb", buffering=0) as fh:
            text = fh.read()
        try:
            text = text.decode()  # one name, so the bytes die before parsing
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            return json.loads(text)
        except RecursionError:
            raise ValueError(f"{self.path}: document nested too deeply") from None
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{self.path}: not JSON: {exc}") from None

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, (TypeError, KeyError)):
            raise ValueError(f"{self.path}: {self.expected}") from None


def _load_family(
    cfg: RunConfig, universe: Optional[list[Domain]] = None, p: Optional[int] = None
) -> tuple[Family | Iterable[FiniteFunction | int], Optional[dict]]:
    """The family from --input, a family document bare or wrapped under
    report.family, else generated from the universe flags, over universe
    when the caller has built it, with the universe spec's JSON (None for
    --input); its Family is built, with that class's checks, once, here.
    Given a cube side p, generated members come instead as a stream, so a
    search stops generation at its witness, and a run of n domains too small
    for a p-cube as the int n (see iter_universe).  Generated members skip
    FiniteFunction's checks: their points come from the spec's grid."""
    if cfg.input is None:
        spec = cfg.universe_spec()
        domains = iter_universe(spec, p) if universe is None else universe
        members = _iter_members(cfg.family, domains, FiniteFunction._trusted)
        family = members if p is not None else Family(spec.k, tuple(members))
        return family, spec.to_json_dict()
    with _reading(cfg.input, "not a family document") as data:
        if "members" not in data:
            data = data["report"]["family"]
        return Family.from_json_dict(data), None


def _load_function_cube(cfg: RunConfig) -> tuple[FiniteFunction, Cube]:
    if cfg.input is None:
        raise ValueError(f"{cfg.command} requires --input with a function and cube document")
    with _reading(cfg.input, 'expected {"function": ..., "cube": ...}') as data:
        function, cube = data["function"], data["cube"]
        return FiniteFunction.from_json_dict(function), Cube.from_json_dict(cube)


def _load_multiset(cfg: RunConfig) -> IntMultiset:
    if cfg.input is None:
        raise ValueError("solve requires --input with a [[value, multiplicity], ...] document")
    with _reading(cfg.input, "expected a [[value, multiplicity], ...] document") as data:
        return IntMultiset.from_pairs(json_items(data))


Outcome = tuple[dict, Optional[dict]]


def _run_gen(cfg: RunConfig) -> Outcome:
    fam, universe = _load_family(cfg)
    report = {
        "universe": universe,
        "family": fam,
        "members": len(fam),
    }
    return report, None


def _run_check_jumpfree(cfg: RunConfig) -> Outcome:
    fam, universe = _load_family(cfg)
    witness = is_jump_free_family(fam)
    report = {
        "universe": universe,
        "members": len(fam),
        "pairsChecked": len(fam) ** 2,
        "jumpFree": witness is None,
        "witness": None if witness is None else witness.to_json_dict(),
    }
    return report, report["witness"]


def _run_check_full(cfg: RunConfig) -> Outcome:
    # Fullness is relative to an explicit universe, so the universe is
    # always built from the flags and surfaced, even for input families.
    spec = cfg.universe_spec()
    universe = build_universe(spec)
    fam, _ = _load_family(cfg, universe)
    if fam.k != spec.k:
        raise ValueError(f"family arity {fam.k} does not match the universe arity {spec.k} (--k)")
    uncovered = is_full_over(fam, universe)
    domain = None if uncovered is None else [list(t) for t in uncovered]
    report = {
        "universe": spec.to_json_dict(),
        "domainsChecked": len(universe),
        "members": len(fam),
        "full": uncovered is None,
        "uncovered": domain,
    }
    return report, None if domain is None else {"kind": "uncoveredDomain", "domain": domain}


def _run_check_rr(cfg: RunConfig) -> Outcome:
    f, cube = _load_function_cube(cfg)
    rr = regressive_regularity(f, cube)
    report = {"functionId": f.id, "cube": cube.to_json_dict(), "report": rr}
    # perClass lists the classes in signature order.
    for sig, verdict in rr["perClass"].items():
        if verdict["kind"] == VIOLATED:
            return report, {"kind": "irregularClass", "signature": sig, "verdict": verdict}
    return report, None


def _run_search(cfg: RunConfig) -> Outcome:
    members, universe = _load_family(cfg, p=cfg.p)
    witness = find_regressively_regular_witness(members, cfg.p, cfg.k)
    report = {
        "universe": universe,
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
    members, universe = _load_family(cfg, p=cfg.p)
    gammas = GammaTriple.parse(cfg.gamma)
    report = run_corollary_experiment(members, cfg.p, gammas=gammas, method=cfg.method, k=cfg.k)
    report["universe"] = universe
    checks = {key: report[key] for key in ("fh_equal", "agreement", "cardinality_ok")}
    if report["outcome"] == "ok" and not all(checks.values()):
        return report, {"kind": "solvabilityMismatch", **checks}
    return report, None


# argparse settings of each flag, keyed by its name; dest names the
# RunConfig field where the two differ.  Defaults live in RunConfig alone:
# subparsers suppress every flag not given.  The one action names an
# argparse class, looked up only when a parser is built.
_FLAGS = {
    "k": {"type": int, "help": "tuple arity"},
    "p": {"type": int, "help": "cube side length"},
    "grid": {
        "dest": "grid_bound",
        "metavar": "GRID",
        "type": int,
        "help": "coordinates range over 0..grid-1",
    },
    "max_domain": {
        "dest": "max_domain_size",
        "metavar": "MAX_DOMAIN",
        "type": int,
        "help": "largest domain size in the universe",
    },
    "samples": {
        "dest": "sample_count",
        "metavar": "SAMPLES",
        "type": int,
        "help": "seeded random domains to add",
    },
    "seed": {"type": int, "help": "seed for all randomness"},
    "cubes": {
        "dest": "include_all_cubes",
        "action": "BooleanOptionalAction",
        "help": "include all cube powers that fit the size bound",
    },
    "family": {"choices": FAMILY_KINDS, "help": "construction rule for members"},
    "gamma": {"help": "comma-separated interval encoders, e.g. zigzag,zigzagneg,shifted:10"},
    "semantics": {"choices": SEMANTICS},
    "method": {
        "choices": METHODS,
        "help": "subset-sum solver: exhaustive (oracle, at most 24 elements) or dp (bitset)",
    },
    "format": {"choices": ("json", "csv")},
    "input": {"help": "path to a serialized input file"},
}


class Command(NamedTuple):
    help: str
    flags: tuple[str, ...]
    run: Callable[[RunConfig], Outcome]


_FAMILY_FLAGS = ("k", "grid", "max_domain", "samples", "seed", "cubes", "family", "input")

# One row per command, in help order; each takes --format plus the flags
# its handler reads.
COMMANDS = {
    "gen": Command(
        "generate a family over a seeded universe and print it", _FAMILY_FLAGS, _run_gen
    ),
    "check-jumpfree": Command(
        "decide the jump-free implication for all ordered member pairs",
        _FAMILY_FLAGS,
        _run_check_jumpfree,
    ),
    "check-full": Command(
        "check the family covers every domain of the universe", _FAMILY_FLAGS, _run_check_full
    ),
    "check-rr": Command(
        "classify one function over one cube (input file required)", ("input",), _run_check_rr
    ),
    "search": Command(
        "find the first regressively regular (member, cube) witness",
        _FAMILY_FLAGS + ("p",),
        _run_search,
    ),
    "sets": Command(
        "build the paired integer multisets for one function and cube",
        ("input", "gamma", "semantics"),
        _run_sets,
    ),
    "solve": Command(
        "decide target-zero subset sum for a multiset (input file required)",
        ("input", "method"),
        _run_solve,
    ),
    "experiment": Command(
        "witness search, multiset build, and paired solvability check",
        _FAMILY_FLAGS + ("p", "gamma", "method"),
        _run_experiment,
    ),
}


def _command_flags(name: str) -> Iterator[tuple[str, dict]]:
    """The option string and argparse settings of --format and each flag
    command name's handler reads."""
    for flag, settings in _FLAGS.items():
        if flag == "format" or flag in COMMANDS[name].flags:
            yield "--" + flag.replace("_", "-"), settings


@functools.cache
def _options(name: str) -> dict[str, tuple]:
    """Each option string command name's parser registers, built once per
    process: the switch's --cubes and --no-cubes as (dest, value), every
    other flag as (dest, type, choices), dest named as argparse names it."""
    table = {}
    for option, settings in _command_flags(name):
        dest = settings.get("dest", option[2:].replace("-", "_"))
        if "action" in settings:
            table[option], table["--no-" + option[2:]] = (dest, True), (dest, False)
        else:
            table[option] = (dest, settings.get("type", str), settings.get("choices"))
    return table


def _read_flags(argv: list[str]) -> Optional[dict]:
    """RunConfig's keyword arguments for a command name followed only by its
    exact option strings, each valued one followed by a token argparse takes
    as its value (no leading "-") that converts and is one of its choices;
    a repeated flag keeps its last value.  None for any other argv."""
    options = _options(argv[0])
    args = {"command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        option = options.get(token)
        if option is None:
            return None
        if len(option) == 2:  # a switch
            args[option[0]] = option[1]
            continue
        dest, convert, choices = option
        value = next(tokens, "-")  # "-" stands for a missing value
        if value.startswith("-"):
            return None
        try:
            args[dest] = convert(value)
        except ValueError:
            return None
        if choices is not None and args[dest] not in choices:
            return None
    return args


@functools.cache
def _parser():
    """The top-level parser with each command's subparser, built once per
    process and only for an argv the flag table does not read: help,
    abbreviations, "--flag=value" and every refusal."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse exits 2 on usage errors; this contract reserves 2 for
        violations, so usage errors are remapped to 1."""

        def error(self, message: str) -> None:
            self.print_usage(sys.stderr)
            self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="jumpfree",
        description="Generate, check, search, and run the full solvability experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for option, settings in _command_flags(name):
            if "action" in settings:
                settings = {**settings, "action": getattr(argparse, settings["action"])}
            cmd.add_argument(option, **settings)
    return parser


def _parse_args(argv: list[str]) -> dict:
    """RunConfig's keyword arguments for argv, as the top-level parser's
    parse_args gives them: read off the flag table when it can, else from
    that parser, which writes all help, usage and error text."""
    if argv[:1] == ["--"] and argv[1:]:  # refused as argparse 3.10-3.13.0 do; later ones drop it
        choices = ", ".join(map(repr, COMMANDS))
        _parser().error(f"argument command: invalid choice: '--' (choose from {choices})")
    args = _read_flags(argv) if argv and argv[0] in COMMANDS else None
    return vars(_parser().parse_args(argv)) if args is None else args


def _to_csv(report: dict) -> str:
    """Scalar report fields only; nested objects stay JSON-only."""
    import csv

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
    if cfg.k < 1:
        raise ValueError("--k must be >= 1")
    report, violation = COMMANDS[cfg.command].run(cfg)
    if cfg.format == "csv":
        text = _to_csv(report)
    else:
        document = {
            "command": cfg.command,
            "config": cfg.to_json_dict(),
            "report": report,
            "violation": violation,
        }
        text = render_json(document) + "\n"
    return text, EXIT_VIOLATION if violation is not None else EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    cfg = RunConfig(**_parse_args(sys.argv[1:] if argv is None else argv))
    try:
        text, status = run(cfg)
        sys.stdout.write(text)
    except (CapacityError, MemoryError) as exc:
        print(f"jumpfree: capacity: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"jumpfree: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
