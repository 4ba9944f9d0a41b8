"""Command-line orchestration: density / scan / compare / verify subcommands
with JSON and CSV report emission.

Exit codes: 0 success, 1 verify property failure, 2 configuration error,
3 resource-cap error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Optional, Sequence

from . import density as dens
from . import empirical, eulerseries, kummer
from .arith import FactoredRational, ResourceCapError, divisors
from .density import ConditionSpec, IndexFixed, IndexSet, OrderAP, SetDescriptor


class ConfigError(ValueError):
    pass


def _parse_set(text: str) -> SetDescriptor:
    """Index set syntax: '1,2,5' (finite) or 'ap:a:d' (k = a mod d, k >= 1)."""
    try:
        if text.startswith("ap:"):
            _, a, d = text.split(":")
            return SetDescriptor.progression(int(a), int(d))
        return SetDescriptor.finite([int(v) for v in text.split(",")])
    except ValueError as exc:  # also a wrong number of ap: fields
        raise ValueError(f"bad index set {text!r}: {exc}") from exc


def _int_in(minimum: int, maximum: Optional[int] = None):
    """A flag converter to an int in [minimum, maximum], named `int` so that
    argparse reports text that is no integer as an `invalid int value`."""

    def convert(text: str) -> int:
        val = int(text)
        if val < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {val}")
        if maximum is not None and val > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {val}")
        return val

    convert.__name__ = "int"
    return convert


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors print the usage line, then exit 2 as a ConfigError."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _load_config_file(path: str) -> list[tuple[str, str]]:
    """The file's `key = value` lines in file order; blank and `#` lines skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    out = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        out.append((key.strip(), val.strip()))
    return out


def _open_output(path: str, mode: str):
    """Open a file in `mode`; a path that cannot be written is a config error."""
    try:
        return open(path, mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _check_writable(*paths: Optional[str]) -> None:
    """Fail before any computation when an output path cannot be written or
    two outputs name one file, where the later write would replace the
    earlier one.

    An existing file is left as it is; a file this check creates is removed.
    """
    paths = [path for path in paths if path]
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ConfigError(f"two outputs name the same file: {', '.join(paths)}")
    for path in paths:
        existed = os.path.exists(path)
        with _open_output(path, "a"):
            pass
        if not existed:
            os.remove(path)


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; with --config, parse it again with each line of the file,
    in file order, as one `--flag=value` ahead of argv's flags, which win.
    So a flag's later value replaces the earlier, a repeatable flag's lines
    accumulate, each value split on whitespace, and a repeatable flag given
    in argv drops the file's values.  A key that is another subcommand's
    flag (`x` in a `density` run) passes unread; one that is no subcommand's
    flag, or is `config` itself, is a ConfigError."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    filed = _load_config_file(args.config)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        a.dest
        for p in commands.choices.values()
        for a in p._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    unknown = sorted({key for key, _ in filed} - flags)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    actions = {a.dest: a for a in commands.choices[args.command]._actions}
    spliced = []
    for key, value in filed:
        action = actions.get(key)
        if action is None:
            continue
        values = [value]
        if isinstance(action, argparse._AppendAction):
            values = [] if getattr(args, key) is not None else value.split()
        spliced += [f"{action.option_strings[0]}={v}" for v in values]
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + spliced + argv[at:])


def build_condition_spec(args: argparse.Namespace) -> ConditionSpec:
    """The run's condition spec.

    argparse has converted the integer flags; the index sets are parsed
    here whatever the mode, so a malformed one fails before any
    computation.  The semantic checks are ConditionSpec.make's; any
    ValueError becomes a ConfigError, as does a class set `--c` with no
    level `--f`, which means nothing in any mode.
    """
    try:
        if args.f is None and args.c:
            raise ValueError("--c needs --f: a Frobenius class set needs its level")
        modes = {
            "order": OrderAP(tuple(args.a or ()), tuple(args.d or ())),
            "index": IndexFixed(tuple(args.t or ())),
            "indexset": IndexSet(tuple(_parse_set(s) for s in args.s or [])),
        }
        frobenius = None if args.f is None else (args.f, args.c)
        return ConditionSpec.make(args.alpha or [], modes[args.mode], frobenius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(doc: dict, out: Optional[str]) -> None:
    """Write doc, stamped with the current UTC time, as JSON to out or stdout."""
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with _open_output(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with _open_output(path, "w") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _report(args: argparse.Namespace, schema: str, started: float, **fields) -> None:
    """Emit the JSON report of a density, scan or compare run, whose
    `params` echo the parsed spec flags."""
    params = {key: getattr(args, key) for key in ("mode", "a", "d", "t", "s", "f", "c")}
    doc = {
        "schema": schema,
        "params": {**params, "alphas": args.alpha},
        "runtime_ms": int((time.monotonic() - started) * 1000),
    }
    _emit({**doc, **fields}, args.out)


def cmd_density(args: argparse.Namespace) -> int:
    spec = build_condition_spec(args)
    started = time.monotonic()
    result = dens.evaluate(spec, args.nmax, args.tmax, log_terms=bool(args.term_log))
    _report(
        args, "density-result/1", started,
        mode=args.mode, alphas=args.alpha, value=result.value,
        tail_estimate=result.tail_estimate, terms_evaluated=result.terms_evaluated,
        caps={"nmax": result.caps[0], "tmax": result.caps[1]},
    )
    if args.term_log:
        _write_csv(
            args.term_log, ["N", "T", "mu", "c", "degree"],
            ([" ".join(map(str, row["N"])), " ".join(map(str, row["T"])),
              row["mu"], row["c"], row["degree"]] for row in result.per_term_log),
        )
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    spec = build_condition_spec(args)
    if args.x is None:
        raise ConfigError("scan needs --x (flag or config file)")
    started = time.monotonic()
    result = empirical.scan(spec, args.x, workers=args.workers)
    _report(args, "scan-result/1", started, mode=args.mode, alphas=args.alpha, **result.to_dict())
    if args.csv:
        _write_csv(args.csv, ["x", "matched", "considered"], result.checkpoints)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = build_condition_spec(args)
    if args.x is None:
        raise ConfigError("compare needs --x (flag or config file)")
    # the scan's caps before the series runs; evaluate checks its tail caps first
    empirical.check_scan_bound(args.x, args.workers)
    started = time.monotonic()
    result = dens.evaluate(spec, args.nmax, args.tmax)
    scan_result = empirical.scan(spec, args.x, workers=args.workers)
    report = empirical.compare(result, scan_result, rank=spec.rank)
    _report(
        args, "compare-report/2", started,
        x=args.x, value=result.value, tail_estimate=result.tail_estimate,
        scan=scan_result.to_dict(), report=asdict(report),
    )
    return 0


CHEBOTAREV_FIELDS: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [
    ((2,), (2,), 8),
    ((2,), (2,), 4),
    ((2, 3), (2, 2), 24),
    ((2, 3), (2, 2), 12),
    ((5,), (2,), 10),
    ((-2,), (2,), 8),
    ((8,), (4,), 8),
    ((2,), (4,), 8),
    ((12,), (2,), 12),
    ((3, 5), (2, 2), 60),
]


EULER_MIN_CAP = 32  # the smallest cap with one grid point, x = 4 <= cap // 8


def verify_euler(r: int, cap: int) -> dict:
    """x * tail along x = 4, 8, ... <= cap/8 stays within twice its first
    value; the first tail is also evaluated at cap/2 beside cap."""
    xs = [4 * 2**k for k in range(8) if 4 * 2**k <= cap // 8]  # 4 .. 512 at cap 4096
    tails = [eulerseries.phi_lcm_tail(r, x, cap) for x in xs]
    rows = [
        {"r": r, "x": x, "tail": t, "scaled": x * t, "cap": cap} for x, t in zip(xs, tails)
    ]
    bound = 2.0 * rows[0]["scaled"]
    return {
        "target": "euler",
        "r": r,
        "cap": cap,
        "rows": rows,
        "scaled_bound": bound,
        "cap_sensitivity": {
            "cap": tails[0],
            "half_cap": eulerseries.phi_lcm_tail(r, xs[0], cap // 2),
        },
        "passed": all(row["scaled"] <= bound for row in rows),
    }


FAILURE_POOL = (2, 3, 5, -2, 8, 12)  # the failure grid's alphas
FAILURE_M_DIVISOR = 12  # the failure grid's radical indices divide this


def failure_bound(M_divisor: int) -> int:
    """lcm of the failure ratios over a grid of fields: one and two alphas
    from FAILURE_POOL, radical indices over the divisors of
    FAILURE_M_DIVISOR, cyclotomic levels over the divisors of `M_divisor`
    that the indices divide."""
    alphas = [FactoredRational.of(a) for a in FAILURE_POOL]
    bound = 1
    for r in (1, 2):
        for combo in itertools.combinations(alphas, r):
            for m in itertools.product(divisors(FAILURE_M_DIVISOR), repeat=r):
                need = math.lcm(*m)
                for M in divisors(M_divisor):
                    if M % need == 0:
                        spec = kummer.FieldSpec(combo, m, M)
                        bound = math.lcm(bound, kummer.failure_ratio(spec))
    return bound


def verify_kummer() -> dict:
    """The failure bound at the levels M | 240 and again at M | 480; passes
    when doubling the levels leaves it unchanged."""
    small, big = failure_bound(240), failure_bound(480)
    return {
        "target": "kummer",
        "B_observed": small,
        "B_observed_doubled": big,
        "grid_description": (
            f"alphas in {list(FAILURE_POOL)}, ranks [1, 2], "
            f"m | {FAILURE_M_DIVISOR}, M | 240"
        ),
        "passed": big == small,
    }


def verify_chebotarev(x: int) -> dict:
    fspecs = [kummer.FieldSpec.make(a, m, M) for a, m, M in CHEBOTAREV_FIELDS]
    fractions = empirical.splitting_fraction_many(fspecs, x)
    rows = []
    passed = True
    for (a, m, M), spec, frac in zip(CHEBOTAREV_FIELDS, fspecs, fractions):
        deg = kummer.kummer_degree(spec)
        product = frac * deg
        ok = 0.95 <= product <= 1.05
        passed = passed and ok
        rows.append(
            {"alphas": list(a), "m": list(m), "M": M, "degree": deg,
             "fraction": frac, "product": product, "ok": ok}
        )
    return {"target": "chebotarev", "x": x, "rows": rows, "passed": bool(passed)}


VERIFY = {  # target -> its grid, run on the parsed flags
    "euler": lambda args: verify_euler(args.r, args.cap),
    "kummer": lambda args: verify_kummer(),
    "chebotarev": lambda args: verify_chebotarev(args.x),
}


def cmd_verify(args: argparse.Namespace) -> int:
    doc = VERIFY[args.target](args)
    _emit(doc, args.out)
    return 0 if doc["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orddensity",
        description="Densities of primes with prescribed multiplicative "
        "order/index conditions: series evaluation and prime scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--alpha", action="append", help="rational, e.g. 2 or 3/5 (repeatable)")
        p.add_argument("--mode", choices=["order", "index", "indexset"], required=True)
        p.add_argument("--a", type=int, action="append", help="order residue a_i (order mode)")
        p.add_argument("--d", type=int, action="append", help="modulus d_i >= 2 (order mode)")
        p.add_argument("--t", type=int, action="append", help="index target t_i (index mode)")
        p.add_argument("--s", action="append", help="index set: '1,2,5' or 'ap:a:d'")
        p.add_argument("--f", type=int, default=None, help="Frobenius level (cyclotomic)")
        p.add_argument("--c", type=int, action="append", help="allowed residues mod f, repeatable")
        p.add_argument("--config", default=None, help="key=value config file; flags win")
        p.add_argument("--out", default=None, help="output JSON path (default stdout)")

    def add_series_flags(p):
        p.add_argument("--nmax", type=_int_in(1), default=dens.DEFAULT_NMAX)
        p.add_argument("--tmax", type=_int_in(1), default=dens.DEFAULT_TMAX)

    def add_scan_flags(p):
        p.add_argument("--x", type=_int_in(2), default=None)
        p.add_argument("--workers", type=_int_in(1), default=1)

    p = sub.add_parser("density", help="evaluate the truncated density series")
    add_spec_flags(p)
    add_series_flags(p)
    p.add_argument("--term-log", default=None, help="optional per-term CSV path")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("scan", help="scan primes p <= x against the condition")
    add_spec_flags(p)
    add_scan_flags(p)
    p.add_argument("--csv", default=None, help="dyadic checkpoint CSV path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("compare", help="series value vs prime scan")
    add_spec_flags(p)
    add_series_flags(p)
    add_scan_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run a property grid")
    p.add_argument("target", choices=list(VERIFY))
    p.add_argument("--r", type=_int_in(1, 3), default=2, help="rank for the euler grid")
    p.add_argument(
        "--cap", type=_int_in(EULER_MIN_CAP), default=4096, help="series cap for the euler grid"
    )
    p.add_argument("--x", type=_int_in(2), default=10**6, help="scan bound for chebotarev")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(build_parser(), sys.argv[1:] if argv is None else list(argv))
        _check_writable(args.out, getattr(args, "csv", None), getattr(args, "term_log", None))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # --help
        return exc.code or 0


if __name__ == "__main__":
    sys.exit(main())
