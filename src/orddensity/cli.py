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


def _ints(values, flag: str) -> list[int]:
    try:
        return [int(v) for v in values or []]
    except ValueError as exc:
        raise ValueError(f"--{flag} needs integers, got {values!r}") from exc


def _load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    out: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _open_output(path: str):
    """Open a file for writing; a path that cannot be written is a config error."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
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
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc
        if not existed:
            os.remove(path)


def _merge_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> argparse.Namespace:
    """Fill unset flags from the optional key=value config file; flags win.

    A key that is a flag of another subcommand (`x` in a `density` run)
    passes unread, so one file can serve several commands; a key that is
    no subcommand's flag is a ConfigError.
    """
    if not getattr(args, "config", None):
        return args
    filed = _load_config_file(args.config)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        a.dest
        for p in commands.choices.values()
        for a in p._actions
        if a.option_strings and a.dest != "help"
    }
    unknown = sorted(set(filed) - flags)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    multi = {"alpha", "a", "d", "t", "s", "c"}
    for key, val in filed.items():
        if not hasattr(args, key):
            continue
        current = getattr(args, key)
        if current is None or current == []:
            if key in multi:
                setattr(args, key, val.split())
            else:
                setattr(args, key, val)
    return args


def build_condition_spec(args: argparse.Namespace) -> tuple[ConditionSpec, dict]:
    """The run's condition spec and the `params` echo of its JSON report.

    Every spec flag given, on the command line or in the config file, is
    parsed here whatever the mode, so a malformed one fails before any
    computation.  The semantic checks are ConditionSpec.make's; any
    ValueError becomes a ConfigError.
    """
    try:
        a, d, t, c = (_ints(getattr(args, key), key) for key in "adtc")
        f = None if args.f is None else _ints([args.f], "f")[0]
        modes = {
            "order": OrderAP(tuple(a), tuple(d)),
            "index": IndexFixed(tuple(t)),
            "indexset": IndexSet(tuple(_parse_set(s) for s in args.s or [])),
        }
        frobenius = None if f is None else (f, c)
        spec = ConditionSpec.make(args.alpha or [], modes[args.mode], frobenius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    params = {
        "mode": args.mode,
        "alphas": list(args.alpha or []),
        "a": a or None,
        "d": d or None,
        "t": t or None,
        "s": list(args.s) if args.s else None,
        "f": f,
        "c": c or None,
    }
    return spec, params


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with _open_output(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(
    args: argparse.Namespace, schema: str, params: dict, started: float, **fields
) -> None:
    """Emit the JSON report of a density, scan or compare run."""
    doc = {
        "schema": schema,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "params": params,
        "runtime_ms": int((time.monotonic() - started) * 1000),
    }
    _emit({**doc, **fields}, args.out)


def _resolve(
    args: argparse.Namespace,
    key: str,
    fallback=None,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
):
    """An integer flag (or config value), checked against its bounds."""
    val = getattr(args, key, None)
    if val is None:
        return fallback
    try:
        val = int(val)
    except ValueError as exc:
        raise ConfigError(f"--{key} needs an integer, got {val!r}") from exc
    if minimum is not None and val < minimum:
        raise ConfigError(f"--{key} must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"--{key} must be <= {maximum}, got {val}")
    return val


def cmd_density(args: argparse.Namespace) -> int:
    spec, params = build_condition_spec(args)
    nmax = _resolve(args, "nmax", dens.DEFAULT_NMAX, minimum=1)
    tmax = _resolve(args, "tmax", dens.DEFAULT_TMAX, minimum=1)
    started = time.monotonic()
    result = dens.evaluate(spec, nmax, tmax, log_terms=bool(args.term_log))
    _report(
        args, "density-result/1", params, started,
        mode=args.mode, alphas=params["alphas"], value=result.value,
        tail_estimate=result.tail_estimate, terms_evaluated=result.terms_evaluated,
        caps={"nmax": result.caps[0], "tmax": result.caps[1]},
    )
    if args.term_log and result.per_term_log is not None:
        with _open_output(args.term_log) as fh:
            w = csv.writer(fh)
            w.writerow(["N", "T", "mu", "c", "degree"])
            for row in result.per_term_log:
                w.writerow(
                    [
                        " ".join(map(str, row["N"])),
                        " ".join(map(str, row["T"])),
                        row["mu"],
                        row["c"],
                        row["degree"],
                    ]
                )
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    spec, params = build_condition_spec(args)
    x = _resolve(args, "x", minimum=2)
    if x is None:
        raise ConfigError("scan needs --x (flag or config file)")
    started = time.monotonic()
    result = empirical.scan(
        spec,
        x,
        workers=_resolve(args, "workers", 1, minimum=1),
        checkpoints=bool(args.csv),
    )
    counts = result.to_dict()
    counts.pop("checkpoints", None)
    _report(
        args, "scan-result/1", params, started, mode=args.mode, alphas=params["alphas"], **counts
    )
    if args.csv and result.checkpoints:
        with _open_output(args.csv) as fh:
            w = csv.writer(fh)
            w.writerow(["x", "matched", "considered"])
            w.writerows(result.checkpoints)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec, params = build_condition_spec(args)
    x = _resolve(args, "x", minimum=2)
    if x is None:
        raise ConfigError("compare needs --x (flag or config file)")
    nmax = _resolve(args, "nmax", dens.DEFAULT_NMAX, minimum=1)
    tmax = _resolve(args, "tmax", dens.DEFAULT_TMAX, minimum=1)
    # the scan's cap before the series runs; evaluate checks its tail caps first
    empirical.check_scan_bound(x)
    started = time.monotonic()
    result = dens.evaluate(spec, nmax, tmax)
    scan_result = empirical.scan(spec, x, workers=_resolve(args, "workers", 1, minimum=1))
    report = empirical.compare(result, scan_result, rank=spec.rank)
    _report(
        args, "compare-report/2", params, started,
        x=x, value=result.value, tail_estimate=result.tail_estimate,
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


def verify_kummer(grid: str) -> dict:
    small = failure_bound(240)
    out = {
        "target": "kummer",
        "grid": grid,
        "B_observed": small,
        "grid_description": (
            f"alphas in {list(FAILURE_POOL)}, ranks [1, 2], "
            f"m | {FAILURE_M_DIVISOR}, M | 240"
        ),
        "passed": True,
    }
    if grid == "double":
        big = failure_bound(480)
        out["B_observed_doubled"] = big
        out["passed"] = big == small
    return out


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


def cmd_verify(args: argparse.Namespace) -> int:
    if args.target == "euler":
        doc = verify_euler(
            _resolve(args, "r", minimum=1, maximum=3),
            _resolve(args, "cap", minimum=EULER_MIN_CAP),
        )
    elif args.target == "kummer":
        doc = verify_kummer(args.grid)
    elif args.target == "chebotarev":
        doc = verify_chebotarev(_resolve(args, "x", minimum=2))
    else:  # argparse choices guard this
        raise ConfigError(f"unknown verify target {args.target!r}")
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    _emit(doc, args.out)
    return 0 if doc["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orddensity",
        description="Densities of primes with prescribed multiplicative "
        "order/index conditions: series evaluation and prime scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--alpha", action="append", help="rational, e.g. 2 or 3/5 (repeatable)")
        p.add_argument("--mode", choices=["order", "index", "indexset"], required=True)
        p.add_argument("--a", action="append", help="order residue a_i (order mode)")
        p.add_argument("--d", action="append", help="order modulus d_i >= 2 (order mode)")
        p.add_argument("--t", action="append", help="index target t_i (index mode)")
        p.add_argument("--s", action="append", help="index set: '1,2,5' or 'ap:a:d'")
        p.add_argument("--f", type=int, default=None, help="Frobenius level (cyclotomic)")
        p.add_argument("--c", action="append", help="allowed residues mod f (repeatable)")
        p.add_argument("--config", default=None, help="key=value config file; flags win")
        p.add_argument("--out", default=None, help="output JSON path (default stdout)")

    p = sub.add_parser("density", help="evaluate the truncated density series")
    add_spec_flags(p)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--term-log", default=None, help="optional per-term CSV path")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("scan", help="scan primes p <= x against the condition")
    add_spec_flags(p)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--csv", default=None, help="dyadic checkpoint CSV path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("compare", help="series value vs prime scan")
    add_spec_flags(p)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run a property grid")
    p.add_argument("target", choices=["euler", "kummer", "chebotarev"])
    p.add_argument("--r", type=int, default=2, help="rank for the euler grid")
    p.add_argument("--cap", type=int, default=4096, help="series cap for the euler grid")
    p.add_argument("--grid", choices=["small", "double"], default="small")
    p.add_argument("--x", type=int, default=10**6, help="scan bound for chebotarev")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args = _merge_config(args, parser)
        _check_writable(args.out, getattr(args, "csv", None), getattr(args, "term_log", None))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
