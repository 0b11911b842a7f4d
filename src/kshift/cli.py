"""Command-line interface: compute, expand, verify, enumerate.

Exit codes: 0 success (PASS / all-MATCH), 1 mathematical mismatch (FAIL,
MISMATCH, or a nonzero expansion residual), 2 usage errors, 3 resource limits.
A flag with no meaning for the function is a usage error: --inner for schur,
--doubleslash for anything but GP/GQ/JP/JQ, and --deg-cap for a family that is
not set-valued.  So is a nonsense value: --vars below 1, --max-deg below 0, or
a --beta with denominator 0.  `compute` and `expand` get every function from
`genfun.evaluate`.

Settings: the persistent cache directory from --cache-dir, then
KSHIFT_CACHE_DIR, then `cache_dir=` in the --config file (key=value lines);
the output format from --format, then `format=`.  --no-cache drops the
persistent cache but keeps in-memory memoization.  The `verify` flags are
derived from the check signatures: one int flag per parameter.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import genfun, identities
from .cache import CACHE
from .errors import (
    InvalidShapeError,
    KshiftError,
    NonSymmetricError,
    ParameterError,
    ResourceLimitError,
)
from .polyring import BetaPoly
from .shapes import SkewShape, StrictPartition, parse_parts
from .tableaux import iter_tableaux

FORMATS = ("text", "json")
CONFIG_KEYS = ("cache_dir", "format")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParameterError(f"config file {path} is not UTF-8 text") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParameterError(f"unknown config key {key!r} in {path}; known: {', '.join(CONFIG_KEYS)}")
        config[key] = value.strip()
    if config.get("format", "text") not in FORMATS:
        raise ParameterError(f"config format must be one of {', '.join(FORMATS)}, got {config['format']!r}")
    return config


def _resolve_settings(args) -> dict:
    config = _load_config(getattr(args, "config", None))
    cache_dir = (
        getattr(args, "cache_dir", None)
        or os.environ.get("KSHIFT_CACHE_DIR")
        or config.get("cache_dir")
    )
    fmt = getattr(args, "format", None) or config.get("format") or "text"
    return {"cache_dir": cache_dir, "format": fmt}


def _check_params() -> list[str]:
    """The parameter names of the registered checks, first appearance first."""
    names: dict[str, None] = {}
    for check in identities.CHECKS.values():
        names.update(dict.fromkeys(identities.check_params(check)))
    return list(names)


def _evaluate(func: str, args) -> BetaPoly:
    return genfun.evaluate(func, parse_parts(args.outer), parse_parts(args.inner), args.vars, args.max_deg, args.doubleslash)


def _print_poly(poly: BetaPoly, fmt: str, value: Fraction | None) -> None:
    if value is not None:
        special = poly.specialize_beta(value)
        items = sorted(special.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        if fmt == "json":
            print(
                json.dumps(
                    {
                        "vars": poly.nvars,
                        "beta": str(value),
                        "terms": [
                            {"exps": list(e), "coeff": str(c)} for e, c in items
                        ],
                    },
                    sort_keys=True,
                )
            )
        else:
            bits = []
            for e, c in items:
                mono = "*".join(
                    f"x{i}^{k}" if k > 1 else f"x{i}"
                    for i, k in enumerate(e, start=1)
                    if k
                )
                bits.append(f"{c}" + (f"*{mono}" if mono else ""))
            print(" + ".join(bits) if bits else "0")
        return
    print(json.dumps(poly.to_json_obj(), sort_keys=True) if fmt == "json" else poly.render())


def cmd_compute(args, settings) -> int:
    beta = None
    if args.beta is not None:
        from fractions import Fraction  # only --beta builds a rational
        try:
            beta = Fraction(args.beta)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"--beta needs a rational number with a nonzero denominator, got {args.beta!r}") from None
    poly = _evaluate(args.func, args)
    _print_poly(poly, settings["format"], beta)
    return 0


def cmd_expand(args, settings) -> int:
    poly = _evaluate(args.target, args)
    expansion = genfun.expand_in_basis(poly, args.basis)
    obj = expansion.to_json_obj()
    if settings["format"] == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for entry in obj["coeffs"]:
            print(f"{entry['index'] or '()'}: beta-coeffs {entry['beta']}")
        print(f"residual_zero: {obj['residual_zero']}")
    return 0 if expansion.residual_zero else 1


def cmd_verify(args, settings) -> int:
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            try:
                records = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ParameterError(f"manifest {args.manifest} is not JSON: {exc}") from None
        reports = identities.run_manifest(records)
    else:
        if not args.id:
            raise ParameterError("verify needs --id or --manifest")
        params = {name: getattr(args, name) for name in _check_params() if getattr(args, name) is not None}
        reports = [identities.run_check(args.id, **params)]
    worst = 0
    for report in reports:
        if settings["format"] == "json":
            print(report.to_json())
        else:
            print(f"{report.id}: {report.status} ({report.cases} cases)")
            if report.witness:
                print(f"  witness: {json.dumps(report.witness, sort_keys=True)[:400]}")
        if report.status in ("FAIL", "MISMATCH"):
            worst = max(worst, 1)
        elif report.status == "ERROR":
            worst = max(worst, 2)
    return worst


def cmd_enumerate(args, settings) -> int:
    shape = SkewShape(StrictPartition.parse(args.outer), StrictPartition.parse(args.inner))
    stream = iter_tableaux(args.family, shape, args.max_value, args.deg_cap)
    if args.count_only:
        print(sum(1 for _ in stream))
    else:
        for t in stream:
            print(t.text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subparser defaults from clobbering globals given earlier
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", help="directory for the persistent memo cache")
    common.add_argument(
        "--no-cache",
        action="store_true",
        help="no persistent cache, whatever --cache-dir or KSHIFT_CACHE_DIR say; results are still memoized in memory",
    )
    common.add_argument("--config", help="key=value config file (keys: cache_dir, format)")
    common.add_argument("--format", choices=FORMATS)
    parser = argparse.ArgumentParser(
        prog="kshift",
        description="Exact calculus for K-theoretic Schur P/Q functions.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="evaluate one generating function", parents=[common])
    pc.add_argument("--func", required=True, choices=genfun.FUNCS)
    pc.add_argument("--outer", required=True, help='outer shape, e.g. "4,2,1" ("" for empty)')
    pc.add_argument("--inner", default="", help="inner shape for skew functions")
    pc.add_argument("--doubleslash", action="store_true", help="use the double-slash variant")
    pc.add_argument("--vars", type=int, default=3)
    pc.add_argument("--max-deg", type=int, default=8, dest="max_deg")
    pc.add_argument("--beta", help="specialize beta to this rational after computing")

    pe = sub.add_parser("expand", help="expand one function in a basis", parents=[common])
    pe.add_argument("--target", required=True, choices=genfun.FUNCS)
    pe.add_argument("--basis", required=True, choices=("schur", "P", "Q", "GP", "GQ", "gp", "gq", "jp", "jq"))
    pe.add_argument("--outer", required=True)
    pe.add_argument("--inner", default="")
    pe.add_argument("--doubleslash", action="store_true")
    pe.add_argument("--vars", type=int, default=3)
    pe.add_argument("--max-deg", type=int, default=8, dest="max_deg")

    pv = sub.add_parser("verify", help="run a registered identity check", parents=[common])
    pv.add_argument("--id", choices=sorted(identities.CHECKS))
    pv.add_argument("--manifest", help="JSON file with a list of {id, params} records")
    for name in _check_params():
        pv.add_argument("--" + name.replace("_", "-"), type=int, dest=name)

    pn = sub.add_parser("enumerate", help="stream tableaux of one family", parents=[common])
    pn.add_argument("--family", required=True)
    pn.add_argument("--outer", required=True)
    pn.add_argument("--inner", default="")
    pn.add_argument("--max-value", type=int, required=True, dest="max_value")
    pn.add_argument("--deg-cap", type=int, dest="deg_cap")
    pn.add_argument("--count-only", action="store_true", dest="count_only")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve_settings(args)
        if getattr(args, "no_cache", False):
            CACHE.configure(directory="")
            CACHE.clear_memory()
        elif settings["cache_dir"]:
            CACHE.configure(directory=settings["cache_dir"])
        handler = {
            "compute": cmd_compute,
            "expand": cmd_expand,
            "verify": cmd_verify,
            "enumerate": cmd_enumerate,
        }[args.command]
        return handler(args, settings)
    except (OSError, InvalidShapeError, ParameterError, NonSymmetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory in ' + args.command}", file=sys.stderr)
        return 3
    except KshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
