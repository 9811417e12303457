"""Command-line front end.

Subcommands: certify (criterion battery), oracle (matrix search),
genset (finite-set checks), counterexample (non-extendable bundle),
identity (integral representations), catalog (reference functions).

Exit codes: 0 the property holds / the task succeeded, 1 the property
is refuted (a witness is in the report), 2 usage error, 3 numerical
failure or conflicting criteria.

Reports are JSON by default, with sorted keys so that identical
arguments and seed produce byte-identical output; --no-timestamp drops
the one volatile field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .criteria import PSD_MATRICES, CertifyConfig, certify, re_evaluate_witness
from .divdiff import NarrowIntervalError, check_interval, check_tol
from .expr import (
    Div,
    DomainError,
    Expr,
    FunctionModel,
    Log,
    ParseError,
    Pow,
    PowReal,
    Sqrt,
    Var,
    catalog,
    parse,
)
from .gensets import (
    build_counterexample,
    extension_feasibility,
    genset_check,
    glue_check,
    re_evaluate_genset_witness,
    read_points_file,
)
from .integral import verify_convex_identity, verify_monotone_identity
from .linalg import convexity_oracle, monotonicity_oracle

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Flags whose values may start with a dash (expressions like -1/x,
# negative numbers).  argparse would read those as options, so they are
# folded into --flag=value / -fvalue form before parsing.
_DASH_VALUE_LONG = {
    "--function",
    "--interval",
    "--domain",
    "--nodes",
    "--points",
    "--aux-poles",
    "--base",
    "--x0",
}
_DASH_VALUE_SHORT = {"-f"}


def _fold_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if nxt is not None and nxt.startswith("-") and len(nxt) > 1:
            if tok in _DASH_VALUE_LONG:
                out.append(f"{tok}={nxt}")
                i += 2
                continue
            if tok in _DASH_VALUE_SHORT:
                out.append(f"{tok}{nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def _parse_floats(text: str, name: str, count: int | None = None) -> tuple[float, ...]:
    try:
        vals = tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"{name}: expected comma-separated reals, got {text!r}")
    if count is not None and len(vals) != count:
        raise argparse.ArgumentTypeError(f"{name}: expected {count} values, got {len(vals)}")
    return vals


def _parse_interval(text: str, name: str) -> tuple[float, float]:
    lo, hi = _parse_floats(text, name, 2)
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"{name}: expected lo < hi, got {text!r}")
    return lo, hi


def _parse_sample_interval(text: str) -> tuple[float, float]:
    """--interval: a finite lo < hi (a --domain may be infinite)."""
    try:
        return check_interval(_parse_interval(text, "--interval"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--interval: {exc}")


def _int_at_least(text: str, lo: int) -> int:
    value = int(text)
    if value < lo:
        raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    """--seed: numpy's generators take integers >= 0."""
    return _int_at_least(text, 0)


def _tol(text: str) -> float:
    """--tol: a finite number > 0 (divdiff.check_tol)."""
    try:
        return check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _subexprs(node: Expr) -> list[Expr]:
    return [
        getattr(node, f.name)
        for f in dataclasses.fields(node)
        if isinstance(getattr(node, f.name), Expr)
    ]


def _mentions_var(node: Expr) -> bool:
    if isinstance(node, Var):
        return True
    return any(_mentions_var(c) for c in _subexprs(node))


def _infer_domain(e: Expr) -> tuple[float, float]:
    """(0, inf) when the expression involves log/sqrt/real powers/reciprocals.

    A conservative guess for CLI convenience; --domain overrides it.
    """

    def positive_only(node: Expr) -> bool:
        if isinstance(node, (Log, Sqrt, PowReal)):
            return True
        if isinstance(node, Pow) and node.exponent < 0:
            return True
        if isinstance(node, Div) and _mentions_var(node.right):
            return True
        return any(positive_only(c) for c in _subexprs(node))

    return (0.0, math.inf) if positive_only(e) else (-math.inf, math.inf)


def _load_model(text: str, domain: str | None) -> FunctionModel:
    """A catalog key or an expression in x, on --domain when given.  A
    catalog key keeps its entry's expression (real powers do not parse)."""
    entry = next((e for e in catalog() if e.key == text), None)
    if entry is not None and domain is None:
        return entry.model
    expr = parse(text) if entry is None else entry.model.expr
    if domain is not None:
        return FunctionModel(expr, domain=_parse_interval(domain, "--domain"), name=text)
    return FunctionModel(expr, domain=_infer_domain(expr), name=text)


def _materialize_seed(seed: int | None) -> int:
    return int.from_bytes(os.urandom(4), "big") if seed is None else seed


def _render_text(obj, prefix: str = "") -> str:
    lines: list[str] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.append(_render_text(val, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {val}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{prefix}-")
                lines.append(_render_text(item, prefix + "  "))
            else:
                lines.append(f"{prefix}- {item}")
    else:
        lines.append(f"{prefix}{obj}")
    return "\n".join(line for line in lines if line)


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, (np.floating, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    try:
        return float(o)  # mpmath scalars
    except (TypeError, ValueError):
        raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _emit(payload: dict, args) -> None:
    if not args.no_timestamp:
        payload = dict(payload)
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        text = (
            json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
        )
    else:
        text = _render_text(payload) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser, seed: bool = True, tol: bool = True) -> None:
    """Output flags, plus --seed for the sampling subcommands and --tol
    for those that compare against a tolerance."""
    if seed:
        p.add_argument("--seed", type=_seed, default=None, help="RNG seed (default: random, echoed in output)")
    if tol:
        p.add_argument("--tol", type=_tol, default=1e-9, help="violation tolerance (default %(default)s)")
    p.add_argument("--format", choices=("json", "text"), default="json", help="output format")
    p.add_argument("--output", help="write the report to this file instead of stdout")
    p.add_argument("--no-timestamp", action="store_true", help="omit the generated_at field")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="matmono",
        description="Certify matrix monotonicity and convexity of scalar functions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the full criterion battery")
    p.add_argument("-f", "--function", help="expression in x or a catalog key")
    p.add_argument("-n", "--order", type=_positive_int, help="matrix order n")
    p.add_argument("--interval", help="open interval lo,hi")
    p.add_argument("--domain", help="override the inferred domain lo,hi")
    p.add_argument("--mode", choices=("monotone", "convex"), default="monotone")
    p.add_argument("--samples", type=_positive_int, default=1000, help="configurations per sampled criterion")
    p.add_argument("--oracle-trials", type=_positive_int, default=400, help="matrix oracle trials")
    p.add_argument("--no-oracle", action="store_true", help="skip the matrix oracle")
    p.add_argument("--replay", help="re-evaluate witnesses from a report or witness JSON file")
    _add_common(p)

    p = sub.add_parser("oracle", help="matrix search for order violations")
    p.add_argument("-f", "--function", required=True)
    p.add_argument("-n", "--order", type=_positive_int, required=True)
    p.add_argument("--interval", required=True)
    p.add_argument("--domain")
    p.add_argument("--mode", choices=("monotone", "convex"), default="monotone")
    p.add_argument("--trials", type=_positive_int, default=1000)
    _add_common(p)

    p = sub.add_parser("genset", help="finite-set monotonicity check")
    p.add_argument("--points-file", required=True, help="two-column text file of (point, value)")
    p.add_argument("-n", "--order", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=2000)
    p.add_argument("--glue-file", help="second points file; checks both pieces and their union")
    _add_common(p)

    p = sub.add_parser("counterexample", help="build the non-extendable finite function")
    p.add_argument("-n", "--order", type=_positive_int, required=True)
    p.add_argument("--points", required=True, help="2n+2 ascending reals, comma-separated")
    p.add_argument("--aux-poles", required=True, help="2n-2 reals outside the point hull")
    p.add_argument("--x0", help="extension point (default: gap midpoint)")
    p.add_argument("--samples", type=_positive_int, default=1500)
    _add_common(p)

    p = sub.add_parser("identity", help="verify an integral representation")
    p.add_argument("-f", "--function", required=True)
    p.add_argument("--nodes", required=True, help="two or more distinct finite reals, comma-separated")
    p.add_argument("--domain")
    p.add_argument("--mode", choices=("monotone", "convex"), default="monotone")
    p.add_argument("--base", help="base point (convex mode)")
    p.add_argument("--quad-order", type=_positive_int, default=20, help="Gauss-Legendre points per piece")
    _add_common(p, seed=False)
    p.set_defaults(tol=1e-8)

    p = sub.add_parser("catalog", help="list the reference functions")
    _add_common(p, seed=False, tol=False)

    return top


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (exit_code, payload)


def _cmd_certify(args) -> tuple[int, dict]:
    if args.replay:
        return _cmd_replay(args)
    if not args.function or args.order is None or not args.interval:
        raise _Usage("certify needs --function, --order, and --interval")
    model = _load_model(args.function, args.domain)
    lo, hi = _parse_sample_interval(args.interval)
    seed = _materialize_seed(args.seed)
    cfg = CertifyConfig(
        samples=args.samples,
        oracle_trials=args.oracle_trials,
        seed=seed,
        tol=args.tol,
        include_oracle=not args.no_oracle,
    )
    report = certify(model, args.order, (lo, hi), args.mode, cfg)
    payload = report.to_jsonable()
    if not report.consistent:
        return EXIT_NUMERICAL, payload
    return (EXIT_PASS if report.verdict == "pass" else EXIT_REFUTED), payload


def _witnesses(obj, piece=None):
    """Every object stored under a "witness" key in a report (certify
    records, genset levels, the pieces of a glue report, an oracle
    payload), each named by the criterion id or the level k beside it,
    and a glue report's by the piece it sits in as well."""
    if isinstance(obj, list):
        for item in obj:
            yield from _witnesses(item, piece)
    elif isinstance(obj, dict):
        if isinstance(obj.get("witness"), dict):
            where = {"k": obj["k"]} if "k" in obj else {"criterion": obj.get("id")}
            if piece is not None:
                where = {"piece": piece, **where}
            yield {**where, "witness": obj["witness"]}
        for key, val in obj.items():
            if key != "witness":
                inner = key if key in ("first", "second", "union") and isinstance(val, dict) else piece
                yield from _witnesses(val, inner)


# the fields the replay of each witness kind reads; a psd-matrix
# witness's further fields are those its criterion's matrix builder reads
_REPLAY_FIELDS = {
    "dd": ("nodes", "q"),
    "derivative-sign": ("t", "deriv_order", "q"),
    "psd-matrix": ("criterion",),
    "matrix-pair": ("matrix_a", "matrix_b"),
    "jensen": ("matrix_a", "matrix_b"),
    "genset-dd": ("subset", "values", "q"),
}
_PSD_FIELDS = {criterion: fields for criterion, (_, fields) in PSD_MATRICES.items()}


def _number(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _count(x) -> bool:
    return type(x) is int and x >= 1


def _numbers(x, size=None) -> bool:
    """A nonempty list of finite numbers, of length size where given."""
    return isinstance(x, list) and len(x) == (size or len(x)) > 0 and all(map(_number, x))


def _parts(x, holds) -> bool:
    """{"real": r, "imag": i}, i optional: holds(r), and holds(i) with i as long as r."""
    return isinstance(x, dict) and holds(x.get("real")) and (
        "imag" not in x or (holds(x["imag"]) and len(x["imag"]) == len(x["real"])))


def _square(m) -> bool:
    return isinstance(m, list) and all(_numbers(row, len(m)) for row in m) and bool(m)


def _size(x) -> int:
    return len(x["real"] if isinstance(x, dict) else x)


# what each field a replay reads must hold
_NUMBER, _COUNT = (_number, "a finite number"), (_count, "an int >= 1")
_NUMBERS = (_numbers, "a list of finite numbers")
_MATRIX = (lambda x: _parts(x, _square), "{'real': ..., 'imag': ...} square lists of lists of finite numbers")
_FIELD_TYPES = {
    "nodes": (lambda x: isinstance(x, list) and bool(x) and all(
        isinstance(p, list) and len(p) == 2 and _number(p[0]) and _count(p[1]) for p in x),
        "a list of [finite number, int >= 1] pairs"),
    "q": (lambda x: _parts(x, _numbers), "{'real': ..., 'imag': ...} lists of finite numbers"),
    "t": _NUMBER, "base": _NUMBER, "order": _COUNT, "deriv_order": _COUNT,
    "points": _NUMBERS, "subset": _NUMBERS, "values": _NUMBERS, "matrix_a": _MATRIX, "matrix_b": _MATRIX,
}


def _check_witness(w: dict) -> None:
    """A witness of an unknown kind, or one whose fields are missing or
    not of the types and lengths its replay reads, is a usage error."""
    kind = w.get("kind")
    if kind not in _REPLAY_FIELDS:
        raise _Usage(f"--replay: unknown witness kind {kind!r}")
    fields = _REPLAY_FIELDS[kind]
    if kind == "psd-matrix":
        if w.get("criterion") not in _PSD_FIELDS:
            raise _Usage(f"--replay: unknown psd-matrix criterion {w.get('criterion')!r}")
        fields += _PSD_FIELDS[w["criterion"]]
    for field in fields:
        if field not in w:
            raise _Usage(f"--replay: {kind} witness lacks {field!r}")
        if field in _FIELD_TYPES and not _FIELD_TYPES[field][0](w[field]):
            raise _Usage(f"--replay: {kind} witness's {field!r} must be {_FIELD_TYPES[field][1]}")
    for a, b in (("subset", "values"), ("matrix_a", "matrix_b")):
        if a in fields and _size(w[a]) != _size(w[b]):
            raise _Usage(f"--replay: {kind} witness's {a!r} and {b!r} differ in size")


def _cmd_replay(args) -> tuple[int, dict]:
    try:
        with open(args.replay, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _Usage(f"--replay: {args.replay} is not a JSON file ({exc})") from None
    if isinstance(data, dict) and "kind" in data:  # a bare witness
        witnesses = [{"criterion": None, "witness": data}]
    else:
        witnesses = list(_witnesses(data))
    if not witnesses:
        raise _Usage(f"{args.replay}: no witnesses to replay")
    for item in witnesses:
        _check_witness(item["witness"])
    function_text = args.function or (data.get("function") if isinstance(data, dict) else None)
    model = None
    results = []
    confirmed = True
    for item in witnesses:
        w = item["witness"]
        if w.get("kind") == "genset-dd":
            replay = re_evaluate_genset_witness(w, tol=args.tol)
        else:
            if model is None:
                if not function_text:
                    raise _Usage("replaying this witness needs --function")
                model = _load_model(function_text, args.domain)
            replay = re_evaluate_witness(model, w, tol=args.tol)
        confirmed &= bool(replay["confirmed"])
        results.append({**item, "replay": replay})
    payload = {"replayed": results, "all_confirmed": confirmed}
    if function_text:
        payload["function"] = function_text
    return (EXIT_PASS if confirmed else EXIT_REFUTED), payload


def _cmd_oracle(args) -> tuple[int, dict]:
    model = _load_model(args.function, args.domain)
    lo, hi = _parse_sample_interval(args.interval)
    seed = _materialize_seed(args.seed)
    search = monotonicity_oracle if args.mode == "monotone" else convexity_oracle
    record = search(model, args.order, (lo, hi), trials=args.trials, seed=seed, tol=args.tol)
    payload = {
        "function": args.function,
        "order": args.order,
        "mode": args.mode,
        "interval": [lo, hi],
        "seed": seed,
        "trials": args.trials,
        "passed": record.passed,
        "configs": record.configs,
        "note": record.note,
    }
    if record.witness is not None:
        payload["witness"] = record.witness
    return (EXIT_PASS if record.passed else EXIT_REFUTED), payload


def _read_table(path: str, flag: str):
    """A points file that reads as no valid table is a usage error."""
    try:
        return read_points_file(path)
    except ValueError as exc:
        raise _Usage(f"{flag}: {exc}") from None


def _cmd_genset(args) -> tuple[int, dict]:
    f = _read_table(args.points_file, "--points-file")
    seed = _materialize_seed(args.seed)
    if args.glue_file:
        g = _read_table(args.glue_file, "--glue-file")
        rep = glue_check(f, g, args.order, samples=args.samples, seed=seed, tol=args.tol)
        payload = {
            "overlap_count": rep.overlap_count,
            "hypothesis_met": rep.hypothesis_met,
            "first": rep.first.to_jsonable(),
            "second": rep.second.to_jsonable(),
            "union": rep.union.to_jsonable(),
            "consistent": rep.consistent,
            "verdict": rep.verdict,
        }
        if not rep.consistent:
            return EXIT_NUMERICAL, payload
        return (EXIT_PASS if rep.verdict == "pass" else EXIT_REFUTED), payload
    rep = genset_check(f, args.order, samples=args.samples, seed=seed, tol=args.tol)
    payload = rep.to_jsonable()
    return (EXIT_PASS if rep.passed else EXIT_REFUTED), payload


def _cmd_counterexample(args) -> tuple[int, dict]:
    points = _parse_floats(args.points, "--points")
    poles = _parse_floats(args.aux_poles, "--aux-poles")
    x0 = None if args.x0 is None else _parse_floats(args.x0, "--x0", 1)[0]
    seed = _materialize_seed(args.seed)
    bundle = build_counterexample(
        args.order, points, poles, samples=args.samples, seed=seed, tol=args.tol
    )
    if x0 is None:
        x0 = 0.5 * sum(bundle.gap_interval)
    feas = extension_feasibility(bundle, x0, seed=seed, tol=args.tol)
    payload = {
        "bundle": bundle.to_jsonable(),
        "seed": seed,
        "feasibility": {
            "x0": feas.x0,
            "empty": feas.empty,
            "feasible_intervals": [list(iv) for iv in feas.feasible_intervals],
            "binding": feas.binding,
            "constraints": feas.constraint_count,
        },
    }
    return (EXIT_PASS if feas.empty else EXIT_REFUTED), payload


def _cmd_identity(args) -> tuple[int, dict]:
    model = _load_model(args.function, args.domain)
    nodes = _parse_floats(args.nodes, "--nodes")
    if len(nodes) < 2 or len(set(nodes)) < len(nodes) or not all(map(math.isfinite, nodes)):
        raise _Usage(f"--nodes: expected two or more distinct finite reals, got {args.nodes!r}")
    if args.mode == "convex":
        if args.base is None:
            raise _Usage("convex identity needs --base")
        base = _parse_floats(args.base, "--base", 1)[0]
        if not math.isfinite(base):
            raise _Usage(f"--base: expected a finite real, got {args.base!r}")
        report = verify_convex_identity(model, nodes, base, args.quad_order)
    elif args.base is not None:
        raise _Usage("--base is a convex-mode flag")
    else:
        report = verify_monotone_identity(model, nodes, args.quad_order)
    payload = report.to_jsonable()
    payload["tol"] = args.tol
    return (EXIT_PASS if report.max_error <= args.tol else EXIT_REFUTED), payload


def _cmd_catalog(args) -> tuple[int, dict]:
    entries = []
    for entry in catalog():
        truth = entry.truth

        def order(v: float):
            return "inf" if math.isinf(v) else int(v)

        entries.append(
            {
                "key": entry.key,
                "interval": list(entry.interval),
                "max_monotone": order(truth.max_monotone),
                "max_convex": order(truth.max_convex),
                "monotone_note": truth.monotone_note,
                "convex_note": truth.convex_note,
            }
        )
    return EXIT_PASS, {"catalog": entries}


class _Usage(Exception):
    pass


_HANDLERS = {
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "genset": _cmd_genset,
    "counterexample": _cmd_counterexample,
    "identity": _cmd_identity,
    "catalog": _cmd_catalog,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_fold_dash_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        code, payload = _HANDLERS[args.command](args)
    except (_Usage, ParseError, argparse.ArgumentTypeError, FileNotFoundError,
            NarrowIntervalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _emit(payload, args)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
