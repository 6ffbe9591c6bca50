"""Command-line front end.

Commands
--------
eval    evaluate a reference function (J, N, H1, H2, K) at an order and argument
series  print a series object (reducedJ, J, N, H1, H2) as term records
map     apply the truncated exponential map to a series and print the result
check   run one named identity checker; options left unset take the
        checker's own defaults, and an option the identity does not take is
        an error (exit 2)
suite   run the full identity battery; exit 0 only if every verdict passes

Reports serialize as JSON (schema 1), CSV, or text.  Output is fully
deterministic: identical invocations produce identical bytes, and floats
round-trip at full precision.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import re
import sys

from . import identities, sigmaop, sonine, specfun
from .identities import IdentityReport

def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2))
        out.write("\n")
    elif fmt == "csv":
        out.write(_to_csv(payload))
    else:
        out.write(_to_text(payload))


def _to_csv(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity_id", "residual", "tail_estimate", "tolerance", "verdict", "params", "notes"])
    for rec in rows:
        if "identity_id" in rec:
            writer.writerow(
                [
                    rec["identity_id"],
                    repr(rec["residual"]),
                    repr(rec["tail_estimate"]),
                    repr(rec["tolerance"]),
                    rec["verdict"],
                    json.dumps(rec["params"], sort_keys=True),
                    rec.get("notes", ""),
                ]
            )
        else:
            writer.writerow([json.dumps(rec, sort_keys=True)])
    return buf.getvalue()


def _to_text(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    lines = []
    for rec in rows:
        if "identity_id" in rec:
            lines.append(
                f"{rec['identity_id']:14s} {rec['verdict']:4s} residual={rec['residual']:.6e} "
                f"tol={rec['tolerance']:.1e} params={json.dumps(rec['params'], sort_keys=True)}"
                + (f"  [{rec['notes']}]" if rec.get("notes") else "")
            )
        elif "value_re" in rec:
            val = complex(rec["value_re"], rec["value_im"])
            shown = f"{val.real:.10g}" if val.imag == 0 else f"{val.real:.10g}{val.imag:+.10g}i"
            lines.append(
                f"{rec['fn']}(order={rec['order']}, arg={rec['arg']}) = {shown} "
                f"(err<={rec['err_estimate']:.2e}, effort={rec['effort']})"
            )
        elif "terms" in rec:
            lines.append(
                f"series {rec.get('family', '')} n={rec.get('n', '')} "
                f"[{rec['variable_tag']}, K_trunc={rec['K_trunc']}]"
            )
            for t in rec["terms"]:
                coef = complex(t["re"], t["im"])
                shown = f"{coef.real:+.12g}" if coef.imag == 0 else f"({coef.real:+.12g}{coef.imag:+.12g}i)"
                log_part = f"*(log u)^{t['j']}" if t["j"] else ""
                lines.append(f"  u^{t['k']}{log_part}: {shown}")
        else:
            lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


# --fn -> evaluator of (order, arg, pair name).  Z and A are the generating
# pair's functions; their order is the integer index n.
_EVALUATORS = {
    "J": lambda nu, x, pair: specfun.bessel_j(nu, x),
    "N": lambda nu, x, pair: specfun.neumann(nu, x),
    "H1": lambda nu, x, pair: specfun.hankel(1, nu, x),
    "H2": lambda nu, x, pair: specfun.hankel(2, nu, x),
    "K": lambda nu, x, pair: specfun.k_bessel(nu, x),
    "Z": lambda nu, x, pair: sonine.z_function(sonine.PAIRS[pair](), int(nu), x),
    "A": lambda nu, x, pair: sonine.a_function(sonine.PAIRS[pair](), int(nu), x),
}


def _cmd_eval(args) -> tuple[object, int]:
    fn = args.fn
    r = _EVALUATORS[fn](args.order, args.arg, args.pair)
    value = complex(r.value)
    payload = {
        "schema": 1,
        "command": "eval",
        "fn": fn,
        "order": args.order,
        "arg": args.arg,
        "value_re": value.real,
        "value_im": value.imag,
        "err_estimate": r.err_estimate,
        "effort": r.effort,
    }
    if fn in ("Z", "A"):
        payload["pair"] = args.pair
    return payload, 0


def _cmd_series(args) -> tuple[object, int]:
    s = specfun.FAMILIES[args.family][0](args.n, args.K)
    payload = {"schema": 1, "command": "series", "family": args.family, "n": args.n}
    payload.update(s.to_records())
    return payload, 0


def _cmd_map(args) -> tuple[object, int]:
    s = specfun.FAMILIES[args.family][0](args.n, args.K)
    cfg = sigmaop.SigmaConfig(
        variant=args.variant,
        shift_window=args.shift_window,
        exp_order=args.exp_order,
        lam=getattr(args, "lambda"),
    )
    mapped = sigmaop.apply_exp_sigma(s, cfg, sign=args.sign)
    payload = {
        "schema": 1,
        "command": "map",
        "family": args.family,
        "n": args.n,
        "variant": cfg.variant,
        "shift_window": cfg.shift_window,
        "exp_order": cfg.exp_order,
        "lambda": cfg.lam,
        "sign": args.sign,
    }
    payload.update(mapped.to_records())
    return payload, 0


def _cmd_check(args) -> tuple[object, int]:
    """Call the checker with the options that were set; the check options have
    no parser defaults, so unset ones are absent.  An option the checker does
    not take is an error."""
    checker = identities.CHECKERS[args.id]
    takes = inspect.signature(checker).parameters
    given = {k: tuple(v) if isinstance(v, list) else v for k, v in vars(args).items() if k in args.flags}
    foreign = [args.flags[k] for k in given if k not in takes]
    if foreign:
        raise ValueError(f"{args.id} does not take {' '.join(foreign)}")
    report: IdentityReport = checker(**given)
    return report.to_record(), 0 if report.verdict == "pass" else 1


def _cmd_suite(args) -> tuple[object, int]:
    reports = identities.run_suite()
    records = [r.to_record() for r in reports]
    ok = all(r.verdict == "pass" for r in reports)
    return records, 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="besselmap", description=__doc__.splitlines()[0])
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a reference function")
    pe.add_argument("--fn", required=True, choices=_EVALUATORS)
    pe.add_argument("--order", type=float, required=True)
    pe.add_argument("--arg", type=float, required=True)
    pe.add_argument("--pair", choices=sorted(sonine.PAIRS), default="bessel",
                    help="generating pair for Z/A (registry name)")
    pe.set_defaults(run=_cmd_eval)

    ps = sub.add_parser("series", help="print a series object")
    ps.add_argument("--family", required=True, choices=specfun.FAMILIES)
    ps.add_argument("--n", type=int, default=0)
    ps.add_argument("--K", type=int, default=16)
    ps.set_defaults(run=_cmd_series)

    pm = sub.add_parser("map", help="apply the truncated exponential map to a series")
    pm.add_argument("--family", required=True, choices=specfun.FAMILIES)
    pm.add_argument("--n", type=int, default=0)
    pm.add_argument("--K", type=int, default=16)
    pm.add_argument("--variant", choices=("z1", "z2"), default="z2")
    pm.add_argument("--shift-window", dest="shift_window", type=int, default=12)
    pm.add_argument("--exp-order", dest="exp_order", type=int, default=4)
    pm.add_argument("--lambda", type=float, default=0.0)
    pm.add_argument("--sign", type=int, choices=(1, -1), default=1)
    pm.set_defaults(run=_cmd_map)

    pc = sub.add_parser("check", help="run one identity checker", argument_default=argparse.SUPPRESS)
    pc.add_argument("--id", required=True, choices=sorted(identities.IDENTITY_IDS))
    options = [
        pc.add_argument("--z", type=float),
        pc.add_argument("--t", type=float),
        pc.add_argument("--N", type=int),
        pc.add_argument("--n", type=int),
        pc.add_argument("--j", type=int),
        pc.add_argument("--K", type=int),
        pc.add_argument("--M", type=int),
        pc.add_argument("--kind", type=int, choices=(1, 2)),
        pc.add_argument("--probes", type=float, nargs="+"),
        pc.add_argument("--jmax-list", dest="J_max_list", type=int, nargs="+"),
    ]
    # checker parameter -> its flag
    pc.set_defaults(run=_cmd_check, flags={a.dest: a.option_strings[0] for a in options})

    pu = sub.add_parser("suite", help="run the full identity battery")
    pu.set_defaults(run=_cmd_suite)
    return p


# Options whose value may be a negative number in scientific notation.
# argparse's negative-number pattern has no exponent, so it takes a bare
# "-6.4e-09" for an option flag; such a value is attached as "--order=-6.4e-09".
_SIGNED_VALUE_OPTIONS = ("--order", "--arg")
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _attach_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and _NEGATIVE_NUMBER.fullmatch(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        payload, code = args.run(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as fh:
            _emit(payload, args.format, fh)
    else:
        _emit(payload, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
