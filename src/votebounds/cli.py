"""Command line front end.

Exit codes: 0 on success, 1 when inputs fail validation or an instance
is too large for the requested method, 2 on usage errors. An instance
past the enumeration cap gets the cap message from exact followed by
the remedy its subcommand accepts. Results go to
stdout, every diagnostic goes to stderr. Machine-readable output (json,
csv) carries 12 significant digits, human output 6.

Each subcommand handler returns a pair (payload, human text) and prints
nothing. main prints one of the two: the payload as JSON, rounded to 12
significant digits, under --format json, the human text otherwise.
sweep has no --format and always prints its CSV as the human text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .bounds import SWEEP_KINDS, _envelopes, counterexample_sweep, full_report
from .core import ProductBernoulli, ValidationError, _shown, fold_bias, load_panel
from .exact import DEFAULT_N_MAX, EnumerationLimitError, affinity, optimal_error
from .montecarlo import estimate_min_mass, simulate_error
from .rule import _decides_one, build_rule

__all__ = ["main"]


class _UsageError(Exception):
    """Flag combination that argparse alone cannot reject."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors echo each argument through
    core._shown, as the type checkers here do, so a long one is cut to
    80 characters; the lists of valid choices print whole."""

    _args: tuple = ()

    def parse_known_args(self, args=None, namespace=None):
        # argparse hands each subcommand's parser its own arguments here
        self._args = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # an --option=value argument may be echoed as its value alone
        for text in (t for arg in self._args for t in (arg, arg.partition("=")[2])):
            message = message.replace(repr(text), _shown(text)).replace(text, _shown(text, str))
        super().error(message)


def _fmt(x: float, sig: int) -> str:
    return f"{x:.{sig}g}"


def _round(obj, sig: int):
    """obj with every float rounded to sig significant digits, and every
    non-finite one as None, so the JSON stays strict."""
    if isinstance(obj, float):
        return float(_fmt(obj, sig)) if math.isfinite(obj) else None
    if isinstance(obj, list):
        return [_round(v, sig) for v in obj]
    if isinstance(obj, dict):
        return {k: _round(v, sig) for k, v in obj.items()}
    return obj


def _table(payload: dict) -> str:
    width = max(map(len, payload))
    lines = []
    for key, value in payload.items():
        if value is None:
            text = "n/a"
        elif isinstance(value, float):
            text = _fmt(value, 6)
        elif isinstance(value, list):
            text = " ".join(_fmt(v, 6) for v in value)
        else:
            text = str(value)
        lines.append(f"{key:<{width}}  {text}")
    return "\n".join(lines)


def _csv_floats(text: str):
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_shown(text)} is not a comma-separated list of numbers")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _bits(text: str):
    if not text or any(c not in "01" for c in text):
        raise argparse.ArgumentTypeError(f"{_shown(text)} is not a string over 0 and 1")
    return [int(c) for c in text]


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_shown(text)} is not an integer")


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {_shown(value, str)}")
    return value


def _cmd_validate(args):
    panel = load_panel(args.panel)
    payload = {"psi": panel.psi.tolist(), "eta": panel.eta.tolist(), "p_y": panel.p_y}
    return payload, json.dumps(_round(payload, 6))


def _cmd_decide(args):
    panel = load_panel(args.panel)
    score = build_rule(panel).score(args.x)
    decision = int(_decides_one(score))
    return {"decision": decision, "score": score}, str(decision)


def _cmd_error(args):
    if args.method == "mc":
        if args.n_max is not None:
            raise _UsageError("--n-max requires --method exact")
    elif args.trials is not None or args.seed is not None or args.threads is not None:
        raise _UsageError("--trials, --seed and --threads require --method mc")
    folded = fold_bias(load_panel(args.panel))
    if args.method == "mc":
        trials = args.trials if args.trials is not None else 1_000_000
        seed = args.seed if args.seed is not None else 0
        workers = args.threads if args.threads is not None else 1
        est, se = estimate_min_mass(
            folded.law_given_one(), folded.law_given_zero(),
            trials, seed, workers=workers,
        )
        value, std_error = 0.5 * est, 0.5 * se
        payload = {
            "error": value, "std_error": std_error, "method": "mc",
            "trials": trials, "seed": seed, "n": folded.n,
        }
        return payload, f"{_fmt(value, 6)} (std_error {_fmt(std_error, 6)})"
    n_max = args.n_max if args.n_max is not None else DEFAULT_N_MAX
    value = optimal_error(folded, n_max=n_max)
    return {"error": value, "method": "exact", "n": folded.n}, _fmt(value, 6)


def _cmd_bounds(args):
    panel = load_panel(args.panel)
    payload = full_report(panel, with_exact=args.with_exact, n_max=args.n_max).to_dict()
    return payload, _table(payload)


def _cmd_tv(args):
    P = ProductBernoulli(args.p)
    Q = ProductBernoulli(args.q)
    result = affinity(P, Q, n_max=args.n_max)
    hell_lower, hell_upper = _envelopes(P, Q)
    payload = {
        "n": result.n,
        "tv": result.tv,
        "min_mass": result.min_mass,
        "bhattacharyya": result.bhattacharyya,
        "hellinger_lower": hell_lower,
        "hellinger_upper": hell_upper,
        "method": "enumeration",
    }
    return payload, _table(payload)


def _cmd_sweep(args):
    lines = ["eps,exact,bound,ratio"]
    for row in counterexample_sweep(args.kind, args.eps):
        lines.append(",".join(_fmt(v, 12) for v in dataclasses.astuple(row)))
    return None, "\n".join(lines)


def _cmd_simulate(args):
    panel = load_panel(args.panel)
    result = simulate_error(panel, args.trials, args.seed, workers=args.threads)
    return dataclasses.asdict(result), (
        f"{_fmt(result.empirical_error, 6)} "
        f"(std_error {_fmt(result.std_error, 6)}, trials {result.trials}, "
        f"seed {result.seed})"
    )


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("human", "json"), default="human",
                     help="output format (default human)")


def _add_threads(sub, default=1, only="") -> None:
    sub.add_argument("--threads", type=_positive_int, default=default, metavar="T",
                     help=f"Monte Carlo worker threads ({only}default 1)")


def _add_n_max(sub, default=DEFAULT_N_MAX, only="") -> None:
    sub.add_argument("--n-max", dest="n_max", type=_positive_int,
                     default=default, metavar="K",
                     help="enumeration cap: refuse a panel whose reduced table has "
                          f"more than 2^K points ({only}default {DEFAULT_N_MAX})")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="votebounds",
        description="Optimal aggregation of independent binary experts: "
                    "exact error, bounds, Monte Carlo.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check a panel file and echo it normalized")
    sub.add_argument("panel", help="path to a JSON panel file")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_validate)

    sub = commands.add_parser("decide", help="apply the optimal rule to one vote vector")
    sub.add_argument("panel", help="path to a JSON panel file")
    sub.add_argument("--x", type=_bits, required=True, metavar="BITS",
                     help="votes as a string over {0,1}, expert 1 leftmost")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_decide)

    sub = commands.add_parser("error", help="error probability of the optimal rule")
    sub.add_argument("panel", help="path to a JSON panel file")
    sub.add_argument("--method", choices=("exact", "mc"), default="exact",
                     help="exact enumeration, refused past the cap, or Monte Carlo "
                          "(default exact)")
    sub.add_argument("--trials", type=_positive_int, default=None, metavar="N",
                     help="Monte Carlo trials (mc only, default 1000000)")
    sub.add_argument("--seed", type=_int, default=None, metavar="S",
                     help="Monte Carlo seed (mc only, default 0)")
    # None marks a flag not given, which --method must allow
    _add_n_max(sub, None, "exact only, ")
    _add_threads(sub, None, "mc only, ")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_error,
                     remedy="pass --method mc, without --n-max, to estimate instead")

    sub = commands.add_parser("bounds", help="evaluate every applicable bound")
    sub.add_argument("panel", help="path to a JSON panel file")
    sub.add_argument("--with-exact", action="store_true",
                     help="also run the exact enumeration")
    _add_n_max(sub)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_bounds, remedy="drop --with-exact or raise --n-max")

    sub = commands.add_parser("tv", help="distances between two product Bernoulli laws")
    sub.add_argument("--p", type=_csv_floats, required=True, metavar="P1,P2,...",
                     help="first law's coordinate probabilities")
    sub.add_argument("--q", type=_csv_floats, required=True, metavar="Q1,Q2,...",
                     help="second law's coordinate probabilities")
    _add_n_max(sub)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_tv, remedy="raise --n-max")

    sub = commands.add_parser("sweep", help="trace the showcase panels over an eps grid (CSV)")
    sub.add_argument("--kind", choices=SWEEP_KINDS, required=True,
                     help="asym: mismatched two-expert pair, overlap eps^2; "
                          "sym: matched weak pair, overlap 2 eps")
    sub.add_argument("--eps", type=_csv_floats, required=True, metavar="E1,E2,...",
                     help="grid of eps values in [2^-53, 1)")
    sub.set_defaults(handler=_cmd_sweep, format="human")

    sub = commands.add_parser("simulate", help="simulate the generative process")
    sub.add_argument("panel", help="path to a JSON panel file")
    sub.add_argument("--trials", type=_positive_int, required=True, metavar="N")
    sub.add_argument("--seed", type=_int, required=True, metavar="S")
    _add_threads(sub)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:  # echoed as one value, so their number is cut too
            parser.error(f"unrecognized arguments: {_shown(' '.join(extras), str)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, text = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except EnumerationLimitError as exc:
        print(f"error: {exc}; {args.remedy}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_round(payload, 12)) if args.format == "json" else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
