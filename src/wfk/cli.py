"""Command-line interface: group/McKay data emission, series expansion and
the named verification suites.

Exit codes: 0 success (and all probes equal), 2 a verification suite failed,
1 usage or input error.  Output is deterministic: keys sorted, exact numbers
rendered as strings, no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .budget import BudgetExceeded, budget_override
from .groups import builtin_group
from .report import VerificationReport

USAGE_ERROR = 1
SUITE_FAILURE = 2


def emit(payload, fmt: str = "json") -> str:
    """Serialize a report/table/dict deterministically."""
    if isinstance(payload, VerificationReport):
        payload = payload.to_json()
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if isinstance(payload, dict) and "probes" in payload:
            writer.writerow(["probe", "lhs", "rhs", "equal"])
            for p in payload["probes"]:
                writer.writerow([p["probe"], p["lhs"], p["rhs"], p["equal"]])
            writer.writerow(["pass", payload["pass"], "", ""])
        elif isinstance(payload, dict) and "matrix" in payload:
            for row in payload["matrix"]:
                writer.writerow(row)
        elif isinstance(payload, dict):
            for k in sorted(payload):
                writer.writerow([k, payload[k]])
        else:
            for row in payload:
                writer.writerow(row if isinstance(row, (list, tuple)) else [row])
        return buf.getvalue()
    if fmt == "pretty":
        if isinstance(payload, dict) and "probes" in payload:
            lines = [f"suite: {payload['suite']}"]
            for p in payload["probes"]:
                mark = "ok " if p["equal"] else "FAIL"
                lines.append(f"  [{mark}] {p['probe']}")
            lines.append(f"pass: {payload['pass']}")
            return "\n".join(lines) + "\n"
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers: each returns the payload that `run` prints -----------

def _cmd_group(args):
    return builtin_group(args.builtin).to_json()


def _cmd_wreath_classes(args):
    from .wreath import enumerate_types
    return [t.to_json() for t in enumerate_types(builtin_group(args.group), args.n)]


def _cmd_mckay(args):
    from .mckay import mckay_data
    return mckay_data(builtin_group(args.group)).to_json()


def _cmd_chartable(args):
    return builtin_group(args.group).character_table().to_json()


def _cmd_fock(args):
    from .fock import heisenberg_check, load_model, virasoro_check
    check = {"heisenberg": heisenberg_check, "virasoro": virasoro_check}[args.suite]
    return check(load_model(args.model), args.modes, args.cutoff)


def _series_euler(args):
    from .series import euler_product
    return [str(c) for c in euler_product(args.e, args.order).q_coefficients_scalar()]


def _series_gottsche(args):
    from .series import gottsche_poincare
    betti = tuple(int(x) for x in args.betti.split(","))
    if len(betti) != 5:
        raise ValueError("--betti expects five comma-separated integers")
    series = gottsche_poincare(betti, args.order)
    return {
        f"q^{n}": {"t^" + str(e[0]): str(c) for e, c in sorted(series.q_coefficient(n).items())}
        for n in range(args.order + 1)
    }


def _series_hodge(args):
    from .series import hodge_product
    entries = {}
    for item in args.h.split(";"):
        st, val = item.split("=")
        s, t = st.split(",")
        entries[(int(s), int(t))] = int(val)
    series = hodge_product(entries, args.order)
    return {
        f"q^{n}": {f"x^{e[0]}y^{e[1]}": str(c)
                   for e, c in sorted(series.q_coefficient(n).items())}
        for n in range(args.order + 1)
    }


def _series_orbifold_euler(args):
    from .series import GSet, swap_action, wreath_orbifold_euler_check
    G = builtin_group(args.group)
    S = swap_action(G, args.points) if args.swap else GSet.trivial(G, args.points)
    return wreath_orbifold_euler_check(S, args.nmax)


def _verify_heisenberg(args):
    from .wreath import heisenberg_check
    return heisenberg_check(builtin_group(args.group), args.modes, args.levels)


def _verify_heisenberg_transport(args):
    from .charmap import verify_heisenberg_transport
    return verify_heisenberg_transport(builtin_group(args.group), args.modes)


def _verify_conv_cubic(args):
    from .charmap import verify_conv_cubic
    return verify_conv_cubic(args.n)


def _verify_fw_virasoro(args):
    from .charmap import fw_virasoro_check
    return fw_virasoro_check(builtin_group(args.group), args.klass, args.modes, args.levels)


def _verify_lehn_sorger(args):
    from .charmap import lehn_sorger_check
    return lehn_sorger_check(args.n)


def _verify_koszul_thom(args):
    from .mckay import koszul_thom_check
    return koszul_thom_check(builtin_group(args.group), args.n)


def _verify_eq_sign(args):
    from .charmap import verify_eq_sign
    return verify_eq_sign(builtin_group(args.group), args.n)


def _size(text: str) -> int:
    """argparse type of the size options: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


_VERIFY_OPTIONS = {
    "--group": dict(default="builtin:cyclic:2"),
    "--modes": dict(type=_size, default=1),
    "--levels": dict(type=_size, default=2),
    "--n": dict(type=_size, default=3),
    "--class": dict(dest="klass", type=int, default=None,
                    help="conjugacy class index (default: the first nontrivial "
                         "self-inverse class, else 0)"),
}

# each suite declares exactly the options its handler reads
_VERIFY_SUITES = {
    "heisenberg": (_verify_heisenberg, ("--group", "--modes", "--levels")),
    "heisenberg-transport": (_verify_heisenberg_transport, ("--group", "--modes")),
    "conv-cubic": (_verify_conv_cubic, ("--n",)),
    "fw-virasoro": (_verify_fw_virasoro, ("--group", "--modes", "--levels", "--class")),
    "lehn-sorger": (_verify_lehn_sorger, ("--n",)),
    "koszul-thom": (_verify_koszul_thom, ("--group", "--n")),
    "eq-sign": (_verify_eq_sign, ("--group", "--n")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfk",
        description="Exact wreath-product / Fock-space computational algebra. "
                    "The WFK_BUDGET environment variable overrides the "
                    "element-count ceiling for brute-force loops.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name, fn, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.add_argument("--emit", help="write output to this file instead of stdout")
        fmt = p.add_mutually_exclusive_group()
        for const, text in (("json", "JSON output (default)"), ("csv", "CSV output"),
                           ("pretty", "human-readable output")):
            fmt.add_argument(f"--{const}", dest="fmt", action="store_const", const=const,
                             help=text)
        p.add_argument("--budget", type=int, default=None,
                       help="element-count ceiling for brute-force loops "
                            "(default 50000; equivalent to WFK_BUDGET)")
        p.set_defaults(fn=fn, fmt="json")
        return p

    p = leaf(sub, "group", _cmd_group, help="emit a builtin group as JSON")
    p.add_argument("--builtin", required=True, help="e.g. binary-dihedral:3")

    p = leaf(sub, "wreath-classes", _cmd_wreath_classes, help="enumerate types of Gamma_n")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=_size, required=True)

    p = leaf(sub, "mckay", _cmd_mckay, help="emit Cartan matrix, marks and affine type")
    p.add_argument("--group", required=True)

    p = leaf(sub, "chartable", _cmd_chartable, help="emit the exact character table")
    p.add_argument("--group", required=True)

    fock_sub = sub.add_parser("fock", help="fock-space verification suites").add_subparsers(
        dest="fock_cmd", required=True)
    p = leaf(fock_sub, "verify", _cmd_fock)
    p.add_argument("--model", required=True, help="model JSON path or builtin:<name>")
    p.add_argument("--suite", required=True, choices=["virasoro", "heisenberg"])
    p.add_argument("--cutoff", type=_size, default=3)
    p.add_argument("--modes", type=_size, default=2)

    ss = sub.add_parser("series", help="generating-function expansions").add_subparsers(
        dest="series_cmd", required=True)
    p = leaf(ss, "euler", _series_euler)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--order", type=_size, required=True)
    p = leaf(ss, "gottsche", _series_gottsche)
    p.add_argument("--betti", required=True, help="five comma-separated Betti numbers")
    p.add_argument("--order", type=_size, required=True)
    p = leaf(ss, "hodge", _series_hodge)
    p.add_argument("--h", required=True, help="entries like '0,0=1;1,1=1;2,2=1'")
    p.add_argument("--order", type=_size, required=True)
    p = leaf(ss, "orbifold-euler", _series_orbifold_euler)
    p.add_argument("--group", required=True)
    p.add_argument("--points", type=_size, default=1)
    p.add_argument("--nmax", type=_size, default=4)
    p.add_argument("--swap", action="store_true",
                   help="use the two-point swap action instead of the trivial one")

    vs = sub.add_parser("verify", help="named theorem-verification suites").add_subparsers(
        dest="suite", required=True)
    for name, (fn, flags) in _VERIFY_SUITES.items():
        p = leaf(vs, name, fn)
        for flag in flags:
            p.add_argument(flag, **_VERIFY_OPTIONS[flag])

    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        with budget_override(args.budget):
            payload = args.fn(args)
            _write(emit(payload, args.fmt), args.emit)
    except (ValueError, KeyError, OSError, BudgetExceeded) as exc:
        print(f"wfk: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if isinstance(payload, VerificationReport) and not payload.passed:
        return SUITE_FAILURE
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
