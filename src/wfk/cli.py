"""Command-line interface: group/McKay data emission, series expansion and
the named verification suites.

Exit codes: 0 success (and all probes equal), 2 a verification suite failed,
1 usage or input error.  Output is deterministic: keys sorted, exact numbers
rendered as strings, no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .budget import BudgetExceeded, budget_override
from .exact import CycNum
from .groups import FiniteGroup, builtin_group
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


def _fmt(args) -> str:
    if getattr(args, "csv", False):
        return "csv"
    if getattr(args, "pretty", False):
        return "pretty"
    return "json"


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_exit(report: VerificationReport, args) -> int:
    _write(emit(report, _fmt(args)), getattr(args, "emit", None))
    return 0 if report.passed else SUITE_FAILURE


# -- subcommand handlers -----------------------------------------------------

def _cmd_group(args) -> int:
    G = builtin_group(args.builtin)
    _write(emit(G.to_json(), _fmt(args)), args.emit)
    return 0


def _cmd_wreath_classes(args) -> int:
    from .wreath import enumerate_types
    G = builtin_group(args.group)
    types = enumerate_types(G, args.n)
    payload = [t.to_json() for t in types]
    _write(emit(payload, _fmt(args)), args.emit)
    return 0


def _cmd_mckay(args) -> int:
    from .mckay import mckay_data
    G = builtin_group(args.group)
    _write(emit(mckay_data(G).to_json(), _fmt(args)), args.emit)
    return 0


def _cmd_chartable(args) -> int:
    G = builtin_group(args.group)
    _write(emit(G.character_table().to_json(), _fmt(args)), args.emit)
    return 0


def _cmd_fock(args) -> int:
    from .fock import heisenberg_check, load_model, virasoro_check
    alg = load_model(args.model)
    if args.suite == "virasoro":
        report = virasoro_check(alg, args.modes, args.cutoff)
    elif args.suite == "heisenberg":
        report = heisenberg_check(alg, args.modes, args.cutoff)
    else:
        raise ValueError(f"unknown fock suite {args.suite!r}")
    return _report_exit(report, args)


def _cmd_series(args) -> int:
    from .series import (GSet, euler_product, gottsche_poincare, hodge_product,
                         swap_action, wreath_orbifold_euler_check)
    if args.series_cmd == "euler":
        coeffs = euler_product(args.e, args.order).q_coefficients_scalar()
        payload = [str(c) for c in coeffs]
        _write(emit(payload, _fmt(args)), args.emit)
        return 0
    if args.series_cmd == "gottsche":
        betti = tuple(int(x) for x in args.betti.split(","))
        if len(betti) != 5:
            raise ValueError("--betti expects five comma-separated integers")
        series = gottsche_poincare(betti, args.order)
        payload = {
            f"q^{n}": {"t^" + str(e[0]): str(c) for e, c in sorted(series.q_coefficient(n).items())}
            for n in range(args.order + 1)
        }
        _write(emit(payload, _fmt(args)), args.emit)
        return 0
    if args.series_cmd == "hodge":
        entries = {}
        for item in args.h.split(";"):
            st, val = item.split("=")
            s, t = st.split(",")
            entries[(int(s), int(t))] = int(val)
        series = hodge_product(entries, args.order)
        payload = {
            f"q^{n}": {f"x^{e[0]}y^{e[1]}": str(c)
                       for e, c in sorted(series.q_coefficient(n).items())}
            for n in range(args.order + 1)
        }
        _write(emit(payload, _fmt(args)), args.emit)
        return 0
    if args.series_cmd == "orbifold-euler":
        G = builtin_group(args.group)
        S = swap_action(G, args.points) if args.swap else GSet.trivial(G, args.points)
        report = wreath_orbifold_euler_check(S, args.nmax)
        return _report_exit(report, args)
    raise ValueError(f"unknown series command {args.series_cmd!r}")


def _cmd_verify(args) -> int:
    if args.suite == "heisenberg":
        from .wreath import heisenberg_check
        report = heisenberg_check(builtin_group(args.group), args.modes, args.levels)
    elif args.suite == "heisenberg-transport":
        from .charmap import verify_heisenberg_transport
        report = verify_heisenberg_transport(builtin_group(args.group), args.modes)
    elif args.suite == "conv-cubic":
        from .charmap import verify_conv_cubic
        report = verify_conv_cubic(args.n)
    elif args.suite == "fw-virasoro":
        from .charmap import fw_virasoro_check
        G = builtin_group(args.group)
        cd = G.conjugacy()
        c = args.klass if args.klass is not None else (
            next((i for i, rep in enumerate(cd.class_reps) if rep != G.identity
                  and cd.inverse_class[i] == i), 0))
        report = fw_virasoro_check(G, c, args.modes, args.levels)
    elif args.suite == "lehn-sorger":
        from .charmap import lehn_sorger_check
        report = lehn_sorger_check(args.n)
    elif args.suite == "koszul-thom":
        from .mckay import koszul_thom_check
        report = koszul_thom_check(builtin_group(args.group), args.n)
    elif args.suite == "eq-sign":
        from .charmap import ch, exponential_classes
        from .wreath import eta_eps_characters
        G = builtin_group(args.group)
        report = VerificationReport(f"eq-sign({G.name}, n<={args.n})")
        for gi, gamma in enumerate(G.character_table().irreducibles):
            for signed in (False, True):
                series = exponential_classes(G, gamma, signed, args.n)
                for n in range(args.n + 1):
                    chi = eta_eps_characters(G, n, gamma, signed)
                    lhs = ch(G, n, chi)
                    report.add(f"{'eps' if signed else 'eta'}_{n}(g{gi})",
                               lhs, series[n], lhs == series[n])
    else:
        raise ValueError(f"unknown verify suite {args.suite!r}")
    return _report_exit(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfk",
        description="Exact wreath-product / Fock-space computational algebra. "
                    "The WFK_BUDGET environment variable overrides the "
                    "element-count ceiling for brute-force loops.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--emit", help="write output to this file instead of stdout")
        p.add_argument("--json", action="store_true", help="JSON output (default)")
        p.add_argument("--csv", action="store_true", help="CSV output")
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        p.add_argument("--budget", type=int, default=None,
                       help="element-count ceiling for brute-force loops "
                            "(default 50000; equivalent to WFK_BUDGET)")

    p = sub.add_parser("group", help="emit a builtin group as JSON")
    p.add_argument("--builtin", required=True, help="e.g. binary-dihedral:3")
    common(p)
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("wreath-classes", help="enumerate types of Gamma_n")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_wreath_classes)

    p = sub.add_parser("mckay", help="emit Cartan matrix, marks and affine type")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(fn=_cmd_mckay)

    p = sub.add_parser("chartable", help="emit the exact character table")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(fn=_cmd_chartable)

    p = sub.add_parser("fock", help="fock-space verification suites")
    fock_sub = p.add_subparsers(dest="fock_cmd", required=True)
    pv = fock_sub.add_parser("verify")
    pv.add_argument("--model", required=True, help="model JSON path or builtin:<name>")
    pv.add_argument("--suite", required=True, choices=["virasoro", "heisenberg"])
    pv.add_argument("--cutoff", type=int, default=3)
    pv.add_argument("--modes", type=int, default=2)
    common(pv)
    pv.set_defaults(fn=_cmd_fock)

    p = sub.add_parser("series", help="generating-function expansions")
    ss = p.add_subparsers(dest="series_cmd", required=True)
    pe = ss.add_parser("euler")
    pe.add_argument("--e", type=int, required=True)
    pe.add_argument("--order", type=int, required=True)
    common(pe)
    pe.set_defaults(fn=_cmd_series)
    pg = ss.add_parser("gottsche")
    pg.add_argument("--betti", required=True, help="five comma-separated Betti numbers")
    pg.add_argument("--order", type=int, required=True)
    common(pg)
    pg.set_defaults(fn=_cmd_series)
    ph = ss.add_parser("hodge")
    ph.add_argument("--h", required=True, help="entries like '0,0=1;1,1=1;2,2=1'")
    ph.add_argument("--order", type=int, required=True)
    common(ph)
    ph.set_defaults(fn=_cmd_series)
    po = ss.add_parser("orbifold-euler")
    po.add_argument("--group", required=True)
    po.add_argument("--points", type=int, default=1)
    po.add_argument("--nmax", type=int, default=4)
    po.add_argument("--swap", action="store_true",
                    help="use the two-point swap action instead of the trivial one")
    common(po)
    po.set_defaults(fn=_cmd_series)

    p = sub.add_parser("verify", help="named theorem-verification suites")
    p.add_argument("suite", choices=["heisenberg", "heisenberg-transport",
                                     "conv-cubic", "fw-virasoro", "lehn-sorger",
                                     "koszul-thom", "eq-sign"])
    p.add_argument("--group", default="builtin:cyclic:2")
    p.add_argument("--modes", type=int, default=1)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--class", dest="klass", type=int, default=None,
                   help="conjugacy class index for fw-virasoro")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        with budget_override(getattr(args, "budget", None)):
            return args.fn(args)
    except (ValueError, KeyError, OSError, BudgetExceeded) as exc:
        print(f"wfk: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
