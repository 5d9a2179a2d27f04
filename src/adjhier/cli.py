"""Command-line interface: sequences, tables, profiles, and verification.

Every output format renders counts as decimal strings; nothing is ever
routed through floating point.  Identical invocations produce byte
identical output.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from decimal import Context, Decimal

from . import oracle, verify
from .asymptotics import constant_C, relative_tail
from .bounded import (BoundFunction, changed_indices, compute_bounded_table,
                      compute_minbounded)
from .cache import load_table, save_table
from .errors import BoundFunctionError, CacheError, ResourceCapError
from .numstr import decimal_str
from .recurrence import a_sequence, c_sequence, compute_b_table
from .refinements import (compute_atoms_table, compute_d_table,
                          compute_r_table, d_profile, r_profile)
from .variants import HierarchySpec


def parse_bound_function(spec: str) -> BoundFunction:
    """The --f mini-language: identity|half|sqrt|log2|file:<path>.

    A file holds one natural per line: f(0), f(1), ...; blank lines are
    skipped, a line that is not a natural is reported with its 1-based
    line number, and sublinearity is validated up front and reported
    with the first offending index.
    """
    if spec in ("identity", "half", "sqrt", "log2"):
        return BoundFunction(spec)
    if spec.startswith("file:"):
        path = spec[5:]
        values = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value = int(line)
                except ValueError:
                    raise BoundFunctionError(
                        f"{path}:{lineno}: not an integer: {line[:40]!r}"
                    ) from None
                if value < 0:
                    raise BoundFunctionError(
                        f"{path}:{lineno}: negative value {value}")
                values.append(value)
        return BoundFunction("table", tuple(values))
    raise BoundFunctionError(f"unknown bound function spec {spec!r}")


@dataclass(frozen=True)
class CommandSpec:
    """Everything a run depends on; replays are reproducible from this."""

    subcommand: str
    n_max: int = 0
    u: int = 0
    f_spec: str = "identity"
    t_range: str | None = None
    digits: int = 30
    fmt: str = "json"
    cache: str | None = None
    skip_duplicates: bool = False
    variant: str = "plain"
    dump: str | None = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "CommandSpec":
        # a subcommand's parser sets only its own options
        return cls(**vars(args))


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit_rows(fmt: str, header, rows) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    return "\n".join("\t".join(r) for r in rows) + "\n"


def _cached_table(cmd: CommandSpec, want, compute):
    """Load the cached table if it holds ``want`` (a count table's spec or
    a refinement kind) to depth n_max, else compute and (re)write it."""
    if cmd.cache and os.path.exists(cmd.cache):
        table = load_table(cmd.cache, (want, cmd.n_max))
        if table is not None:
            return table
    table = compute()
    if cmd.cache:
        save_table(cmd.cache, table)
    return table


def _parse_t_range(spec, n_max):
    if spec is None:
        return 0, n_max
    lo, _, hi = spec.partition(":")
    lo, hi = int(lo or 0), int(hi or n_max)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad t-range {spec!r}")
    return lo, hi


# -- subcommand bodies -------------------------------------------------------

def _plain_table(cmd: CommandSpec):
    return _cached_table(cmd, HierarchySpec.plain(),
                         lambda: compute_b_table(cmd.n_max))


def _run_levels(cmd: CommandSpec):
    a = [decimal_str(v) for v in a_sequence(_plain_table(cmd))]
    if cmd.fmt == "json":
        return 0, _emit_json({"command": "levels", "variant": "plain",
                              "n_max": str(cmd.n_max), "a": a})
    rows = [(str(n), v) for n, v in enumerate(a)]
    return 0, _emit_rows(cmd.fmt, ["n", "a_n"], rows)


def _run_table(cmd: CommandSpec):
    rows = [[decimal_str(v) for v in row] for row in _plain_table(cmd).rows]
    if cmd.fmt == "json":
        return 0, _emit_json({"command": "table", "n_max": str(cmd.n_max),
                              "rows": rows})
    header = ["n"] + [f"m={m}" for m in range(-1, cmd.n_max)]
    out = [[str(n)] + row + [""] * (cmd.n_max + 1 - len(row))
           for n, row in enumerate(rows)]
    return 0, _emit_rows(cmd.fmt, header, out)


def _run_profile(cmd: CommandSpec):
    if cmd.subcommand == "rank-profile":
        kind, label = "rank", "r"
        compute = lambda: compute_r_table(cmd.n_max)
        profile = r_profile
    else:
        kind, label = "cardinality", "d"
        compute = lambda: compute_d_table(cmd.n_max)
        profile = d_profile
    table = _cached_table(cmd, kind, compute)
    lo, hi = _parse_t_range(cmd.t_range, cmd.n_max)
    profiles = []
    for n in range(cmd.n_max + 1):
        hist = profile(table, n)
        profiles.append([decimal_str(hist[t])
                         for t in range(lo, min(hi, n) + 1)])
    if cmd.fmt == "json":
        return 0, _emit_json({
            "command": cmd.subcommand, "n_max": str(cmd.n_max),
            "t_range": f"{lo}:{hi}", "profiles": profiles})
    header = ["n"] + [f"{label}^{t}" for t in range(lo, hi + 1)]
    rows = [[str(n)] + p + [""] * (hi - lo + 1 - len(p))
            for n, p in enumerate(profiles)]
    return 0, _emit_rows(cmd.fmt, header, rows)


def _run_atoms(cmd: CommandSpec):
    table = _cached_table(cmd, HierarchySpec.atoms(cmd.u),
                          lambda: compute_atoms_table(cmd.u, cmd.n_max))
    sizes = [decimal_str(v) for v in table.sizes]
    if cmd.fmt == "json":
        return 0, _emit_json({"command": "atoms", "u": str(cmd.u),
                              "n_max": str(cmd.n_max), "sizes": sizes})
    rows = [(str(n), v) for n, v in enumerate(sizes)]
    return 0, _emit_rows(cmd.fmt, ["n", "size"], rows)


def _run_bounded(cmd: CommandSpec):
    """Both bounded subcommands: ``bounded`` with its --f, ``minbounded``."""
    if cmd.subcommand == "bounded":
        f = parse_bound_function(cmd.f_spec)
        table = _cached_table(cmd, HierarchySpec.bounded(f),
                              lambda: compute_bounded_table(f, cmd.n_max))
        doc, column = {"f": cmd.f_spec}, "a_f_n"
    else:
        table = _cached_table(cmd, HierarchySpec.min_bounded(),
                              lambda: compute_minbounded(cmd.n_max))
        doc, column = {}, "a_bar_n"
    indices = (changed_indices(table.a) if cmd.skip_duplicates
               else range(cmd.n_max + 1))
    rows = [[str(n), decimal_str(table.a[n])] for n in indices]
    if cmd.fmt == "json":
        return 0, _emit_json(dict(
            doc, command=cmd.subcommand, n_max=str(cmd.n_max),
            skip_duplicates=cmd.skip_duplicates, rows=rows))
    return 0, _emit_rows(cmd.fmt, ["n", column], rows)


def _run_constant(cmd: CommandSpec):
    # only certified digits are printed; the tail bound is a floor under
    # the radius (C_N >= 1), so it refuses before any work at --digits
    if cmd.digits < 1:
        raise ValueError(f"--digits must be at least 1, got {cmd.digits}")
    c = c_sequence(compute_b_table(cmd.n_max))
    limit = Decimal((0, (1,), -cmd.digits))
    radius = relative_tail(c)
    if radius <= limit:
        est = constant_C(c, cmd.digits)
        radius = est.C_value.error
    if radius > limit:
        raise ValueError(f"--n {cmd.n_max} leaves an error radius of at "
                         f"least {radius}, above {limit}; use a larger --n")
    shown = Context(prec=cmd.digits).plus(est.C_value.value)
    doc = {
        "C": str(shown),
        "digits": str(cmd.digits),
        "terms_used": str(est.terms_used),
        "truncation_bound": str(est.truncation_bound.upper()),
        "error_radius": str(est.C_value.error),
    }
    if cmd.fmt == "json":
        return 0, _emit_json(doc)
    rows = [[k, v] for k, v in doc.items()]
    return 0, _emit_rows(cmd.fmt, ["key", "value"], rows)


def _run_oracle_verify(cmd: CommandSpec):
    n = cmd.n_max  # None when --n is not given; 0 is a depth
    if cmd.variant == "plain":
        ls, checks = verify.verify_plain(5 if n is None else n)
    elif cmd.variant == "atoms":
        ls, checks = verify.verify_atoms(cmd.u, 4 if n is None else n)
    elif cmd.variant == "bounded":
        f = parse_bound_function(cmd.f_spec)
        ls, checks = verify.verify_bounded(f, 9 if n is None else n)
    elif cmd.variant == "minbounded":
        ls, checks = verify.verify_minbounded(5 if n is None else n)
    else:
        raise ValueError(f"unknown variant {cmd.variant!r}")
    if cmd.dump:
        _dump_levels(cmd.dump, ls, checks)
    ok = all(c.ok for c in checks)
    doc = oracle.summary(ls, [c.as_dict() for c in checks])
    if cmd.fmt == "json":
        return (0 if ok else 1), _emit_json(doc)
    if cmd.fmt == "csv":
        rows = [[c.name, "ok" if c.ok else "FAIL", c.detail] for c in checks]
        return (0 if ok else 1), _emit_rows(
            "csv", ["check", "status", "detail"],
            [[f.replace(",", ";") for f in r] for r in rows])
    lines = [f"sizes: {' '.join(doc['sizes'])}"]
    lines += [f"{'ok  ' if c.ok else 'FAIL'} {c.name}"
              + (f" ({c.detail})" if c.detail else "") for c in checks]
    return (0 if ok else 1), "\n".join(lines) + "\n"


def _dump_levels(path, ls, checks):
    os.makedirs(path, exist_ok=True)
    for n in range(ls.depth + 1):
        with open(os.path.join(path, f"level_{n:02d}.txt"), "w") as fh:
            for line in oracle.level_lines(ls, n):
                fh.write(line + "\n")
    with open(os.path.join(path, "summary.json"), "w") as fh:
        fh.write(_emit_json(oracle.summary(ls, [c.as_dict() for c in checks])))


_RUNNERS = {
    "levels": _run_levels,
    "table": _run_table,
    "rank-profile": _run_profile,
    "card-profile": _run_profile,
    "atoms": _run_atoms,
    "bounded": _run_bounded,
    "minbounded": _run_bounded,
    "constant": _run_constant,
    "oracle-verify": _run_oracle_verify,
}


def run(cmd: CommandSpec):
    """Dispatch one command; returns (exit_code, output text)."""
    return _RUNNERS[cmd.subcommand](cmd)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjhier",
        description="Exact enumeration of adjunction-built hierarchies "
                    "of hereditarily finite sets.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, n_default=None, cacheable=True):
        p.add_argument("--n", dest="n_max", metavar="N", type=int,
                       default=n_default, help="depth (n_max)")
        p.add_argument("--format", dest="fmt",
                       choices=("json", "csv", "plain"), default="json")
        if cacheable:
            p.add_argument("--cache", help="table cache file path")

    p = sub.add_parser("levels", help="cumulative level sizes a(n)")
    common(p, n_default=9)
    p = sub.add_parser("table", help="the full b(n, m) triangle")
    common(p, n_default=9)
    p = sub.add_parser("rank-profile", help="counts by classical rank")
    common(p, n_default=7)
    p.add_argument("--t-range", dest="t_range", help="rank window LO:HI")
    p = sub.add_parser("card-profile", help="counts by cardinality")
    common(p, n_default=6)
    p.add_argument("--t-range", dest="t_range", help="cardinality window LO:HI")
    p = sub.add_parser("atoms", help="level sizes with u atoms")
    common(p, n_default=5)
    p.add_argument("--u", type=int, default=1, help="number of atoms")
    p = sub.add_parser("bounded", help="level sizes with a bound function")
    common(p, n_default=29)
    p.add_argument("--f", dest="f_spec", metavar="F", default="half",
                   help="identity|half|sqrt|log2|file:<path>")
    p.add_argument("--skip-duplicates", action="store_true",
                   help="omit rows whose size did not change")
    p = sub.add_parser("minbounded", help="minimally bounded level sizes")
    common(p, n_default=45)
    p.add_argument("--skip-duplicates", action="store_true")
    p = sub.add_parser("constant", help="certified growth constant")
    p.add_argument("--n", dest="n_max", metavar="N", type=int, default=12,
                   help="levels used: C is estimated by c(n)**(2**-n)")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "plain"),
                   default="json")
    p = sub.add_parser("oracle-verify",
                       help="brute-force levels vs the recurrences")
    p.add_argument("--variant",
                   choices=("plain", "atoms", "bounded", "minbounded"),
                   default="plain")
    p.add_argument("--n", dest="n_max", metavar="N", type=int, default=None)
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--f", dest="f_spec", metavar="F", default="half")
    p.add_argument("--dump", help="write level listings into this directory")
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "plain"),
                   default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = CommandSpec.from_args(args)
    try:
        code, text = run(cmd)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (BoundFunctionError, CacheError, ValueError, IndexError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
