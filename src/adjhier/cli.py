"""Command-line interface: sequences, tables, profiles, and verification.

Each subcommand body returns an exit code, a JSON document, a CSV
header and rows; one emitter, ``_emit``, yields the text of every format
in chunks, and ``main`` writes them to stdout in batches of about 64k
characters.  The long listings are views whose rows are rendered only
as they are written, so a listing is never held whole; every refusal,
the output budget included, comes before the first byte.  A value's text
is held once: a row whose digits may fill a batch is itself a view,
written value by value, and a value that long goes to stdout as it was
rendered, neither quoted into a copy, joined into its row nor gathered
into a batch.  Every output format renders counts as decimal strings;
nothing is ever routed through floating point.  Identical invocations
produce byte identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage error or output that cannot be written, 3 resource cap.

Most commands finish in well under a second, so start-up counts: a
command imports only the layers it runs.  This module loads argparse,
``errors``, ``numstr``, ``variants`` and ``recurrence``; each runner
imports the rest when it is called: ``oracle`` and ``verify`` for
oracle-verify, ``asymptotics`` and :mod:`decimal` for constant,
``refinements`` for the profiles and atoms, ``bounded`` for bounded and
minbounded, ``cache`` only when ``--cache`` is given, and :mod:`json`
only when JSON is written.  ``--cache`` is taken by the commands that
print a count table or its level sizes (levels, table, atoms, bounded,
minbounded); the profiles always compute their refined tables.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from functools import partial
from itertools import chain, islice, repeat

from .errors import BoundFunctionError, CacheError, ResourceCapError
from .numstr import decimal_str
from .recurrence import c_sequence, compute_b_table
from .variants import BoundFunction, HierarchySpec


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


class CommandSpec(namedtuple(
        "CommandSpec", "subcommand n_max u f_spec t_range digits fmt cache "
        "skip_duplicates variant dump",
        defaults=(0, 0, "identity", None, 30, "json", None, False, "plain",
                  None))):
    """Everything a run depends on; replays are reproducible from this."""

    __slots__ = ()

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "CommandSpec":
        # a subcommand's parser sets only its own options
        return cls(**vars(args))


# Characters a listing may print, bounded before any is rendered; past
# it the command is refused with exit 3.
OUTPUT_CHAR_BUDGET = 1 << 30
# Characters a cell may add to its digits: a JSON cell's indentation,
# quotes, comma and newline, its share of its row's brackets, and a row
# index of up to 7 digits, or a CSV or plain separator.
_CELL_CHARS = 20
_BATCH_CHARS = 1 << 16  # characters gathered into one write to stdout


class _Rows(list):
    """``count`` items made by ``make()`` each time the view is iterated:
    the rows of a listing, or the values of one long row.

    ``_json`` walks it as a list of ``count`` items and ``_emit`` writes
    a row that is a view value by value, so a listing is rendered while
    it is written and never held whole, nor is a long row.  It is never
    handed to json itself, whose C encoder would read it as an empty
    list.
    """

    def __init__(self, count, make):
        super().__init__()
        self.count, self.make = count, make

    def __len__(self):
        return self.count

    def __iter__(self):
        return self.make()


def _digits(v: int) -> int:
    """A bound on len(decimal_str(v)): floor(bits * log10(2)) + 1."""
    return v.bit_length() * 30103 // 100000 + 1


def _check_output(cells: int, digits: int):
    """Refuse a listing of ``cells`` cells holding ``digits`` digits when
    its bound passes OUTPUT_CHAR_BUDGET."""
    chars = cells * _CELL_CHARS + digits
    if chars > OUTPUT_CHAR_BUDGET:
        raise ResourceCapError(
            f"the listing may take {chars} characters, past the output "
            f"budget of {OUTPUT_CHAR_BUDGET}", cap=OUTPUT_CHAR_BUDGET)


def _triangle(values: list, width: int):
    """Views of the int rows ``values`` as JSON rows and as CSV rows, each
    led by its index n and padded to ``width`` cells, rendered on demand;
    refused first when past the output budget.  A row whose digits may
    reach ``_BATCH_CHARS`` is itself a view, rendered value by value."""
    digits = [sum(map(_digits, row)) for row in values]
    _check_output(len(values) * (width + 1), sum(digits))

    def rendered():
        for row, d in zip(values, digits):
            yield ([decimal_str(v) for v in row] if d < _BATCH_CHARS
                   else _Rows(len(row), partial(map, decimal_str, row)))

    def led():
        for n, row in enumerate(rendered()):
            pad = [""] * (width - len(row))
            yield ([str(n)] + row + pad if row.__class__ is list
                   else _Rows(width + 1, partial(chain, (str(n),), row, pad)))

    return _Rows(len(values), rendered), _Rows(len(values), led)


def _json(value, nl: str, quote):
    """Chunks of ``value`` as ``json.dumps(value, indent=2,
    sort_keys=True)`` writes it, where ``nl`` is a newline and the
    indentation of ``value``.  Nonempty dicts, lists and tuples, views
    included, are walked here.  An item that is a short string, or a list
    or tuple of strings, is one chunk; a long string and a view are
    walked on their own.  Strings are quoted as json quotes them, except
    that a long string of ASCII digits, which json quotes as itself, goes
    out uncopied between two quote chunks; any other value is json's
    text, re-indented."""
    inner = nl + "  "
    if isinstance(value, str):
        if len(value) < _BATCH_CHARS or not (value.isascii()
                                             and value.isdigit()):
            yield quote(value)
        else:
            yield '"'
            yield value
            yield '"'
    elif isinstance(value, dict) and value:
        sep = "{" + inner
        for key in sorted(value):
            yield f"{sep}{quote(key)}: "
            yield from _json(value[key], inner, quote)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(value, (list, tuple)) and value:
        sep, item_nl = "[" + inner, inner + "  "
        join = ("," + item_nl).join
        for item in value:
            text = None
            if isinstance(item, str):
                if len(item) < _BATCH_CHARS:
                    text = quote(item)
            elif item.__class__ in (list, tuple) and item:  # not a view
                try:
                    text = f"[{item_nl}{join(map(quote, item))}{inner}]"
                except TypeError:  # an item that is not a string
                    pass
            if text is None:
                yield sep
                yield from _json(item, inner, quote)
            else:
                yield sep + text
            del item, text  # not kept while the next item renders
            sep = "," + inner
        yield nl + "]"
    else:
        import json
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _emit(fmt: str, doc, header, rows):
    """The one renderer: yields ``doc`` as sorted, indented JSON, or
    ``rows`` as CSV under ``header`` or as tab-separated plain lines, in
    chunks; a row that is a view is yielded value by value."""
    if fmt == "json":
        import json
        from functools import lru_cache
        # a listing repeats a value over a run of rows, and a lookup costs
        # less than quoting it again; two entries keep it beside a row
        # index and hold no more than two values of up to _BATCH_CHARS
        quote = lru_cache(2)(json.encoder.encode_basestring_ascii)
        yield from _json(doc, "\n", quote)
        yield "\n"
        return
    sep = "," if fmt == "csv" else "\t"
    if fmt == "csv":
        yield ",".join(header) + "\n"
    elif not rows:
        yield "\n"
    for r in rows:
        if r.__class__ is not _Rows:
            yield sep.join(r) + "\n"
            continue
        cells = iter(r)
        del r  # the view and its values are not kept once written
        yield next(cells, "")
        for text in cells:
            yield sep
            yield text
            del text
        yield "\n"


def _cached_table(cmd: CommandSpec, compute):
    """The count table ``compute`` fills, once, checked against the cache
    file if that holds the same table; a missing file, or one holding
    any other table, a leftover rank or cardinality table included, is
    (re)written."""
    table = compute()
    if not cmd.cache:
        return table
    from .cache import load_table, save_table
    if not (os.path.exists(cmd.cache) and load_table(cmd.cache, table)):
        save_table(cmd.cache, table)
    return table


def _parse_t_range(spec, n_max):
    if spec is None:
        return 0, n_max
    lo, _, hi = spec.partition(":")
    lo, hi = int(lo or 0), int(hi or n_max)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad t-range {spec!r}")
    if hi > n_max:
        # a level-n rank or cardinality is at most n: such columns are empty
        raise ValueError(f"t-range {spec!r} ends past --n {n_max}; "
                         f"HI may be at most {n_max}")
    return lo, hi


# -- subcommand bodies: each returns (code, doc, header, rows) for _emit ------

def _run_sizes(cmd: CommandSpec):
    """a(n) of one hierarchy: ``levels``, ``atoms``, ``bounded`` and
    ``minbounded`` differ only in fill, JSON keys and CSV column."""
    if cmd.subcommand == "levels":
        compute = compute_b_table
        doc, key, column = {"variant": "plain"}, "a", "a_n"
    elif cmd.subcommand == "atoms":
        from .refinements import compute_atoms_table
        compute = lambda n: compute_atoms_table(cmd.u, n)
        doc, key, column = {"u": str(cmd.u)}, "sizes", "size"
    elif cmd.subcommand == "bounded":
        from .bounded import compute_bounded_table
        f = parse_bound_function(cmd.f_spec)
        compute = lambda n: compute_bounded_table(f, n)
        doc, key, column = {"f": cmd.f_spec}, "rows", "a_f_n"
    else:
        from .bounded import compute_minbounded
        compute = compute_minbounded
        doc, key, column = {}, "rows", "a_bar_n"
    table = _cached_table(cmd, lambda: compute(cmd.n_max))
    runs = table.a.runs()  # level sizes never decrease
    if cmd.skip_duplicates:
        indices, runs = table.a.starts, [(v, 1) for v in table.a.values]
    else:
        indices = range(cmd.n_max + 1)
    _check_output(2 * len(indices), sum(k * _digits(v) for v, k in runs))
    # sizes never decrease, so the rows of long values come last
    short = sum(k for v, k in runs if _digits(v) < _BATCH_CHARS)

    def texts():  # each value of a run is rendered once
        for v, k in runs:
            yield from repeat(decimal_str(v), k)

    def pairs():  # the row of a long value is a view, written value by value
        values = texts()
        yield from zip(map(str, islice(indices, short)), values)
        for n in islice(indices, short, None):  # no name keeps the pair
            yield _Rows(2, (str(n), next(values)).__iter__)

    rows = _Rows(len(indices), pairs)
    if key == "rows":  # the bounded pair also report --skip-duplicates
        doc.update(skip_duplicates=cmd.skip_duplicates, rows=rows)
    else:
        doc[key] = _Rows(len(indices), texts)
    doc.update(command=cmd.subcommand, n_max=str(cmd.n_max))
    return 0, doc, ["n", column], rows


def _run_table(cmd: CommandSpec):
    table = _cached_table(cmd, lambda: compute_b_table(cmd.n_max))
    rows, out = _triangle(table.rows, cmd.n_max + 1)
    doc = {"command": "table", "n_max": str(cmd.n_max), "rows": rows}
    header = ["n"] + [f"m={m}" for m in range(-1, cmd.n_max)]
    return 0, doc, header, out


def _run_profile(cmd: CommandSpec):
    from .refinements import (compute_d_table, compute_r_table, d_profile,
                              r_profile)
    if cmd.subcommand == "rank-profile":
        label, compute, profile = "r", compute_r_table, r_profile
    else:
        label, compute, profile = "d", compute_d_table, d_profile
    table = compute(cmd.n_max)
    lo, hi = _parse_t_range(cmd.t_range, cmd.n_max)
    profiles = []
    for n in range(cmd.n_max + 1):
        hist = profile(table, n)
        profiles.append([hist[t] for t in range(lo, min(hi, n) + 1)])
    profiles, rows = _triangle(profiles, hi - lo + 1)
    doc = {"command": cmd.subcommand, "n_max": str(cmd.n_max),
           "t_range": f"{lo}:{hi}", "profiles": profiles}
    header = ["n"] + [f"{label}^{t}" for t in range(lo, hi + 1)]
    return 0, doc, header, rows


def _run_constant(cmd: CommandSpec):
    # only certified digits are printed; the tail bound is a floor under
    # the radius (C_N >= 1), so it refuses before any work at --digits
    if cmd.digits < 1:
        raise ValueError(f"--digits must be at least 1, got {cmd.digits}")
    from decimal import MAX_PREC, Context, Decimal
    if cmd.digits > MAX_PREC:  # no Decimal holds 10**-digits
        raise ValueError(f"--digits must be at most {MAX_PREC}, got "
                         f"{cmd.digits}")
    from .asymptotics import constant_C, relative_tail
    c = c_sequence(compute_b_table(cmd.n_max))
    limit = Decimal((0, (1,), -cmd.digits))
    radius = relative_tail(c)
    if radius <= limit:
        est = constant_C(c, cmd.digits, radius)
        radius = est.C_value.error
    if radius > limit:
        raise ValueError(f"--n {cmd.n_max} leaves an error radius of at "
                         f"least {radius}, above {limit}; use a larger --n")
    shown = Context(prec=cmd.digits).plus(est.C_value.value)
    doc = {
        "C": str(shown),
        "digits": str(cmd.digits),
        "terms_used": str(est.terms_used),
        "truncation_bound": str(est.truncation_bound),
        "error_radius": str(est.C_value.error),
    }
    return 0, doc, ["key", "value"], [[k, v] for k, v in doc.items()]


def _run_oracle_verify(cmd: CommandSpec):
    from . import oracle, verify
    kind, n = cmd.variant, cmd.n_max
    spec = HierarchySpec(
        kind, u=cmd.u if kind == "atoms" else 0,
        f=parse_bound_function(cmd.f_spec) if kind == "bounded" else None)
    if n is None:  # --n not given; 0 is a depth
        n = {"plain": 5, "atoms": 4, "bounded": 9, "minbounded": 5}[kind]
    ls, checks = verify.verify(spec, n)
    doc = oracle.summary(ls, [c.as_dict() for c in checks])
    if cmd.dump:
        _dump_levels(cmd.dump, ls, doc)
    if cmd.fmt == "plain":
        rows = [[f"sizes: {' '.join(doc['sizes'])}"]]
        rows += [[f"{'ok  ' if c.ok else 'FAIL'} {c.name}"
                  + (f" ({c.detail})" if c.detail else "")] for c in checks]
    else:
        rows = [[f.replace(",", ";")
                 for f in (c.name, "ok" if c.ok else "FAIL", c.detail)]
                for c in checks]
    code = 0 if all(c.ok for c in checks) else 1
    return code, doc, ["check", "status", "detail"], rows


def _dump_levels(path, ls, summary):
    from .oracle import level_lines
    os.makedirs(path, exist_ok=True)
    for n in range(ls.depth + 1):
        with open(os.path.join(path, f"level_{n:02d}.txt"), "w") as fh:
            for line in level_lines(ls, n):
                fh.write(line + "\n")
    with open(os.path.join(path, "summary.json"), "w") as fh:
        fh.writelines(_emit("json", summary, None, None))


_RUNNERS = {
    "levels": _run_sizes,
    "table": _run_table,
    "rank-profile": _run_profile,
    "card-profile": _run_profile,
    "atoms": _run_sizes,
    "bounded": _run_sizes,
    "minbounded": _run_sizes,
    "constant": _run_constant,
    "oracle-verify": _run_oracle_verify,
}


def run(cmd: CommandSpec):
    """Dispatch one command; returns (exit_code, output text)."""
    code, doc, header, rows = _RUNNERS[cmd.subcommand](cmd)
    return code, "".join(_emit(cmd.fmt, doc, header, rows))


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
    common(p, n_default=7, cacheable=False)
    p.add_argument("--t-range", dest="t_range", help="rank window LO:HI")
    p = sub.add_parser("card-profile", help="counts by cardinality")
    common(p, n_default=6, cacheable=False)
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
        code, doc, header, rows = _RUNNERS[cmd.subcommand](cmd)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        return _out_of_memory()
    except (BoundFunctionError, CacheError, ValueError, IndexError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = sys.stdout  # looked up now: callers may redirect stdout
    batch, size = [], 0
    try:
        for chunk in _emit(cmd.fmt, doc, header, rows):
            n = len(chunk)
            if n >= _BATCH_CHARS:  # a long value, written as it is
                out.write("".join(batch))
                out.write(chunk)
                batch, size = [], 0
                continue
            batch.append(chunk)
            size += n
            if size >= _BATCH_CHARS:
                out.write("".join(batch))
                batch, size = [], 0
        out.write("".join(batch))
        out.flush()
    except OSError as exc:  # a closed pipe, a full device
        # the interpreter flushes stdout again at exit: let that succeed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a listing's rows are rendered as they are written
        return _out_of_memory()
    return code


def _out_of_memory() -> int:
    print("resource cap: out of memory", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
