"""Streamed output: the emitter's chunks, long values and rows written as
they are, rendering each level size once, the output budget, and the
memory a listing takes, in process and in a fresh process."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from adjhier import cli
from adjhier.bounded import BoundFunction, compute_bounded_table
from adjhier.cli import _BATCH_CHARS, CommandSpec, _emit, _Rows, main
from adjhier.numstr import decimal_str
from adjhier.recurrence import compute_b_table

ROOT = Path(__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="RLIMIT_AS and ru_maxrss in KiB")

TEXT = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", '\\"', "é", " ", "\x00", "a,b\tc\n"]))
# texts of _BATCH_CHARS - 1 to + 2 characters: ASCII digits, which json
# quotes as themselves, and texts that it must still escape, Unicode
# digits ("٣", "²") among them
LONG_TEXT = st.builds(
    lambda piece, extra: (piece * _BATCH_CHARS)[:_BATCH_CHARS + extra],
    st.one_of(st.text("0123456789", min_size=1, max_size=3),
              st.text(min_size=1, max_size=3),
              st.sampled_from(['"', "\\", "\x1f", "é", "٣", "²", "9\n"])),
    st.integers(-1, 2))
DOCS = st.recursive(
    st.one_of(TEXT, LONG_TEXT, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)


def _as_views(doc):
    """``doc`` with every list replaced by a view that makes its items."""
    if isinstance(doc, dict):
        return {k: _as_views(v) for k, v in doc.items()}
    if isinstance(doc, list):
        items = [_as_views(v) for v in doc]
        return _Rows(len(items), lambda: iter(items))
    return doc


@given(doc=st.dictionaries(TEXT, DOCS, max_size=5))
def test_json_chunks_join_to_json_dumps(doc):
    expect = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "".join(_emit("json", doc, None, None)) == expect
    assert "".join(_emit("json", _as_views(doc), None, None)) == expect


@given(rows=st.lists(st.lists(st.one_of(TEXT, LONG_TEXT), max_size=4),
                     max_size=4),
       views=st.lists(st.booleans(), min_size=4, max_size=4))
def test_rows_and_long_rows_join_as_before(rows, views):
    # a row that is a view is yielded value by value
    given_rows = [_Rows(len(r), r.__iter__) if view else r
                  for r, view in zip(rows, views)]
    assert "".join(_emit("csv", None, ["n", "v"], given_rows)) == (
        "n,v\n" + "".join(",".join(r) + "\n" for r in rows))
    assert "".join(_emit("plain", None, None, given_rows)) == (
        "".join("\t".join(r) + "\n" for r in rows) or "\n")
    assert "".join(_emit("json", {"rows": given_rows}, None, None)) == (
        json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n")


def _as_lists(value):
    """``value`` with every view, list and tuple made a list."""
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


@pytest.mark.parametrize("argv", [
    ["levels", "--n", "20"],  # a(19) and a(20): 66,623 and 133,245 digits
    ["bounded", "--f", "identity", "--n", "20", "--skip-duplicates"],
    ["table", "--n", "19"],  # long rows holding long values
    ["card-profile", "--n", "16"],  # a long row of 17 short values
])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_long_listing_written_as_json_and_join_write_it(capsys, argv, fmt):
    assert main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    _, doc, header, rows = cli._RUNNERS[argv[0]](
        CommandSpec.from_args(cli.build_parser().parse_args(argv)))
    if fmt == "json":
        expect = json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"
    else:
        sep = "," if fmt == "csv" else "\t"
        lines = ([header] if fmt == "csv" else []) + _as_lists(rows)
        expect = "".join(sep.join(r) + "\n" for r in lines)
    assert out == expect
    # the listing takes both paths: rows joined whole and long rows
    assert 0 < sum(r.__class__ is _Rows for r in rows) < len(rows)


@pytest.mark.parametrize("argv", [["levels", "--n", "20"],
                                  ["table", "--n", "19"]])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_long_value_written_as_rendered(monkeypatch, argv, fmt):
    rendered, written = [], []
    render = cli.decimal_str

    def kept(v):
        rendered.append(render(v))
        return rendered[-1]

    class Sink:
        def write(self, text):
            written.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(cli, "decimal_str", kept)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(argv + ["--format", fmt]) == 0
    long_values = [t for t in rendered if len(t) >= _BATCH_CHARS]
    assert long_values
    for text in long_values:  # the very object, not a copy
        assert any(w is text for w in written)


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# What a listing may hold besides rendering its largest value, in units
# of that value's digits D: the previous value's text (D/2 here), and in
# JSON the quote cache, which keeps up to 16 short values with their
# quoted copies.  Each copy of the long value costs another D.  Python
# 3.10-3.13 measured 1.23-1.27 D in JSON and 0.69-0.80 D in CSV and
# plain, where copying each long value into its quoted text, its row and
# its batch took 2.73-2.80 D and 1.19-1.25 D.
HELD_BEYOND_RENDERING = {"json": 2, "csv": 1, "plain": 1}


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_long_value_text_held_once(monkeypatch, fmt):
    table = compute_b_table(21)
    a21 = table.a[21]
    digits = len(decimal_str(a21))  # 266,264; also imports decimal
    assert digits >= 250_000
    rendering = _traced_peak(decimal_str, a21)
    monkeypatch.setattr(cli, "compute_b_table", lambda n: table)

    class Sink:  # keeps nothing that it is given
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Sink())
    main(["levels", "--n", "3", "--format", fmt])  # the first call's imports
    peak = _traced_peak(main, ["levels", "--n", "21", "--format", fmt])
    held = (peak - rendering) / digits
    assert held < HELD_BEYOND_RENDERING[fmt], held


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_previous_value_dropped_before_next_render(monkeypatch, fmt):
    # when a(21) starts rendering, no block as large as a(20)'s text, the
    # previous value written, is alive
    table = compute_b_table(21)
    a21 = table.a[21]
    previous = len(decimal_str(table.a[20]))  # 133,245
    monkeypatch.setattr(cli, "compute_b_table", lambda n: table)
    render = cli.decimal_str
    largest = []

    def watched(v):
        if v is a21:
            largest.append(max(t.size for t in
                               tracemalloc.take_snapshot().traces))
        return render(v)

    class Sink:  # keeps nothing that it is given
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(cli, "decimal_str", watched)
    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        assert main(["levels", "--n", "21", "--format", fmt]) == 0
    finally:
        tracemalloc.stop()
    assert len(largest) == 1 and largest[0] < previous, (largest, previous)


@pytest.mark.parametrize("skip", [[], ["--skip-duplicates"]])
def test_each_distinct_level_size_rendered_once(monkeypatch, capsys, skip):
    a = compute_bounded_table(BoundFunction("log2"), 4095).a
    calls = []
    render = cli.decimal_str

    def counted(v):
        calls.append(v)
        return render(v)

    monkeypatch.setattr(cli, "decimal_str", counted)
    assert main(["bounded", "--f", "log2", "--n", "4095"] + skip) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(calls) == len(set(a)) < len(a) // 10
    kept = [n for n in range(len(a)) if not skip or n == 0 or a[n] != a[n - 1]]
    assert rows == [[str(n), str(a[n])] for n in kept]


@pytest.mark.parametrize("argv", [
    ["levels", "--n", "12"],
    ["table", "--n", "6"],
    ["rank-profile", "--n", "6", "--t-range", "2:4"],
    ["bounded", "--f", "log2", "--n", "300", "--skip-duplicates"],
])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_output_budget_refuses_before_any_byte(monkeypatch, capsys, argv,
                                               fmt):
    monkeypatch.setattr(cli, "OUTPUT_CHAR_BUDGET", 100)
    assert main(argv + ["--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("resource cap: the listing may take ")
    assert "past the output budget of 100" in captured.err


# the JSON keys around a listing, which its bound leaves out
DOC_CHARS = 160


@pytest.mark.parametrize("argv", [
    ["levels", "--n", "14"],
    ["atoms", "--u", "2", "--n", "5"],
    ["table", "--n", "12"],
    ["rank-profile", "--n", "9"],
    ["card-profile", "--n", "9", "--t-range", "3:5"],
    ["bounded", "--f", "log2", "--n", "20000"],
    ["bounded", "--f", "sqrt", "--n", "300", "--skip-duplicates"],
    ["minbounded", "--n", "300"],
])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_output_bound_covers_the_listing(monkeypatch, capsys, argv, fmt):
    bounds = []
    check = cli._check_output

    def recorded(cells, digits):
        bounds.append(cells * cli._CELL_CHARS + digits)
        return check(cells, digits)

    monkeypatch.setattr(cli, "_check_output", recorded)
    assert main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert len(bounds) == 1
    assert len(out) <= bounds[0] + DOC_CHARS


def _child(argv, limit_s, address_space=1536 << 20):
    """Run ``python -m adjhier argv`` in a child that caps its own address
    space; (exit code or None when killed, stdout bytes, stderr)."""
    code = ("import resource, runpy, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({address_space},) * 2); "
            "sys.argv[0] = 'adjhier'; "
            "runpy.run_module('adjhier', run_name='__main__')")
    proc = subprocess.Popen([sys.executable, "-c", code] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=CHILD_ENV)
    counted = [0]

    def drain():  # counted, not kept: a listing may take 600 MB
        while chunk := proc.stdout.read(1 << 20):
            counted[0] += len(chunk)

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        exit_code = proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        exit_code = None
    reader.join()
    err = proc.stderr.read().decode()
    proc.stdout.close()
    proc.stderr.close()
    return exit_code, counted[0], err


@linux_only
@pytest.mark.parametrize("argv", [
    # 1,048,576 rows, about 564 MB of CSV, rendered from 2,609 values
    ["bounded", "--f", "log2", "--n", "1048575", "--format", "csv"],
    # about 4.2 G digits: refused by the output budget after the fill
    ["bounded", "--f", "log2", "--n", "4194303"],
])
def test_long_listing_ends_cleanly_in_bounded_memory(argv):
    code, out_bytes, err = _child(argv, limit_s=15)
    assert code in (0, 3), (code, err[-500:])  # None: killed at 15 s
    assert "Traceback" not in err
    if code == 3:
        assert out_bytes == 0 and "output budget" in err


@linux_only
def test_allocation_failure_ends_cleanly():
    # the fill runs out of a 400 MB address space long before it ends
    code, out_bytes, err = _child(
        ["minbounded", "--n", "100000", "--skip-duplicates"], limit_s=10,
        address_space=400 << 20)
    assert code == 3 and out_bytes == 0, (code, err[-500:])
    assert err == "resource cap: out of memory\n"


@linux_only
@pytest.mark.parametrize("kind", ["/dev/zero", "fifo"])
def test_endless_cache_path_is_refused_unread(kind, tmp_path):
    # a cache path that is not a regular file may never end, and a FIFO
    # with no writer would block the open: both are refused with exit 2
    # before any read, well inside a 600 MB address space
    path = kind
    if kind == "fifo":
        path = str(tmp_path / "cache.fifo")
        os.mkfifo(path)
    start = time.monotonic()
    code, out_bytes, err = _child(["levels", "--n", "3", "--cache", path],
                                  limit_s=5, address_space=600 << 20)
    assert code == 2 and out_bytes == 0, (code, err[-500:])
    assert time.monotonic() - start < 5
    assert "Traceback" not in err and "not a regular file" in err


@linux_only
@pytest.mark.parametrize("kind", ["/dev/zero", "fifo"])
def test_endless_bound_file_is_refused_unread(kind, tmp_path):
    # the same for a --f file: path, which the bound parser would read
    # line by line: /dev/zero is one endless line
    path = kind
    if kind == "fifo":
        path = str(tmp_path / "bound.fifo")
        os.mkfifo(path)
    start = time.monotonic()
    code, out_bytes, err = _child(["bounded", "--f", f"file:{path}",
                                   "--n", "3"],
                                  limit_s=5, address_space=600 << 20)
    assert code == 2 and out_bytes == 0, (code, err[-500:])
    assert time.monotonic() - start < 5
    assert "Traceback" not in err
    assert err == f"error: bound file {path} is not a regular file\n"


def _spawned(argv, stdout):
    """Run ``python -m adjhier argv`` with stdout to the file ``stdout``
    as the benchmark runs its commands: from ``perfbench/spawner.py``, so
    the child's peak RSS is its own.  Returns (exit code, peak RSS in
    MB)."""
    spawner = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "spawner.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=CHILD_ENV)
    try:
        spawner.stdin.write(json.dumps(
            {"argv": [sys.executable, "-m", "adjhier"] + argv,
             "stdout": str(stdout), "limit": 30}) + "\n")
        spawner.stdin.flush()
        reply = json.loads(spawner.stdout.readline())
    finally:
        spawner.stdin.close()
        spawner.wait()
        spawner.stdout.close()
    return reply["code"], reply["rss_kb"] / 1024


@linux_only
def test_full_listing_costs_no_more_memory_than_skipped(tmp_path):
    rss = {}
    for skip in ([], ["--skip-duplicates"]):
        code, rss[bool(skip)] = _spawned(
            ["bounded", "--f", "log2", "--n", "65551", "--format", "json"]
            + skip, tmp_path / "stdout")
        assert code == 0
    assert rss[False] <= rss[True] + 8, rss


@linux_only
def test_row_cap_fill_keeps_sizes_per_run(tmp_path):
    # 4,194,305 rows and 3,954 distinct sizes: a list slot per row for
    # a(n) and cap(n) took the peak to about 97 MB
    stdout = tmp_path / "stdout"
    code, rss = _spawned(["bounded", "--f", "log2", "--n", "4194304",
                          "--skip-duplicates", "--format", "csv"], stdout)
    assert code == 0
    assert rss < 30, rss
    assert hashlib.sha256(stdout.read_bytes()).hexdigest() == (
        "9e3504a049b085052ac592f8904f0e35bf4640434a9e360a236bfebc195d2871")


# -- stdout that cannot take the output ---------------------------------------

def _ends_cleanly(proc, limit_s=10):
    try:
        code = proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code in (0, 1, 2, 3), (code, err[-500:])  # None: killed
    assert "Traceback" not in err and "Exception ignored" not in err, err
    return code, err


def test_reader_closing_the_pipe_ends_cleanly():
    # like `... | head -1`: about 2.4 MB of CSV, far past a pipe's buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "adjhier", "bounded", "--f", "log2",
         "--n", "262143", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    assert proc.stdout.readline() == b"n,a_f_n\n"
    proc.stdout.close()
    code, err = _ends_cleanly(proc)
    assert code == 2 and err.startswith("error: cannot write the output")
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_ends_cleanly():
    with open("/dev/full", "wb") as full:
        proc = subprocess.Popen(
            [sys.executable, "-m", "adjhier", "levels", "--n", "3",
             "--format", "plain"],
            stdout=full, stderr=subprocess.PIPE, env=CHILD_ENV)
        code, err = _ends_cleanly(proc)
    assert code == 2 and err.startswith("error: cannot write the output")
    assert err.count("\n") == 1
