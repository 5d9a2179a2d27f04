"""Cache format v4, pinned by a committed file: the cache that
``table --n 5 --cache`` writes.  Two files that earlier releases wrote
stay beside it: a rank table in format v3 and the same table in v4."""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from adjhier import cli, recurrence
from adjhier.cache import _checksum, _payload_text, load_table, save_table
from adjhier.bounded import compute_minbounded
from adjhier.cli import main
from adjhier.errors import CacheError
from adjhier.recurrence import compute_b_table
from adjhier.refinements import compute_atoms_table

HERE = Path(__file__).parent
V4 = HERE / "cache_table_5.v4.json"
V3 = HERE / "cache_rank_5.v3.json"
RANK_V4 = HERE / "cache_rank_5.v4.json"
ARGV = ["table", "--n", "5", "--cache"]


def payload(table) -> dict:
    """The payload of ``table`` as JSON reads it."""
    return json.loads("".join(_payload_text(table)))


def test_fixture_is_what_save_writes(tmp_path, capsys):
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(5))
    assert path.read_bytes() == V4.read_bytes()
    assert load_table(V4, compute_b_table(5)) is True
    # the CLI writes the same bytes, and reads them back
    other = tmp_path / "cli.json"
    assert main(ARGV + [str(other)]) == 0
    assert other.read_bytes() == V4.read_bytes()
    first = capsys.readouterr().out
    assert main(ARGV + [str(V4)]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("table", [
    lambda: compute_b_table(12),
    lambda: compute_minbounded(1000),  # 190k characters: three slices
    lambda: compute_atoms_table(2, 7),
], ids=["plain 12", "minbounded 1000", "atoms 2 7"])
def test_save_writes_the_canonical_document(tmp_path, table):
    path = tmp_path / "cache.json"
    save_table(path, table())
    text = path.read_text()
    doc = json.loads(text)
    canonical = lambda obj: json.dumps(obj, sort_keys=True,
                                       separators=(",", ":"))
    assert text == canonical(doc)
    assert doc["checksum"] == hashlib.sha256(
        canonical(doc["payload"]).encode()).hexdigest()
    assert doc["checksum"] == _checksum(doc["payload"])
    assert doc["payload"] == payload(table())


def test_count_table_is_one_layer():
    # b(4, 3) = 100
    assert payload(compute_b_table(4)) == {
        "table": {"kind": "plain"}, "n_max": "4",
        "layers": [[[1, 0, "1"], [2, 1, "2"], [3, 2, "8"], [4, 2, "4"],
                    [4, 3, "64"]]]}


def test_v3_file_refused(tmp_path, capsys):
    # a rank table, refused on its version before its kind is read
    path = tmp_path / "cache.json"
    path.write_bytes(V3.read_bytes())
    assert main(ARGV + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "format_version 3 != 4" in captured.err
    assert "Traceback" not in captured.err
    assert path.read_bytes() == V3.read_bytes()


# -- a load is one byte compare with the fill's document ---------------------

DIFFERS = "error: cached table fails recomputation\n"


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _write(path, doc) -> bytes:
    """Write ``doc`` as a save would, its checksum recomputed, so that
    only the change made to it differs from the saved document."""
    doc["checksum"] = _checksum(doc["payload"])
    path.write_text(_canonical(doc))
    return path.read_bytes()


def _refused(capsys, argv, path, doc):
    """The run refuses ``doc`` with exit 2, no output and one message,
    and leaves the file as written."""
    written = _write(path, doc)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == DIFFERS
    assert path.read_bytes() == written


@pytest.mark.parametrize("cell", ["-1", "0x1", "01", "1A", " 1", "1_0", "",
                                  1])
def test_noncanonical_hex_cell_refused(tmp_path, capsys, cell):
    doc = json.loads(V4.read_text())
    doc["payload"]["layers"][-1][-1][2] = cell
    path = tmp_path / "cache.json"
    _refused(capsys, ARGV + [str(path)], path, doc)


@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize("index", [1.75, 5.0, True, "5", " 5", "5_0", None])
def test_noncanonical_cell_index_refused(tmp_path, capsys, at, index):
    doc = json.loads(V4.read_text())
    doc["payload"]["layers"][-1][-1][at] = index
    path = tmp_path / "cache.json"
    _refused(capsys, ARGV + [str(path)], path, doc)


@pytest.mark.parametrize("n_max", [5, 5.0, True, " 5", "5 ", "+5", "05",
                                   "5_0", "0x5", None])
def test_noncanonical_n_max_refused(tmp_path, capsys, n_max):
    # a depth that names no table is malformed, not another table
    doc = json.loads(V4.read_text())
    doc["payload"]["n_max"] = n_max
    path = tmp_path / "cache.json"
    written = _write(path, doc)
    assert main(ARGV + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed cache payload")
    assert "Traceback" not in captured.err
    assert path.read_bytes() == written


def test_reindented_cache_refused(tmp_path, capsys):
    # the same table and cells with other whitespace is not the document
    # a save writes for them
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(json.loads(V4.read_text()), indent=1))
    written = path.read_bytes()
    assert main(ARGV + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == DIFFERS
    assert path.read_bytes() == written


def _byte_changes(path, changes):
    """Yield (offset, value) for each change, with a copy of the fixture at
    ``path`` holding that change; the file is changed in place, as every
    change keeps its length, and it must still hold the change after each
    yield."""
    good = V4.read_bytes()
    path.write_bytes(good)
    fd = os.open(path, os.O_RDWR)
    try:
        for i, byte in enumerate(good):
            for value in changes(byte):
                bad = bytes((value,))
                os.pwrite(fd, bad, i)
                yield i, value
                assert os.pread(fd, len(good) + 1, 0) == (
                    good[:i] + bad + good[i + 1:]), (i, value)
            os.pwrite(fd, good[i:i + 1], i)
    finally:
        os.close(fd)
    assert V4.read_bytes() == good


def test_every_single_byte_change_is_refused(tmp_path):
    # each byte of the fixture set to each of its 255 other values: the
    # load that --cache makes refuses every one, as the run does with exit
    # 2, and none loads as a hit or as another table to rewrite
    table, path, refused = compute_b_table(5), tmp_path / "cache.json", 0
    others = lambda byte: (v for v in range(256) if v != byte)
    for i, value in _byte_changes(path, others):
        try:
            load_table(path, table)
        except (CacheError, ValueError):
            refused += 1
    assert refused == 255 * V4.stat().st_size


def test_every_single_bit_change_exits_2(tmp_path, monkeypatch):
    # each bit of the fixture flipped, for levels and table in turn, one
    # parser serving every run
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    path = tmp_path / "cache.json"
    argvs = [[command, "--n", "5", "--cache", str(path), "--format", "csv"]
             for command in ("levels", "table")]
    flips = lambda byte: (byte ^ 1 << k for k in range(8))
    out, err, runs = io.StringIO(), io.StringIO(), 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for i, value in _byte_changes(path, flips):
            assert main(argvs[runs % 2]) == 2, (i, value)
            runs += 1
    assert runs == 8 * V4.stat().st_size
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == runs
    assert all(line.startswith("error: ") for line in lines)


def test_spot_check_catches_a_changed_nested_column(tmp_path, capsys):
    # cell (12, 9): its column adjoins c(9) of 217 bits, so the fill
    # evaluates it in nested form, and the load compares the file's cell
    # with the one that form gives
    t = compute_b_table(12)
    c9 = t.c(9)
    assert c9.bit_length() >= recurrence.NESTED_MIN_BITS
    path = tmp_path / "cache.json"
    argv = ["table", "--n", "12", "--cache", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    cell = next(c for c in doc["payload"]["layers"][0] if c[:2] == [12, 9])
    cell[2] = format(int(cell[2], 16) + 1, "x")
    _refused(capsys, argv, path, doc)


# -- a load checks every stored row -------------------------------------------

CACHED = [["table", "--n", "12"], ["minbounded", "--n", "300"],
          ["bounded", "--f", "log2", "--n", "2000"],
          ["atoms", "--u", "2", "--n", "7"]]


def _cache_of(tmp_path, capsys, argv):
    """(argv with --cache, its cache file, the file's text) after a cold
    run."""
    path = tmp_path / "cache.json"
    argv = argv + ["--cache", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    return argv, path, path.read_text()


@pytest.mark.parametrize("argv", CACHED, ids=" ".join)
def test_every_stored_row_is_checked(tmp_path, capsys, argv):
    # one cell of each stored row in turn
    argv, path, text = _cache_of(tmp_path, capsys, argv)
    rows = sorted({n for n, _, _ in json.loads(text)["payload"]["layers"][0]})
    assert len(rows) >= 7
    for n in rows:
        doc = json.loads(text)
        _raise(doc["payload"]["layers"][0], n)
        _refused(capsys, argv, path, doc)


@pytest.mark.parametrize("argv", CACHED, ids=" ".join)
def test_dropped_cell_is_refused(tmp_path, capsys, argv):
    argv, path, text = _cache_of(tmp_path, capsys, argv)
    cells = json.loads(text)["payload"]["layers"][0]
    for i in sorted({0, len(cells) // 2, len(cells) - 1}):
        doc = json.loads(text)
        doc["payload"]["layers"][0].pop(i)
        _refused(capsys, argv, path, doc)


def _raise(cells, n):
    cell = next(c for c in cells if c[0] == n)
    cell[2] = format(int(cell[2], 16) + 1, "x")


def _drop(cells, n):
    cells.remove(next(c for c in cells if c[0] == n))


def _repeat(cells, n):
    cells.append(list(next(c for c in cells if c[0] == n)))


@pytest.mark.parametrize("argv", CACHED, ids=" ".join)
@pytest.mark.parametrize("early, late", [(_drop, _raise), (_raise, _drop),
                                         (_drop, _repeat)],
                         ids=["drop raise", "raise drop", "drop repeat"])
def test_faults_in_two_rows_are_refused(tmp_path, capsys, argv, early,
                                        late):
    argv, path, text = _cache_of(tmp_path, capsys, argv)
    rows = sorted({n for n, _, _ in json.loads(text)["payload"]["layers"][0]})
    doc = json.loads(text)
    early(doc["payload"]["layers"][0], rows[len(rows) // 3])
    late(doc["payload"]["layers"][0], rows[-1])
    _refused(capsys, argv, path, doc)


def test_cell_on_a_zero_row_is_refused(tmp_path, capsys):
    # the row holds no stored cell, and the fill skips it (3, 6, 1009,
    # 2000) or visits it as the cap grows and finds it zero (8)
    argv, path, text = _cache_of(tmp_path, capsys, CACHED[2])
    stored = {n for n, _, _ in json.loads(text)["payload"]["layers"][0]}
    for n in (3, 6, 8, 1009, 2000):
        assert n not in stored
        doc = json.loads(text)
        doc["payload"]["layers"][0].append([n, 0, "1"])
        _refused(capsys, argv, path, doc)


def test_cell_past_the_row_cap_is_refused(tmp_path, capsys):
    # cap(1000) = floor(log2(999)) = 9 for the log2 bound
    argv, path, text = _cache_of(tmp_path, capsys, CACHED[2])
    doc = json.loads(text)
    doc["payload"]["layers"][0].append([1000, 10, "1"])
    _refused(capsys, argv, path, doc)


@pytest.mark.parametrize("change", [
    lambda cells: cells.insert(3, [cells[3][0], cells[3][1], "0"]),
    lambda cells: cells.insert(3, list(cells[3])),
    lambda cells: cells.append([6, 0, "0"]),
], ids=["duplicate zero", "repeated cell", "new zero cell"])
def test_repeated_or_zero_cell_is_refused(tmp_path, capsys, change):
    # a save writes each nonzero cell once, so a layer that lists (n, m)
    # twice or holds a zero is not one it wrote, even where the kept value
    # equals the table's
    argv, path, text = _cache_of(tmp_path, capsys, ["levels", "--n", "6"])
    doc = json.loads(text)
    change(doc["payload"]["layers"][0])
    _refused(capsys, argv, path, doc)


def test_raised_cell_of_the_last_level_is_refused(tmp_path, capsys):
    # cell (12, 11) of a levels --n 12 cache raised by 2: a check of row 1
    # and one seeded row let this file print a wrong a(12)
    argv, path, text = _cache_of(tmp_path, capsys, ["levels", "--n", "12"])
    doc = json.loads(text)
    cell = next(c for c in doc["payload"]["layers"][0] if c[:2] == [12, 11])
    cell[2] = format(int(cell[2], 16) + 2, "x")
    _refused(capsys, argv, path, doc)


# -- a hit parses nothing, and every run fills once ----------------------------

def test_hit_reads_no_json(tmp_path, capsys, monkeypatch):
    argv, path, _ = _cache_of(tmp_path, capsys, ["minbounded", "--n", "300"])
    assert main(argv[:-2]) == 0
    cold = capsys.readouterr().out
    before = path.stat().st_mtime_ns, path.read_bytes()

    def unread(*args, **kwargs):
        raise AssertionError("a cache hit parsed JSON")
    monkeypatch.setattr(json, "load", unread)
    monkeypatch.setattr(json, "loads", unread)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert (path.stat().st_mtime_ns, path.read_bytes()) == before


def _fills(monkeypatch) -> list:
    """The depth of every fill run from now on, in order."""
    fills, sweep = [], recurrence._sweep

    def counted(spec, n_max, *args, **kwargs):
        fills.append(n_max)
        return sweep(spec, n_max, *args, **kwargs)
    monkeypatch.setattr(recurrence, "_sweep", counted)
    return fills


@pytest.mark.parametrize("file", ["hit", "rewrite", "none"])
def test_every_cached_run_fills_once(tmp_path, capsys, monkeypatch, file):
    path = tmp_path / "cache.json"
    if file != "none":
        assert main(["table", "--n", "5" if file == "hit" else "4",
                     "--cache", str(path)]) == 0
    capsys.readouterr()
    fills = _fills(monkeypatch)
    assert main(ARGV + [str(path)]) == 0
    assert fills == [5]
    assert path.read_bytes() == V4.read_bytes()


# -- rank and cardinality tables are not cached -------------------------------

def test_leftover_rank_cache_is_rewritten(tmp_path, capsys, monkeypatch):
    # a rank table that an earlier release cached is another table: a
    # count command fills its own, once, and writes it over the file
    assert main(["levels", "--n", "5"]) == 0
    want = capsys.readouterr().out
    path = tmp_path / "cache.json"
    path.write_bytes(RANK_V4.read_bytes())
    fills = _fills(monkeypatch)
    assert main(["levels", "--n", "5", "--cache", str(path)]) == 0
    assert capsys.readouterr().out == want
    assert fills == [5]
    assert path.read_bytes() == V4.read_bytes()


@pytest.mark.parametrize("command", ["rank-profile", "card-profile"])
def test_profile_takes_no_cache(tmp_path, capsys, command):
    path = tmp_path / "cache.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "3", "--cache", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --cache" in captured.err
    assert not path.exists()
