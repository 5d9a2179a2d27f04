"""Cache format v4, pinned by a committed file: the cache that
``rank-profile --n 5 --cache`` writes, and the same table in format v3."""

import hashlib
import json
from pathlib import Path

import pytest

from adjhier import recurrence
from adjhier.cache import _checksum, _payload_text, load_table, save_table
from adjhier.bounded import compute_minbounded
from adjhier.cli import main
from adjhier.recurrence import compute_b_table
from adjhier.refinements import compute_r_table

HERE = Path(__file__).parent
V4 = HERE / "cache_rank_5.v4.json"
V3 = HERE / "cache_rank_5.v3.json"
ARGV = ["rank-profile", "--n", "5", "--cache"]


def payload(table) -> dict:
    """The payload of ``table`` as JSON reads it."""
    return json.loads("".join(_payload_text(table)))


def test_fixture_is_what_save_writes(tmp_path, capsys):
    path = tmp_path / "cache.json"
    save_table(path, compute_r_table(5))
    assert path.read_bytes() == V4.read_bytes()
    assert load_table(V4) == compute_r_table(5)
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
    lambda: compute_r_table(7),
], ids=["plain 12", "minbounded 1000", "rank 7"])
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
    path = tmp_path / "cache.json"
    path.write_bytes(V3.read_bytes())
    assert main(ARGV + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "format_version 3 != 4" in captured.err
    assert "Traceback" not in captured.err
    assert path.read_bytes() == V3.read_bytes()


@pytest.mark.parametrize("cell", ["-1", "0x1", "01", "1A", " 1", "1_0", "",
                                  1])
def test_noncanonical_hex_cell_refused(tmp_path, capsys, cell):
    doc = json.loads(V4.read_text())
    doc["payload"]["layers"][-1][-1][2] = cell
    _refused(tmp_path, capsys, doc)


def _refused(tmp_path, capsys, doc):
    doc["checksum"] = _checksum(doc["payload"])
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(doc))
    assert main(ARGV + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed cache payload")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize("index", [1.75, 5.0, True, "5", " 5", "5_0", None])
def test_noncanonical_cell_index_refused(tmp_path, capsys, at, index):
    doc = json.loads(V4.read_text())
    doc["payload"]["layers"][-1][-1][at] = index
    _refused(tmp_path, capsys, doc)


@pytest.mark.parametrize("n_max", [5, 5.0, True, " 5", "5 ", "+5", "05",
                                   "5_0", "0x5", None])
def test_noncanonical_n_max_refused(tmp_path, capsys, n_max):
    doc = json.loads(V4.read_text())
    doc["payload"]["n_max"] = n_max
    _refused(tmp_path, capsys, doc)


@pytest.mark.parametrize("command, table", [
    ("table", lambda: compute_b_table(12)),
    ("rank-profile", lambda: compute_r_table(12).layers[-1]),
])
def test_spot_check_catches_a_changed_nested_column(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     table):
    # cell (12, 9) of the last layer: its column adjoins c(9) of 217 bits,
    # so the fill evaluates it in nested form, and the load's check reads
    # the binomial row of c(9) mod p
    t = table()
    c9 = t.col(t, 9, 9)[0]  # g(9) = 9 on the plain caps
    assert c9.bit_length() >= recurrence.NESTED_MIN_BITS
    argv = [command, "--n", "12", "--cache", str(tmp_path / "cache.json")]
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "cache.json").read_text())
    cell = next(c for c in doc["payload"]["layers"][-1] if c[:2] == [12, 9])
    cell[2] = format(int(cell[2], 16) + 1, "x")
    doc["checksum"] = _checksum(doc["payload"])
    (tmp_path / "cache.json").write_text(json.dumps(doc))
    rows = []

    def recorded(row, d, k, p, f=recurrence._extend):
        rows.append((d, p))
        return f(row, d, k, p)
    monkeypatch.setattr(recurrence, "_extend", recorded)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and any(d == c9 % p for d, p in rows if p)
    assert captured.err == "error: cached row 12 fails recomputation\n"


# -- a load checks every stored row -------------------------------------------

CACHED = [["table", "--n", "12"], ["rank-profile", "--n", "7"],
          ["minbounded", "--n", "300"],
          ["bounded", "--f", "log2", "--n", "2000"]]


def _cache_of(tmp_path, capsys, argv):
    """(argv with --cache, its cache file, the file's text) after a cold
    run."""
    path = tmp_path / "cache.json"
    argv = argv + ["--cache", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    return argv, path, path.read_text()


def _row_refused(capsys, argv, path, doc, n):
    doc["checksum"] = _checksum(doc["payload"])
    path.write_text(json.dumps(doc))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cached row {n} fails recomputation\n"


@pytest.mark.parametrize("argv", CACHED, ids=" ".join)
def test_every_stored_row_is_checked(tmp_path, capsys, argv):
    # one cell of each stored row in turn, in the last layer that stores
    # the row
    argv, path, text = _cache_of(tmp_path, capsys, argv)
    layers = json.loads(text)["payload"]["layers"]
    rows = sorted({n for cells in layers for n, _, _ in cells})
    assert len(rows) >= 7
    for n in rows:
        doc = json.loads(text)
        cell = next(c for cells in reversed(doc["payload"]["layers"])
                    for c in cells if c[0] == n)
        cell[2] = format(int(cell[2], 16) + 1, "x")
        _row_refused(capsys, argv, path, doc, n)


@pytest.mark.parametrize("argv", CACHED, ids=" ".join)
def test_dropped_cell_is_refused(tmp_path, capsys, argv):
    argv, path, text = _cache_of(tmp_path, capsys, argv)
    cells = json.loads(text)["payload"]["layers"][-1]
    for i in sorted({0, len(cells) // 2, len(cells) - 1}):
        doc = json.loads(text)
        n = doc["payload"]["layers"][-1].pop(i)[0]
        _row_refused(capsys, argv, path, doc, n)


@pytest.mark.parametrize("argv", CACHED[1::2], ids=" ".join)
def test_cell_on_a_zero_row_is_refused(tmp_path, capsys, argv):
    # the row holds no stored cell, and the fill skips it (log2) or finds
    # it zero (the low rank layers); the load visits it as a stored row
    argv, path, text = _cache_of(tmp_path, capsys, argv)
    n_max = int(argv[argv.index("--n") + 1])
    layers = json.loads(text)["payload"]["layers"]
    tried = 0
    for s, cells in enumerate(layers):
        zero = sorted(set(range(1, n_max + 1)) - {n for n, _, _ in cells})
        for n in sorted({*zero[:2], *zero[len(zero) // 2:][:1], *zero[-1:]}):
            doc = json.loads(text)
            doc["payload"]["layers"][s].append([n, 0, "1"])
            _row_refused(capsys, argv, path, doc, n)
            tried += 1
    assert tried >= 4


def test_cell_past_the_row_cap_is_refused(tmp_path, capsys):
    # cap(1000) = floor(log2(999)) = 9 for the log2 bound
    argv, path, text = _cache_of(tmp_path, capsys, CACHED[3])
    doc = json.loads(text)
    doc["payload"]["layers"][0].append([1000, 10, "1"])
    _malformed(capsys, argv, path, doc,
               "cell (1000, 10) outside the filled triangle")


def _malformed(capsys, argv, path, doc, detail):
    doc["checksum"] = _checksum(doc["payload"])
    path.write_text(json.dumps(doc))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed cache payload: {detail}\n"


@pytest.mark.parametrize("change, err", [
    (lambda cells: cells.insert(3, [cells[3][0], cells[3][1], "0"]),
     "cell (4, 2) is zero"),
    (lambda cells: cells.insert(3, list(cells[3])),
     "cell (4, 2) listed twice"),
    (lambda cells: cells.append([6, 0, "0"]), "cell (6, 0) is zero"),
], ids=["duplicate zero", "repeated cell", "new zero cell"])
def test_repeated_or_zero_cell_is_refused(tmp_path, capsys, change, err):
    # a save writes each nonzero cell once, so a layer that lists (n, m)
    # twice or holds a zero is not one it wrote, even where the kept value
    # would pass the row check
    argv, path, text = _cache_of(tmp_path, capsys, ["levels", "--n", "6"])
    doc = json.loads(text)
    change(doc["payload"]["layers"][0])
    _malformed(capsys, argv, path, doc, err)


def test_raised_cell_of_the_last_level_is_refused(tmp_path, capsys):
    # cell (12, 11) of a levels --n 12 cache raised by 2: a check of row 1
    # and one seeded row let this file print a wrong a(12)
    argv, path, text = _cache_of(tmp_path, capsys, ["levels", "--n", "12"])
    doc = json.loads(text)
    cell = next(c for c in doc["payload"]["layers"][0] if c[:2] == [12, 11])
    cell[2] = format(int(cell[2], 16) + 2, "x")
    _row_refused(capsys, argv, path, doc, 12)


def test_prime_is_the_first_at_or_above_the_checksum_number():
    from adjhier.cache import _prime
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for checksum in ("0" * 64, "f" * 64, _checksum([])):
        x = int(checksum[:16], 16) >> 3 | 1 << 60
        p = _prime(checksum)
        assert p.bit_length() == 61 and p >= x
        assert all(pow(b, p - 1, p) == 1 for b in small)
        # each number below it is even or fails a Fermat test
        assert all(pow(2, y - 1, y) != 1 for y in range(x | 1, p, 2))
    assert _prime("f" * 64) == (1 << 61) - 1
