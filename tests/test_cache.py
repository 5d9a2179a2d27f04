"""Cache format v4, pinned by a committed file: the cache that
``rank-profile --n 5 --cache`` writes, and the same table in format v3."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from adjhier import recurrence
from adjhier.cache import _checksum, load_table, save_table, table_payload
from adjhier.bounded import compute_minbounded
from adjhier.cli import main
from adjhier.recurrence import compute_b_table
from adjhier.refinements import compute_r_table

HERE = Path(__file__).parent
V4 = HERE / "cache_rank_5.v4.json"
V3 = HERE / "cache_rank_5.v3.json"
ARGV = ["rank-profile", "--n", "5", "--cache"]


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
    assert doc["payload"] == table_payload(table())


def test_count_table_is_one_layer():
    # b(4, 3) = 100
    assert table_payload(compute_b_table(4)) == {
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
    # so the row step evaluates it in nested form
    t = table()
    assert t.col(t, 9)[0].bit_length() >= recurrence.NESTED_MIN_BITS
    argv = [command, "--n", "12", "--cache", str(tmp_path / "cache.json")]
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "cache.json").read_text())
    cell = next(c for c in doc["payload"]["layers"][-1] if c[:2] == [12, 9])
    value = int(cell[2], 16)
    for delta in itertools.count(1):  # until the load checks row 12
        cell[2] = format(value + delta, "x")
        doc["checksum"] = _checksum(doc["payload"])
        if random.Random(doc["checksum"]).randint(1, 12) == 12:
            break
    (tmp_path / "cache.json").write_text(json.dumps(doc))
    nested = []

    def counted(*args, f=recurrence._nested):
        nested.append(args)
        return f(*args)
    monkeypatch.setattr(recurrence, "_nested", counted)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and nested
    assert captured.err == "error: cached row 12 fails recomputation\n"
