"""Cache format v4, pinned by a committed file: the cache that
``rank-profile --n 5 --cache`` writes, and the same table in format v3."""

import json
from pathlib import Path

import pytest

from adjhier.cache import _checksum, load_table, save_table, table_payload
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
    doc["checksum"] = _checksum(doc["payload"])
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(doc))
    assert main(ARGV + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed cache payload")
    assert "Traceback" not in captured.err
