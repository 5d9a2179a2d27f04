import json
import os
import re
import stat

import pytest

from adjhier.bounded import BoundFunction, compute_bounded_table, compute_minbounded
from adjhier.cache import cache_roundtrip, load_table, save_table
from adjhier.cli import CommandSpec, main, parse_bound_function, run
from adjhier.errors import BoundFunctionError, CacheError
from adjhier.recurrence import compute_b_table
from adjhier.refinements import compute_atoms_table, compute_d_table, compute_r_table

from golden import CARD_PROFILES, PLAIN_A, RANK_PROFILES, SQRT_ROWS


def out_of(argv, capsys, expect_code=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.err
    return captured.out


def test_levels_json(capsys):
    doc = json.loads(out_of(["levels", "--n", "9"], capsys))
    assert doc["a"] == [str(v) for v in PLAIN_A]
    assert doc["n_max"] == "9"


def test_levels_csv_and_plain(capsys):
    out = out_of(["levels", "--n", "3", "--format", "csv"], capsys)
    assert out.splitlines() == ["n,a_n", "0,1", "1,2", "2,4", "3,12"]
    out = out_of(["levels", "--n", "3", "--format", "plain"], capsys)
    assert out.splitlines() == ["0\t1", "1\t2", "2\t4", "3\t12"]


def test_table_json(capsys):
    doc = json.loads(out_of(["table", "--n", "4"], capsys))
    assert doc["rows"][3][3] == "8"   # row 3, column m = 2
    assert doc["rows"][0] == ["1"]


def test_rank_profile_json_and_range(capsys):
    doc = json.loads(out_of(["rank-profile", "--n", "7"], capsys))
    assert doc["profiles"] == [[str(v) for v in row] for row in RANK_PROFILES]
    doc = json.loads(out_of(
        ["rank-profile", "--n", "5", "--t-range", "2:4"], capsys))
    assert doc["profiles"][5] == ["2", "12", "912"]
    assert doc["profiles"][1] == []  # window starts above this level's ranks


def test_card_profile_csv(capsys):
    out = out_of(["card-profile", "--n", "4", "--format", "csv"], capsys)
    lines = out.splitlines()
    assert lines[0] == "n,d^0,d^1,d^2,d^3,d^4"
    assert lines[5] == "4," + ",".join(str(v) for v in CARD_PROFILES[4])
    assert lines[2] == "1,1,1,,,"


def test_atoms_json(capsys):
    doc = json.loads(out_of(["atoms", "--u", "3", "--n", "3"], capsys))
    assert doc["sizes"] == ["4", "8", "34", "898"]


def test_bounded_skip_duplicates(capsys):
    doc = json.loads(out_of(
        ["bounded", "--f", "sqrt", "--n", "40", "--skip-duplicates"], capsys))
    assert doc["rows"] == [[str(n), str(v)] for n, v in SQRT_ROWS if n <= 40]
    full = json.loads(out_of(["bounded", "--f", "sqrt", "--n", "40"], capsys))
    assert len(full["rows"]) == 41


def test_minbounded_rows(capsys):
    doc = json.loads(out_of(["minbounded", "--n", "12"], capsys))
    assert doc["rows"][-1] == ["12", "4096"]


def test_constant_output(capsys):
    doc = json.loads(out_of(["constant", "--digits", "30"], capsys))
    assert doc["C"].startswith("1.33989975774603551012713519587"[:25])
    assert doc["terms_used"] == "12"
    assert len(doc["C"].replace(".", "").lstrip("0")) == 30


def test_oracle_verify_plain_output(capsys):
    doc = json.loads(out_of(["oracle-verify", "--variant", "plain",
                             "--n", "4"], capsys))
    assert all(c["ok"] for c in doc["checks"])
    assert doc["sizes"] == ["1", "2", "4", "12", "112"]


def test_oracle_verify_plain_depth5(capsys):
    out = out_of(["oracle-verify", "--variant", "plain", "--n", "5",
                  "--format", "plain"], capsys)
    assert "ark lemma 11680/11680" in out
    assert "FAIL" not in out


def test_oracle_verify_dump(tmp_path, capsys):
    dump = tmp_path / "dump"
    out_of(["oracle-verify", "--variant", "minbounded", "--n", "4",
            "--dump", str(dump)], capsys)
    lines = (dump / "level_02.txt").read_text().splitlines()
    assert lines == ["{}", "{{}}", "{{{}}}", "{{},{{}}}"]
    summary = json.loads((dump / "summary.json").read_text())
    assert summary["sizes"] == ["1", "2", "4", "12", "16"]


def test_output_determinism(capsys):
    one = out_of(["minbounded", "--n", "20"], capsys)
    two = out_of(["minbounded", "--n", "20"], capsys)
    assert one == two


def test_exit_codes(capsys):
    assert main(["oracle-verify", "--variant", "plain", "--n", "7"]) == 3
    capsys.readouterr()
    assert main(["bounded", "--f", "cube", "--n", "5"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parse_bound_function_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0\n1\n1\n2\n")
    f = parse_bound_function(f"file:{path}")
    assert f.values == (0, 1, 1, 2)
    path.write_text("0\n1\n3\n")
    with pytest.raises(Exception, match=r"f\(2\) = 3"):
        parse_bound_function(f"file:{path}")


@pytest.mark.parametrize("text, where", [
    ("0\n1\nx\n", ":3: not an integer"),
    ("0\n-1\n", ":2: negative value -1"),
])
def test_bad_bound_file_line_reported(tmp_path, capsys, text, where):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(BoundFunctionError, match=re.escape(f"{path}{where}")):
        parse_bound_function(f"file:{path}")
    assert main(["bounded", "--f", f"file:{path}", "--n", "3"]) == 2
    assert f"{path}{where}" in capsys.readouterr().err


def test_bound_file_range_exhaustion(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("0\n0\n1\n1\n1\n")
    assert main(["bounded", "--f", f"file:{path}", "--n", "10"]) == 2
    err = capsys.readouterr().err
    assert "depth 10" in err


@pytest.mark.parametrize("make", [
    lambda: compute_b_table(7),
    lambda: compute_b_table(16),  # cells beyond the str-conversion guard
    lambda: compute_r_table(5),
    lambda: compute_d_table(5),
    lambda: compute_atoms_table(2, 5),
    lambda: compute_bounded_table(BoundFunction("half"), 16),
    lambda: compute_bounded_table(BoundFunction("log2"), 40),
    lambda: compute_minbounded(20),
])
def test_cache_roundtrip_all_kinds(tmp_path, make):
    table = make()
    path = tmp_path / "cache.json"
    assert cache_roundtrip(path, table) == table
    # load then save is byte identical
    first = path.read_bytes()
    save_table(path, load_table(path))
    assert path.read_bytes() == first


@pytest.mark.parametrize("target", ["os.fsync", "os.replace"])
def test_interrupted_save_keeps_previous_cache(tmp_path, monkeypatch, target):
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(5))
    before = path.read_bytes()

    def fail(*args, **kwargs):
        raise OSError("interrupted")

    monkeypatch.setattr(f"adjhier.cache.{target}", fail)
    with pytest.raises(OSError, match="interrupted"):
        save_table(path, compute_b_table(7))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.json"]


def test_save_keeps_plain_file_mode(tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w"):
        pass
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(5))
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    # an existing file keeps its own mode, as open(path, "w") keeps it
    path.chmod(0o640)
    save_table(path, compute_b_table(6))
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["cache.json", "plain.json"]


def test_cache_tamper_detected(tmp_path):
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(5))
    doc = json.loads(path.read_text())
    doc["payload"]["a"][3] = "13"
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheError, match="checksum"):
        load_table(path)


def test_cache_cell_corruption_caught_by_spot_check(tmp_path):
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(5))
    doc = json.loads(path.read_text())
    # recompute the checksum so only the row check can object; this cell
    # feeds every other row's recomputation, so any sampled row trips
    doc["payload"]["rows"][1][1] = "999"
    from adjhier.cache import _checksum
    doc["checksum"] = _checksum(doc["payload"])
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    with pytest.raises(CacheError, match="recomputation"):
        load_table(path)


def test_cache_version_refusal(tmp_path):
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(3))
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheError, match="format_version"):
        load_table(path)


def test_cli_cache_reuse_and_mismatch(tmp_path, capsys):
    cache = tmp_path / "b.json"
    first = out_of(["levels", "--n", "9", "--cache", str(cache)], capsys)
    assert cache.exists()
    mtime = os.path.getmtime(cache)
    again = out_of(["levels", "--n", "9", "--cache", str(cache)], capsys)
    assert again == first
    assert os.path.getmtime(cache) == mtime  # reused, not rewritten
    smaller = out_of(["levels", "--n", "5", "--cache", str(cache)], capsys)
    assert json.loads(smaller)["a"] == [str(v) for v in PLAIN_A[:6]]


def test_cli_corrupt_cache_is_hard_error(tmp_path, capsys):
    cache = tmp_path / "b.json"
    out_of(["levels", "--n", "5", "--cache", str(cache)], capsys)
    raw = cache.read_text().replace('"112"', '"113"')
    cache.write_text(raw)
    assert main(["levels", "--n", "5", "--cache", str(cache)]) == 2
    assert "checksum" in capsys.readouterr().err


def test_run_with_command_spec_directly():
    code, text = run(CommandSpec(subcommand="levels", n_max=4))
    assert code == 0
    assert json.loads(text)["a"] == [str(v) for v in PLAIN_A[:5]]


def test_oracle_verify_csv_format(capsys):
    out = out_of(["oracle-verify", "--variant", "minbounded", "--n", "4",
                  "--format", "csv"], capsys)
    lines = out.splitlines()
    assert lines[0] == "check,status,detail"
    assert all(",ok," in line for line in lines[1:])


def test_failed_verification_exits_one(monkeypatch, capsys):
    from adjhier import verify as verify_mod
    original = verify_mod.verify_minbounded

    def broken(n_max=5, **caps):
        ls, checks = original(4)
        checks.append(verify_mod.Check("planted failure", False, "boom"))
        return ls, checks

    monkeypatch.setattr(verify_mod, "verify_minbounded", broken)
    assert main(["oracle-verify", "--variant", "minbounded"]) == 1
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert any(not c["ok"] for c in doc["checks"])
