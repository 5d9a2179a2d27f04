import contextlib
import gc
import hashlib
import io
import json
import os
import re
import stat
import time
from decimal import MAX_PREC, Decimal
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from adjhier import asymptotics, oracle, recurrence
from adjhier.bounded import BoundFunction, compute_bounded_table, compute_minbounded
from adjhier.cache import load_table, save_table
from adjhier.cli import (CommandSpec, build_parser, main,
                         parse_bound_function, run)
from adjhier.errors import BoundFunctionError, CacheError
from adjhier.recurrence import CountTable, compute_b_table
from adjhier.refinements import RefinedTable, compute_atoms_table

import hfs_reference as ref
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


@pytest.mark.parametrize("command", ["rank-profile", "card-profile"])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_t_range_past_depth_refused(command, fmt, capsys):
    # columns past --n are always empty; a 3e8-column header is never built
    start = time.perf_counter()
    assert main([command, "--n", "3", "--t-range", "0:300000000",
                 "--format", fmt]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "ends past --n 3" in captured.err


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


@pytest.mark.parametrize("n", ["0", "1", "2"])
def test_constant_needs_four_levels(n, capsys):
    assert main(["constant", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "need counts through index 3" in captured.err


@pytest.mark.parametrize("argv", [
    ["--n", "3"],                      # tail 1/4
    ["--digits", "3000"],              # tail 5.6e-264 at the default --n 12
    ["--digits", "1000000000"],        # refused without building 10**digits
    ["--n", "8", "--digits", "18"],    # tail 8.5e-19 passes, C_N times it not
])
def test_constant_refuses_uncertified_digits(argv, capsys):
    start = time.perf_counter()
    assert main(["constant"] + argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error radius of at least" in captured.err
    assert "use a larger --n" in captured.err


@pytest.mark.parametrize("digits", ["0", "-5"])
def test_constant_digits_must_be_positive(digits, capsys):
    assert main(["constant", "--digits", digits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--digits must be at least 1, got {digits}" in captured.err


def test_constant_digits_past_decimal_precision_refused(capsys):
    # 10**-digits would overflow the Decimal exponent
    digits = str(10 ** 30)
    assert main(["constant", "--digits", digits, "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"--digits must be at most {MAX_PREC}, got {digits}" in captured.err


@pytest.mark.parametrize("argv", [["--n", "8", "--digits", "17"],
                                  ["--n", "16", "--digits", "3000"]])
def test_constant_prints_certified_digits_fast(argv, capsys):
    start = time.perf_counter()
    doc = json.loads(out_of(["constant"] + argv, capsys))
    assert time.perf_counter() - start < 1.0
    assert doc["C"].startswith("1.339899757746035")
    assert len(doc["C"].replace(".", "")) == int(doc["digits"])
    assert Decimal(doc["error_radius"]) <= Decimal(f"1e-{doc['digits']}")


@pytest.mark.parametrize("argv", [
    ["--n", "14", "--digits", "12"],  # printed
    ["--n", "3"],                     # refused by the tail alone
    ["--n", "8", "--digits", "18"],   # refused by the whole radius
])
def test_constant_renders_the_tail_once(monkeypatch, capsys, argv):
    # the tail renders c(N-1) 2**N exactly, about 0.09 s at N = 22
    calls = []
    tail = asymptotics.relative_tail

    def counted(c):
        calls.append(len(c))
        return tail(c)

    monkeypatch.setattr(asymptotics, "relative_tail", counted)
    main(["constant"] + argv)
    assert len(calls) == 1


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


@pytest.mark.parametrize("variant, size", [
    ("plain", "1"), ("atoms", "3"), ("bounded", "1"), ("minbounded", "1")])
def test_oracle_verify_depth_zero(variant, size, capsys):
    out = out_of(["oracle-verify", "--variant", variant, "--n", "0",
                  "--format", "plain"], capsys)
    assert out.splitlines()[0] == f"sizes: {size}"
    assert "FAIL" not in out
    assert main(["oracle-verify", "--variant", variant, "--n", "-1"]) == 2


def test_oracle_verify_dump(tmp_path, capsys):
    dump = tmp_path / "dump"
    out_of(["oracle-verify", "--variant", "minbounded", "--n", "4",
            "--dump", str(dump)], capsys)
    lines = (dump / "level_02.txt").read_text().splitlines()
    assert lines == ["{}", "{{}}", "{{{}}}", "{{},{{}}}"]
    summary = json.loads((dump / "summary.json").read_text())
    assert summary["sizes"] == ["1", "2", "4", "12", "16"]


def _canonical(x):
    """Canonical sort key of a reference set or atom: atoms first, by
    number, then sets by their elements' keys in descending order."""
    if ref.is_set(x):
        return 1, tuple(sorted(map(_canonical, x), reverse=True))
    return 0, int(x[1:])


def _notation(x):
    if not ref.is_set(x):
        return x
    return "{" + ",".join(map(_notation, sorted(x, key=_canonical))) + "}"


def test_oracle_verify_dump_writes_the_deepest_level_whole(tmp_path, capsys):
    # the deepest level is counted without interning it; --dump interns it
    dump = tmp_path / "atoms"
    out_of(["oracle-verify", "--variant", "atoms", "--u", "1", "--n", "3",
            "--dump", str(dump)], capsys)
    top = ref.levels(3, 1)[3]
    assert len(top) == 86
    assert (dump / "level_03.txt").read_text().splitlines() == [
        _notation(x) for x in sorted(top, key=_canonical)]
    dump = tmp_path / "plain"
    out_of(["oracle-verify", "--variant", "plain", "--n", "5",
            "--dump", str(dump)], capsys)
    lines = (dump / "level_05.txt").read_text().splitlines()
    assert len(lines) == len(set(lines)) == PLAIN_A[5] == 11_680


# sha256 of every level file --dump writes, recorded before the oracle
# adjoined a level in one batched pass
DUMP_DIGESTS = {
    "--variant plain --n 4": [
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
        "4dae498f5211e6713ca65ad635101978e609d79cbb0b946a42aefa1d5866a7d6",
        "781f00f966e496036a2e7e2c927c9917a6c1c8583f77cb0b467bdaa6d2f59467",
        "4c437889f4ad2e86d11e8fc4e936a903ed4f31fc69cd2b060bc4debe4628fa50",
        "a605e82948b539cde9996de2a50c6d2a32b652084d715a7f974b64ffc73b2fad",
    ],
    "--variant atoms --u 1 --n 3": [
        "c1074173ab031ca3e52702acd27aee7f12df4363ecb8f5348f4f7e25ae815fb0",
        "80ba48ae3429e151746a803756f57c628b9bbc0689a49726e4a5b3dbcfcb8abd",
        "40d011cf9cb40574184ba737741b8a10dd5c8da10ce573afb2b2cd9874c8eaa3",
        "b47dca74bd7132b72cad4968c6c5d92ff33feae6b8d2998cfe3074e071138a61",
    ],
}


@pytest.mark.parametrize("args", sorted(DUMP_DIGESTS))
def test_oracle_verify_dump_levels_match_recorded_digests(args, tmp_path,
                                                          capsys):
    dump = tmp_path / "dump"
    out_of(["oracle-verify", *args.split(), "--dump", str(dump)], capsys)
    files = sorted(p.name for p in dump.glob("level_*.txt"))
    assert files == [f"level_{n:02d}.txt"
                     for n in range(len(DUMP_DIGESTS[args]))]
    assert [hashlib.sha256((dump / f).read_bytes()).hexdigest()
            for f in files] == DUMP_DIGESTS[args]


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
    lambda: compute_atoms_table(2, 5),
    lambda: compute_bounded_table(BoundFunction("half"), 16),
    lambda: compute_bounded_table(BoundFunction("log2"), 40),
    lambda: compute_minbounded(20),
])
def test_cache_roundtrip_all_kinds(tmp_path, make):
    table = make()
    path = tmp_path / "cache.json"
    save_table(path, table)
    # another fill of the same table is a hit, and saves the same bytes
    again = make()
    assert load_table(path, again) is True
    first = path.read_bytes()
    save_table(path, again)
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


def test_cache_write_error_names_the_given_path(tmp_path):
    # the temporary file beside the cache cannot be created; its random
    # name is no part of the message
    path = tmp_path / "missing" / "c.json"
    argv = ["levels", "--n", "3", "--cache", str(path)]
    first, second = _run_captured(argv), _run_captured(argv)
    assert first == second
    code, out, err = first
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert os.listdir(tmp_path) == []


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


def _write_canonical(path, doc):
    """Write ``doc`` with its checksum recomputed, as a save writes a
    document, so that a load meets the edit made to it, not its
    whitespace."""
    from adjhier.cache import _checksum
    doc["checksum"] = _checksum(doc["payload"])
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def test_cache_tamper_detected(tmp_path):
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(5))
    doc = json.loads(path.read_text())
    doc["payload"]["layers"][0][2][2] = "13"
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheError, match="checksum"):
        load_table(path, compute_b_table(5))


def test_cache_cell_corruption_caught_by_spot_check(tmp_path):
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(5))
    doc = json.loads(path.read_text())
    # with the checksum recomputed, only the compare with the fill's
    # document can object
    doc["payload"]["layers"][0][0][2] = "999"
    _write_canonical(path, doc)
    with pytest.raises(CacheError, match="recomputation"):
        load_table(path, compute_b_table(5))


def test_cache_version_refusal(tmp_path):
    path = tmp_path / "cache.json"
    save_table(path, compute_b_table(3))
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheError, match="format_version"):
        load_table(path, compute_b_table(3))


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
    raw = cache.read_text().replace('"64"', '"65"')  # 100 in hex
    cache.write_text(raw)
    assert main(["levels", "--n", "5", "--cache", str(cache)]) == 2
    assert "checksum" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda: compute_b_table(5),
    lambda: compute_atoms_table(2, 4),
    lambda: compute_bounded_table(BoundFunction("half"), 12),
    lambda: compute_minbounded(12),
])
def test_cache_base_cell_corruption_caught(tmp_path, make):
    path = tmp_path / "cache.json"
    save_table(path, make())
    doc = json.loads(path.read_text())
    # b(1, 0) is the first cell; every recomputed row reads it, directly
    # or through the level sizes rebuilt from the cells
    cell = doc["payload"]["layers"][0][0]
    assert cell[:2] == [1, 0]
    cell[2] = format(int(cell[2], 16) + 998, "x")
    _write_canonical(path, doc)
    with pytest.raises(CacheError, match="fails recomputation"):
        load_table(path, make())


@pytest.mark.parametrize("payload", [
    [], "x", None,
    {"table": "plain", "n_max": "3", "layers": [[]]},  # spec not a dict
])
def test_cache_payload_not_an_object_refused(tmp_path, capsys, payload):
    from adjhier.cache import FORMAT_VERSION, _checksum
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                "payload": payload,
                                "checksum": _checksum(payload)}))
    with pytest.raises(CacheError, match="payload"):
        load_table(path, compute_b_table(3))
    assert main(["levels", "--n", "3", "--cache", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cache_nested_too_deep_refused(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(CacheError, match="not valid JSON"):
        load_table(path, compute_b_table(3))
    assert main(["levels", "--n", "3", "--cache", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _drop_layer(layers):
    layers.pop()


def _cell_outside_triangle(layers):
    layers[0].append([3, 3, "1"])


def _cell_far_outside_triangle(layers):
    # refused before any column is allocated for it
    layers[0].append([5, 10**9, "1"])


def _cell_of_wrong_length(layers):
    layers[0][0].append("0")


def _base_cell_changed(layers):
    # b(1, 0); the row step reads it in every row
    cell = next(cell for cell in layers[0] if cell[:2] == [1, 0])
    cell[2] = format(int(cell[2], 16) + 998, "x")


@pytest.mark.parametrize("edit", [_drop_layer, _cell_outside_triangle,
                                  _cell_far_outside_triangle,
                                  _cell_of_wrong_length, _base_cell_changed])
@pytest.mark.parametrize("command", ["table", "minbounded"])
def test_cache_corruption_is_hard_error(tmp_path, capsys, command, edit):
    path = tmp_path / "cache.json"
    argv = [command, "--n", "5", "--cache", str(path)]
    first = out_of(argv, capsys)
    doc = json.loads(path.read_text())
    edit(doc["payload"]["layers"])
    _write_canonical(path, doc)
    written = path.read_bytes()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cached table fails recomputation\n"
    assert path.read_bytes() == written
    path.unlink()
    assert out_of(argv, capsys) == first


@pytest.mark.parametrize("args, cached", [
    (("table", "--n", "20"), True),
    (("minbounded", "--n", "2000"), True),
    (("rank-profile", "--n", "18"), False),  # the profiles take no cache
    (("card-profile", "--n", "18"), False),
])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_output_matches_recorded_digests(tmp_path, args, cached, fmt):
    """Cold and warm runs, or one uncached run, reproduce the stdout
    digests the benchmark recorded for these commands."""
    digests = json.loads((Path(__file__).parents[1] / "perfbench"
                          / "digests.json").read_text())
    argv = list(args) + ["--format", fmt]
    cache = tmp_path / "cache.json"
    cmd = CommandSpec.from_args(build_parser().parse_args(
        argv + ["--cache", str(cache)] * cached))
    written = []
    for phase in ("cold", "warm") if cached else ("uncached",):
        code, text = run(cmd)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == \
            digests[" ".join(argv)], phase
        written.append(cache.stat().st_mtime_ns if cached else None)
    assert len(set(written)) == 1  # the warm run read the cache
    assert cache.exists() == cached


ORACLE_DIGESTS = json.loads(
    (Path(__file__).parent / "oracle_digests.json").read_text())


@pytest.mark.parametrize("argv", sorted(ORACLE_DIGESTS))
def test_oracle_verify_matches_recorded_digests(argv):
    """oracle-verify stdout is pinned byte for byte (atoms u=2 is left out
    for its run time; acceptance criterion 8 checks it)."""
    code, text = run(CommandSpec.from_args(
        build_parser().parse_args(argv.split())))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_DIGESTS[argv]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_record(argv: str, tmp: Path) -> dict:
    """Exit code and stdout/stderr digests of one command line; a DUMP
    argument becomes a directory under ``tmp`` whose summary.json is
    digested too."""
    dump = tmp / "dump"
    code, out, err = _run_captured(
        [str(dump) if a == "DUMP" else a for a in argv.split()])
    record = {"code": code, "stdout": _sha(out), "stderr": _sha(err)}
    if "DUMP" in argv.split():
        record["summary.json"] = _sha((dump / "summary.json").read_text())
    return record


CLI_DIGESTS = json.loads(
    (Path(__file__).parent / "cli_digests.json").read_text())


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS))
def test_cli_matches_recorded_digests(tmp_path, argv):
    """Every subcommand in every format, refusals included, is pinned
    byte for byte: exit code, stdout, stderr and a --dump summary.json."""
    assert cli_record(argv, tmp_path) == CLI_DIGESTS[argv]


def test_bounded_oracle_refused_before_pair_loop(monkeypatch, capsys):
    # levels 1..5 take 12,709 adjunctions; level 6 would take 21 million
    from adjhier.hfs import SetEngine
    pairs = []
    adjoin_level = SetEngine.adjoin_level

    def counted(self, xs, ys):
        for sid in adjoin_level(self, xs, ys):
            pairs.append(1)
            yield sid

    monkeypatch.setattr(SetEngine, "adjoin_level", counted)
    assert main(["oracle-verify", "--variant", "bounded", "--f", "identity",
                 "--n", "7"]) == 3
    err = capsys.readouterr().err
    assert "level 6" in err and "Traceback" not in err
    assert 0 < len(pairs) < 20_000


def test_atoms_oracle_refused_before_pair_loop(capsys):
    # level 3 holds 898 sets, so level 4 may hold 803,714
    start = time.perf_counter()
    assert main(["oracle-verify", "--variant", "atoms", "--u", "3",
                 "--n", "4"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "atoms oracle level 4 may hold 803714 sets" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, level, seconds", [
    (["--variant", "plain", "--n", "7"], 6, 2.0),
    (["--variant", "minbounded", "--n", "14"], 14, 2.0),
    # level 0 alone would intern a billion atoms
    (["--variant", "atoms", "--u", "1000000000", "--n", "0"], 0, 1.0),
])
def test_oracle_refusal_names_its_level(argv, level, seconds, capsys):
    start = time.perf_counter()
    assert main(["oracle-verify"] + argv) == 3
    assert time.perf_counter() - start < seconds
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"oracle level {level} may hold" in captured.err


@pytest.mark.parametrize("argv", [["levels", "--n", "26"],
                                  ["constant", "--n", "26", "--digits", "5"]])
def test_too_deep_table_refused_at_once(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "level 23 may need" in captured.err


@pytest.mark.parametrize("argv", [
    ["bounded", "--f", "log2", "--n", str(recurrence.ROW_COUNT_CAP + 1)],
    ["bounded", "--f", "half", "--n", str(10 ** 30)],
    ["minbounded", "--n", str(10 ** 30)],
])
def test_more_rows_than_the_cap_refused_at_once(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"past the row cap of {recurrence.ROW_COUNT_CAP}" in captured.err


def _write_count_cache(path, n_max, cells):
    from adjhier.cache import FORMAT_VERSION
    payload = {"table": {"kind": "plain"}, "n_max": str(n_max),
               "layers": [cells]}
    _write_canonical(path, {"format_version": FORMAT_VERSION,
                            "payload": payload})


def test_emptied_cache_refused(tmp_path, capsys):
    # every row n >= 2 of an all-zero plain table recomputes to zeros;
    # only row 1 objects
    path = tmp_path / "cache.json"
    _write_count_cache(path, 5, [])
    written = path.read_bytes()
    assert main(["levels", "--n", "5", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "fails recomputation" in captured.err
    assert path.read_bytes() == written


def test_cache_for_other_depth_rewritten_unloaded(tmp_path, capsys,
                                                  monkeypatch):
    from adjhier import recurrence
    swept = []
    sweep = recurrence._sweep

    def recorded(spec, n_max, *args, **kwargs):
        swept.append(n_max)
        return sweep(spec, n_max, *args, **kwargs)

    monkeypatch.setattr(recurrence, "_sweep", recorded)
    path = tmp_path / "cache.json"
    _write_count_cache(path, 10**6, [])
    out = out_of(["levels", "--n", "5", "--cache", str(path)], capsys)
    assert json.loads(out)["a"] == [str(v) for v in PLAIN_A[:6]]
    assert 10**6 not in swept
    assert json.loads(path.read_text())["payload"]["n_max"] == "5"


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
    original = verify_mod.verify

    def broken(spec, n_max):
        ls, checks = original(spec, 4)
        checks.append(verify_mod.Check("planted failure", False, "boom"))
        return ls, checks

    monkeypatch.setattr(verify_mod, "verify", broken)
    assert main(["oracle-verify", "--variant", "minbounded"]) == 1
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert any(not c["ok"] for c in doc["checks"])


# Argv fuzz.  Under small caps every input, hostile ones included, must
# end fast with an exit code in 0-3: 0 success, 1 failed verification,
# 2 usage or input error (argparse exits 2 itself), 3 resource cap.
FUZZ_BIT_BUDGET = 1024
FUZZ_LEVEL_SIZE_CAP = 2000
FUZZ_SECONDS = 3.0
HOSTILE = ["-1", "-99999999999", "1000000000", str(10 ** 30), "x", "1e3",
           "", " 7", "0x10"]
NUMBER = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(HOSTILE))
COUNT_OPTS = ["--cache"]
OPTIONS = {
    "levels": COUNT_OPTS,
    "table": COUNT_OPTS,
    "rank-profile": ["--t-range"],
    "card-profile": ["--t-range"],
    "atoms": COUNT_OPTS + ["--u"],
    "bounded": COUNT_OPTS + ["--f", "--skip-duplicates"],
    "minbounded": COUNT_OPTS + ["--skip-duplicates"],
    "constant": ["--digits"],
    "oracle-verify": ["--variant", "--u", "--f", "--dump"],
}


@st.composite
def fuzz_argv(draw, tmp):
    sub = draw(st.sampled_from(sorted(OPTIONS)))
    values = {
        "--n": NUMBER, "--u": NUMBER,
        "--digits": st.one_of(st.integers(-2, 40).map(str),
                              st.sampled_from(HOSTILE)),
        "--format": st.sampled_from(["json", "csv", "plain", "xml"]),
        "--f": st.sampled_from(["identity", "half", "sqrt", "log2", "cube",
                                f"file:{tmp / 'f.txt'}",
                                f"file:{tmp / 'missing.txt'}"]),
        "--t-range": st.sampled_from(["0:3", "2:4", "5:1", "-1:3", "3", ":",
                                      "x:y", "1000000000:1000000001",
                                      "0:1000000000"]),
        "--cache": st.sampled_from([str(tmp / "a.json"), str(tmp / "b.json"),
                                    str(tmp / "no-dir" / "c.json")]),
        "--variant": st.sampled_from(["plain", "atoms", "bounded",
                                      "minbounded", "cumulative"]),
        "--dump": st.just(str(tmp / "dump")),
    }
    argv = [sub]
    for opt in draw(st.lists(st.sampled_from(
            ["--n", "--format"] + OPTIONS[sub]), unique=True)):
        argv.append(opt)
        if opt != "--skip-duplicates":
            argv.append(draw(values[opt]))
    argv += draw(st.lists(st.sampled_from(["--bogus", "extra", "--n"]),
                          max_size=1))
    return argv


BOUND_LINE = st.one_of(st.integers(-1, 30).map(str),
                       st.sampled_from(["", "x", " 3 ", str(10 ** 20)]))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(data=st.data())
def test_argv_fuzz_exits_cleanly_and_fast(tmp_path_factory, data):
    tmp = tmp_path_factory.getbasetemp() / "argv-fuzz"
    tmp.mkdir(exist_ok=True)
    (tmp / "f.txt").write_text("\n".join(data.draw(
        st.lists(BOUND_LINE, max_size=40), label="bound file")) + "\n")
    argv = data.draw(fuzz_argv(tmp), label="argv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "ROW_BIT_BUDGET", FUZZ_BIT_BUDGET)
        mp.setattr(oracle, "DEFAULT_LEVEL_SIZE_CAP", FUZZ_LEVEL_SIZE_CAP)
        start = time.perf_counter()
        code, _, err = _run_captured(argv)
        elapsed = time.perf_counter() - start
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err)
    if any(opt == "--n" and re.fullmatch(r"-\d+", value)
           for opt, value in zip(argv, argv[1:])):
        assert code == 2, (argv, code, err)  # a negative depth is refused
    assert "Traceback" not in err, (argv, err)
    assert elapsed < FUZZ_SECONDS, (argv, elapsed)


@pytest.mark.parametrize("sub", sorted(OPTIONS))
def test_negative_depth_refused(sub):
    # the profiles fill no layer at a negative depth, so they check it
    # themselves; every subcommand refuses it with no output
    assert _run_captured([sub, "--n", "-1"]) == (
        2, "", "error: n_max must be nonnegative\n")


SMALL_ARGV = {"levels": ["--n", "6"], "table": ["--n", "6"],
              "rank-profile": ["--n", "6"], "card-profile": ["--n", "6"],
              "atoms": ["--n", "3"], "bounded": ["--n", "9"],
              "minbounded": ["--n", "5"],
              "constant": ["--n", "12", "--digits", "3"],
              "oracle-verify": ["--n", "3"]}


@pytest.mark.parametrize("sub", sorted(SMALL_ARGV))
def test_tables_freed_without_the_cycle_collector(sub, capsys):
    # no table refers back to itself through its layers or its column
    # function, so reference counting frees it when its command returns,
    # before the output renders
    tables = (CountTable, RefinedTable)
    gc.collect()
    gc.disable()
    try:
        before = [o for o in gc.get_objects() if isinstance(o, tables)]
        assert main([sub] + SMALL_ARGV[sub]) == 0
        old = set(map(id, before))
        left = [o.__class__.__name__ for o in gc.get_objects()
                if isinstance(o, tables) and id(o) not in old]
    finally:
        gc.enable()
    assert left == []
