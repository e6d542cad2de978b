"""Command-line driver tests: golden output rows and exit codes.

Timing columns are always the last cell of their row and are checked only
for being parseable, never for their value.
"""

import os

import pytest

from doushouqi import mining
from doushouqi.cli import (
    EXIT_MISSING,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    load_config,
    main,
)
from doushouqi.search import MAX_PLY, TranspositionTable, alphabeta, minimax
from doushouqi.rules import position_from_text

FACING_ELEPHANTS = "7/7/3e3/7/7/7/3E3/7/7 w"
TIGER_RACE = "t6/7/T6/7/7/7/7/7/7 w"
CAT_CORNER = "d6/7/7/7/7/7/5C1/7/7 w"
QUIET = "7/7/7/7/7/7/7/7/E1e4 w"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


def cells(line):
    return line.split("\t")


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    # One full 2-piece build shared by every test that reads tables.
    directory = str(tmp_path_factory.mktemp("tables"))
    assert main(["--set", f"tablebase_dir={directory}", "solve", "2"]) == EXIT_OK
    return directory


# --- perft -------------------------------------------------------------------

def test_perft_rows(capsys):
    rc, out, _ = run(capsys, "perft", "initial", "3")
    assert rc == EXIT_OK
    rows = [cells(line) for line in out]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(1, 24), (2, 576), (3, 12240)]
    for r in rows:
        assert len(r) == 3
        float(r[2])


def test_perft_depth_zero(capsys):
    rc, out, _ = run(capsys, "perft", "initial", "0")
    assert rc == EXIT_OK
    assert cells(out[0])[:2] == ["0", "1"]


def test_perft_negative_depth(capsys):
    rc, _, err = run(capsys, "perft", "initial", "-1")
    assert rc == EXIT_USAGE
    assert "depth" in err


def test_perft_parse_error_reports_offset(capsys):
    rc, _, err = run(capsys, "perft", "7/7/7/7/7/7/7/7/E2e3 x", "1")
    assert rc == EXIT_PARSE
    assert "offset" in err


# --- search ------------------------------------------------------------------

def test_search_matches_library(capsys):
    rc, out, _ = run(capsys, "search", "initial", "3")
    assert rc == EXIT_OK
    row = cells(out[0])
    reference = alphabeta(position_from_text(mining_initial_text()), 3)
    assert int(row[0]) == reference.score


@pytest.mark.parametrize("depth", ("-1", str(MAX_PLY + 1), "200"))
def test_search_depth_outside_the_ply_limit(capsys, depth):
    rc, out, err = run(capsys, "search", "initial", depth)
    assert rc == EXIT_USAGE and out == []
    assert f"depth {depth} " in err and "Traceback" not in err


def mining_initial_text():
    from doushouqi.rules import INITIAL_POSITION_TEXT
    return INITIAL_POSITION_TEXT


def test_search_minimax_leaves_are_perft(capsys):
    rc, out, _ = run(capsys, "search", "initial", "3", "--algorithm", "minimax")
    assert rc == EXIT_OK
    row = cells(out[0])
    assert int(row[4 - 1]) == 12240          # leaves cell
    assert int(row[0]) == minimax(position_from_text(mining_initial_text()), 3).score


def test_search_table_toggle_keeps_score(capsys):
    rc1, out1, _ = run(capsys, "search", TIGER_RACE, "6")
    rc2, out2, _ = run(capsys, "search", TIGER_RACE, "6", "--no-table")
    assert rc1 == rc2 == EXIT_OK
    with_tt, without_tt = cells(out1[0]), cells(out2[0])
    assert with_tt[0] == without_tt[0]
    assert with_tt[1] == without_tt[1]
    assert int(with_tt[2]) < int(without_tt[2])


def test_search_probe_scores_from_tables(capsys, table_dir):
    rc, out, _ = run(
        capsys, "--set", f"tablebase_dir={table_dir}",
        "search", TIGER_RACE, "4", "--probe",
    )
    assert rc == EXIT_OK
    row = cells(out[0])
    assert int(row[0]) == 1_000_000 - 19
    assert row[1] == "Ta6"


def test_search_unknown_evaluator(capsys):
    rc, _, err = run(capsys, "search", "initial", "2", "--evaluator", "nope")
    assert rc == EXIT_USAGE
    assert "evaluator" in err


# --- solve -------------------------------------------------------------------

def test_solve_single_partition(tmp_path, capsys):
    directory = str(tmp_path / "tb")
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={directory}", "solve", "E_e")
    assert rc == EXIT_OK
    assert cells(out[0]) == ["E_e", "2352", "1317", "1035", "0", "34", "17"]
    total = cells(out[-1])
    assert total[:7] == ["TOTAL", "2352", "1317", "1035", "0", "34", "17"]
    float(total[7])
    assert os.path.exists(os.path.join(directory, "E_e.dsqt"))


def test_solve_writes_both_of_a_pair(tmp_path, capsys):
    directory = str(tmp_path / "tb")
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={directory}", "solve", "T_l")
    assert rc == EXIT_OK
    assert [cells(line)[0] for line in out] == ["L_t", "T_l", "TOTAL"]
    assert sorted(os.listdir(directory)) == ["L_t.dsqt", "T_l.dsqt"]


def test_solve_full_two_piece_aggregate(table_dir, capsys):
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={table_dir}", "stats", "2")
    assert rc == EXIT_OK
    assert len(out) == 65
    assert cells(out[-1]) == [
        "TOTAL", "160068", "82852", "64501", "12715", "34", "17",
    ]
    assert len(os.listdir(table_dir)) == 64


def test_solve_three_piece_needs_subgames(tmp_path, capsys):
    directory = str(tmp_path / "tb")
    rc, _, err = run(capsys, "--set", f"tablebase_dir={directory}", "solve", "CW_c")
    assert rc == EXIT_MISSING
    assert "C_c" in err and "W_c" in err


def test_solve_three_piece_partition(tmp_path, capsys):
    directory = str(tmp_path / "tb")
    for name in ("R_r", "R_c", "C_r"):
        assert main(["--set", f"tablebase_dir={directory}", "solve", name]) == EXIT_OK
    capsys.readouterr()
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={directory}", "solve", "RC_r")
    assert rc == EXIT_OK
    names = [cells(line)[0] for line in out]
    assert names == ["RC_r", "R_rc", "TOTAL"]
    for line in out[:-1]:
        row = cells(line)
        assert int(row[1]) == int(row[2]) + int(row[3]) + int(row[4])


def test_solve_bad_pieces(capsys):
    rc, _, err = run(capsys, "solve", "Q_q")
    assert rc == EXIT_USAGE
    assert "Q_q" in err


# --- stats and verify --------------------------------------------------------

def test_stats_single_partition(table_dir, capsys):
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={table_dir}", "stats", "E_e")
    assert rc == EXIT_OK
    assert cells(out[0]) == ["E_e", "2352", "1317", "1035", "0", "34", "17"]


def test_stats_unbuilt_partition(table_dir, capsys):
    directory = str(table_dir)
    rc, _, err = run(capsys, "--set", f"tablebase_dir={directory}", "stats", "CW_c")
    assert rc == EXIT_MISSING
    assert "CW_c" in err


def test_stats_missing_directory(tmp_path, capsys):
    rc, _, _ = run(capsys, "--set", f"tablebase_dir={tmp_path / 'nope'}", "stats")
    assert rc == EXIT_MISSING


def test_verify_clean_partition(table_dir, capsys):
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={table_dir}", "verify", "E_e")
    assert rc == EXIT_OK
    assert cells(out[0]) == ["E_e", "0"]
    assert cells(out[-1]) == ["TOTAL", "0"]


def test_verify_flags_corruption(tmp_path, capsys):
    directory = str(tmp_path / "tb")
    assert main(["--set", f"tablebase_dir={directory}", "solve", "E_e"]) == EXIT_OK
    capsys.readouterr()
    path = os.path.join(directory, "E_e.dsqt")
    from doushouqi.tablebase import Value, read_tablebase
    table = read_tablebase(path)
    target = next(
        idx for idx, _ in table.positions()
        if table.entry(idx)[0] is Value.WIN
    )
    raw = bytearray(open(path, "rb").read())
    offset = len(raw) - 2 * len(table.entries) + 2 * target
    packed = raw[offset] | raw[offset + 1] << 8
    packed = (packed & ~3) | int(Value.LOSS)  # flip one WIN entry to LOSS
    raw[offset] = packed & 0xFF
    raw[offset + 1] = packed >> 8
    open(path, "wb").write(bytes(raw))
    rc, out, err = run(capsys, "--set", f"tablebase_dir={directory}", "verify")
    assert rc == EXIT_VERIFY
    assert int(cells(out[-1])[1]) > 0
    assert "E_e" in err


def test_probe_variant_mismatch(tmp_path, capsys):
    directory = str(tmp_path / "tb")
    variant = ["--set", "rat_from_water_captures_elephant=true"]
    assert main(variant + ["--set", f"tablebase_dir={directory}", "solve", "R_e"]) == EXIT_OK
    capsys.readouterr()
    rc, _, err = run(capsys, "--set", f"tablebase_dir={directory}", "probe", QUIET)
    assert rc == EXIT_MISSING
    assert "flag word" in err


# --- probe -------------------------------------------------------------------

def test_probe_win_with_move(table_dir, capsys):
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={table_dir}", "probe", TIGER_RACE)
    assert rc == EXIT_OK
    assert out[0].startswith("# White to move wins in 19 plies")
    assert cells(out[1]) == ["WIN", "19", "Ta6"]


def test_probe_draw(table_dir, capsys):
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={table_dir}", "probe", CAT_CORNER)
    assert rc == EXIT_OK
    row = cells(out[1])
    assert row[0] == "DRAW"
    assert row[1] == "0"
    assert row[2] != "-"


def test_probe_loss(table_dir, capsys):
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={table_dir}", "probe", FACING_ELEPHANTS)
    assert rc == EXIT_OK
    assert cells(out[1])[:2] == ["LOSS", "12"]


def test_probe_terminal_position(table_dir, capsys):
    rc, _, err = run(
        capsys, "--set", f"tablebase_dir={table_dir}",
        "probe", "3E3/7/7/7/7/7/7/7/7 w",
    )
    assert rc == EXIT_PARSE
    assert "terminal" in err


def test_probe_uncovered_position(table_dir, capsys):
    rc, _, _ = run(
        capsys, "--set", f"tablebase_dir={table_dir}",
        "probe", "7/7/3e3/7/7/7/3E3/7/2C4 w",
    )
    assert rc == EXIT_MISSING


# --- features, mine, classify ------------------------------------------------

def test_features_rows(table_dir, capsys):
    rc, out, _ = run(capsys, "--set", f"tablebase_dir={table_dir}", "features", "C_c")
    assert rc == EXIT_OK
    assert len(out) == 2352
    first = out[0].split("\t")
    assert len(first) == 3
    assert first[0].endswith(" w")
    assert len(first[1].split(" ")) == len(mining.FEATURE_NAMES)
    assert first[2] in mining.LABELS


def test_features_need_two_pieces(capsys):
    rc, _, _ = run(capsys, "features", "CW_c")
    assert rc == EXIT_USAGE


def test_mine_induced_tree_is_exact_for_elephants(tmp_path, table_dir, capsys):
    out_dir = str(tmp_path / "mined")
    rc, out, _ = run(
        capsys, "--set", f"tablebase_dir={table_dir}",
        "mine", "E_e", "--out-dir", out_dir,
    )
    assert rc == EXIT_OK
    row = cells(out[0])
    assert row[:3] == ["E_e", "2352", "0"]
    tree_text = open(row[4], encoding="utf-8").read()
    tree = mining.parse_tree(tree_text)
    assert mining.format_tree(tree) + "\n" == tree_text
    assert sum(1 for _ in open(row[3], encoding="utf-8")) == 2352


def test_mine_lion_fixture_misclassifies_sixteen(tmp_path, table_dir, capsys):
    out_dir = str(tmp_path / "mined")
    rc, out, _ = run(
        capsys, "--set", f"tablebase_dir={table_dir}",
        "mine", "L_e", "--fixture", "lion", "--out-dir", out_dir,
    )
    assert rc == EXIT_OK
    assert cells(out[0])[:3] == ["L_e", "2352", "16"]


def test_mine_feature_subset(tmp_path, table_dir, capsys):
    rc, out, _ = run(
        capsys, "--set", f"tablebase_dir={table_dir}",
        "mine", "E_e", "--features", "closest,unopposed_w,unopposed_b,parity",
        "--out-dir", str(tmp_path / "mined"),
    )
    assert rc == EXIT_OK
    assert cells(out[0])[2] == "0"


@pytest.mark.parametrize("argv, code", [
    (["mine"], EXIT_USAGE),
    (["mine", "E_e", "--features", "bogus"], EXIT_USAGE),
    (["mine", "E_e", "--fixture", "nope"], EXIT_USAGE),
    (["mine", "E_e", "--fixture", "lion", "--features", "parity"], EXIT_USAGE),
    (["mine", "ZZZ"], EXIT_USAGE),
])
def test_mine_usage_errors(capsys, argv, code):
    rc, _, _ = run(capsys, *argv)
    assert rc == code


def test_classify_through_tree_file(tmp_path, capsys):
    path = tmp_path / "equal.tree.txt"
    path.write_text(mining.format_tree(mining.equal_material_tree()) + "\n")
    rc, out, _ = run(capsys, "classify", FACING_ELEPHANTS, "--tree", str(path))
    assert rc == EXIT_OK
    assert out == ["BlackWin"]


def test_classify_rejects_bad_tree(tmp_path, capsys):
    path = tmp_path / "bad.tree.txt"
    path.write_text("? nonsense\n")
    rc, _, err = run(capsys, "classify", FACING_ELEPHANTS, "--tree", str(path))
    assert rc == EXIT_PARSE
    assert "tree" in err


def test_classify_missing_tree_file(tmp_path, capsys):
    rc, _, _ = run(capsys, "classify", FACING_ELEPHANTS, "--tree", str(tmp_path / "nope.txt"))
    assert rc == EXIT_MISSING


def test_classify_needs_white_to_move(tmp_path, capsys):
    path = tmp_path / "equal.tree.txt"
    path.write_text(mining.format_tree(mining.equal_material_tree()) + "\n")
    rc, _, _ = run(capsys, "classify", "7/7/3e3/7/7/7/3E3/7/7 b", "--tree", str(path))
    assert rc == EXIT_PARSE


# --- configuration -----------------------------------------------------------

def test_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "tablebase_dir = here\n"
        "zobrist_seed = 0xBEEF\n"
        "tt_size_log2 = 16\n"
    )
    config = load_config(str(path), ["tt_size_log2=14"])
    assert config.tablebase_dir == "here"
    assert config.zobrist_seed == 0xBEEF
    assert config.tt_size_log2 == 14
    assert config.threads == 1


def test_config_tt_size_range_is_the_tables():
    for size in (TranspositionTable.MIN_SIZE_LOG2, TranspositionTable.MAX_SIZE_LOG2):
        assert load_config(None, [f"tt_size_log2={size}"]).tt_size_log2 == size


def test_config_ruleset_flag_word(tmp_path):
    config = load_config(None, ["rat_from_water_captures_elephant=true"])
    assert config.ruleset().flag_word == 7
    assert load_config(None, []).ruleset().flag_word == 3


@pytest.mark.parametrize("text", [
    "bogus = 1\n",
    "tt_size_log2 = banana\n",
    "rat_capture_into_water = maybe\n",
    "tt_size_log2 = 16\ntt_size_log2 = 17\n",
    "just some words\n",
])
def test_config_file_rejects(tmp_path, capsys, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    rc, _, err = run(capsys, "--config", str(path), "perft", "initial", "1")
    assert rc == EXIT_USAGE
    assert err


@pytest.mark.parametrize("override", [
    "tt_size_log2=30",
    "tt_size_log2=2",
    "tt_size_log2=5",
    "tt_size_log2=29",
    "threads=0",
    "zobrist_seed=-1",
    "tablebase_dir=",
    "nonsense",
])
def test_bad_overrides(capsys, override):
    rc, _, _ = run(capsys, "--set", override, "perft", "initial", "1")
    assert rc == EXIT_USAGE


def test_missing_config_file(capsys):
    rc, _, _ = run(capsys, "--config", "/nonexistent/run.cfg", "perft", "initial", "1")
    assert rc == EXIT_USAGE


def test_help_and_no_command(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
