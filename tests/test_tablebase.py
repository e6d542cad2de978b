"""Endgame tables: enumeration, solving, persistence, probing, audit."""

import os
import random
import struct
from array import array

import pytest

from doushouqi.rules import (
    BLACK,
    BLACK_DEN,
    Move,
    Outcome,
    PieceKind,
    Position,
    WHITE,
    legal_moves,
    mirror_move,
    mirror_position,
    move_text,
    parse_square,
    piece_code,
    terminal_state,
)
from doushouqi.search import (
    MATE_BOUND,
    TranspositionTable,
    WIN_SCORE,
    alphabeta,
)
from doushouqi.tablebase import (
    ALLOWED_NONRAT,
    ALLOWED_RAT,
    MissingPartitionError,
    Partition,
    Tablebase,
    TablebaseStore,
    Value,
    aggregate_stats,
    all_partitions,
    canonicalize,
    index,
    probe,
    read_tablebase,
    solve,
    solve_pair,
    stats,
    unindex,
    verify,
    write_tablebase,
)

RNG_SEED = 40


def pos2(w_kind, w_sq, b_kind, b_sq, stm=WHITE):
    board = bytearray(63)
    board[parse_square(w_sq)] = piece_code(WHITE, w_kind)
    board[parse_square(b_sq)] = piece_code(BLACK, b_kind)
    return Position(bytes(board), stm)


# --- enumeration ------------------------------------------------------------

def test_allowed_square_lists():
    assert len(ALLOWED_RAT) == 61
    assert len(ALLOWED_NONRAT) == 49
    for den in (parse_square("d1"), parse_square("d9")):
        assert den not in ALLOWED_RAT
        assert den not in ALLOWED_NONRAT
    assert parse_square("b4") in ALLOWED_RAT
    assert parse_square("b4") not in ALLOWED_NONRAT


def test_partition_basics():
    ee = Partition.from_name("E_e")
    assert ee.name == "E_e" and ee.filename == "E_e.dsqt"
    assert ee.capacity == 49 * 49 == 2401
    assert Partition.from_name("R_e").capacity == 61 * 49
    assert Partition.from_name("R_r").capacity == 61 * 61
    tl = Partition.from_name("T_l")
    assert tl.swapped == Partition.from_name("L_t")
    assert Partition.from_masks(*tl.masks()) == tl
    multi = Partition.of_kinds(
        [PieceKind.LION, PieceKind.TIGER], [PieceKind.ELEPHANT]
    )
    assert multi.name == "TL_e"  # letters by ascending strength
    assert Partition.of_position(pos2(PieceKind.TIGER, "a7", PieceKind.TIGER, "a9")) \
        == Partition.from_name("T_t")
    with pytest.raises(ValueError):
        Partition.of_kinds([], [PieceKind.RAT])
    with pytest.raises(ValueError):
        Partition.from_name("E_x")
    with pytest.raises(ValueError):
        Partition.of_kinds(
            [PieceKind.RAT, PieceKind.CAT, PieceKind.WOLF],
            [PieceKind.RAT, PieceKind.CAT],
        )
    assert len(all_partitions(2)) == 64


def test_index_round_trip_and_collisions():
    rng = random.Random(RNG_SEED)
    for name in ("E_e", "R_e", "R_r", "T_l", "C_d"):
        part = Partition.from_name(name)
        seen_valid = 0
        for _ in range(3000):
            idx = rng.randrange(part.capacity)
            pos = unindex(idx, part)
            if pos is None:
                continue
            seen_valid += 1
            assert index(pos, part) == idx
        assert seen_valid > 2500
    # Index 0 places every piece on its first allowed square: a collision.
    assert unindex(0, Partition.from_name("E_e")) is None


def test_index_rejects_mismatches():
    part = Partition.from_name("E_e")
    with pytest.raises(ValueError):
        index(pos2(PieceKind.TIGER, "a1", PieceKind.ELEPHANT, "b2"), part)
    with pytest.raises(ValueError):
        index(pos2(PieceKind.ELEPHANT, "a1", PieceKind.ELEPHANT, "b2", BLACK), part)


def test_canonicalize():
    pos = pos2(PieceKind.CAT, "f3", PieceKind.DOG, "a9")
    assert canonicalize(pos) == (pos, False)
    black_view = Position(pos.board, BLACK)
    canon, mirrored = canonicalize(black_view)
    assert mirrored and canon.stm == WHITE
    assert canon == mirror_position(black_view)
    assert mirror_position(canon) == black_view


# --- solving ----------------------------------------------------------------

def test_equal_elephants_solved_exactly(two_piece_store):
    s = stats(two_piece_store.tables["E_e"])
    assert s.positions == 2352
    assert (s.wins, s.losses, s.draws) == (1317, 1035, 0)
    assert s.longest_plies == 34 and s.longest_winner_moves == 17


def test_two_piece_aggregate_matches_reference_counts(two_piece_store):
    agg = two_piece_store.stats()
    assert agg.positions == 160_068
    assert agg.wins == 82_852
    assert agg.losses == 64_501
    assert agg.draws == 12_715
    assert agg.positions == agg.wins + agg.losses + agg.draws
    assert agg.longest_plies == 34


def test_same_strength_partitions_never_draw(two_piece_store):
    for name in ("C_c", "W_w", "D_d", "P_p", "T_t", "L_l", "E_e", "R_r"):
        assert stats(two_piece_store.tables[name]).draws == 0, name


def test_solved_pair_halves_are_linked(two_piece_store):
    tl = two_piece_store.tables["T_l"]
    assert tl.sibling is two_piece_store.tables["L_t"]
    assert two_piece_store.tables["E_e"].sibling is two_piece_store.tables["E_e"]


# --- reference diagrams -------------------------------------------------------

def test_elephant_face_off_loses_in_twelve(two_piece_store):
    pos = pos2(PieceKind.ELEPHANT, "d3", PieceKind.ELEPHANT, "d7")
    value, dtm, move = two_piece_store.probe(pos)
    assert value is Value.LOSS
    assert dtm == 12          # Black lands the win with his sixth move
    assert move is not None


def test_tiger_duel_wins_in_ten_via_a6(two_piece_store):
    pos = pos2(PieceKind.TIGER, "a7", PieceKind.TIGER, "a9")
    value, dtm, move = two_piece_store.probe(pos)
    assert value is Value.WIN
    assert dtm == 19 and (dtm + 1) // 2 == 10
    assert move_text(pos, move) == "Ta6"


def test_cat_versus_dog_corner_is_drawn(two_piece_store):
    value, dtm, _ = two_piece_store.probe(pos2(PieceKind.CAT, "f3", PieceKind.DOG, "a9"))
    assert value is Value.DRAW and dtm == 0


def test_lion_cannot_hold_off_elephant(two_piece_store):
    value, _, _ = two_piece_store.probe(pos2(PieceKind.LION, "g5", PieceKind.ELEPHANT, "d7"))
    assert value is Value.LOSS


def test_win_in_one_best_move_ends_the_game(two_piece_store):
    pos = pos2(PieceKind.ELEPHANT, "c9", PieceKind.ELEPHANT, "a1")
    value, dtm, move = two_piece_store.probe(pos)
    assert value is Value.WIN and dtm == 1
    assert move == Move(parse_square("c9"), BLACK_DEN)


# --- probing ----------------------------------------------------------------

def test_probe_mirror_invariance(two_piece_store):
    rng = random.Random(RNG_SEED + 1)
    checked = 0
    while checked < 25:
        part = Partition.from_name(rng.choice(("T_l", "R_e", "C_d", "E_e")))
        pos = unindex(rng.randrange(part.capacity), part)
        if pos is None:
            continue
        value, dtm, move = two_piece_store.probe(pos)
        mirrored = mirror_position(pos)
        m_value, m_dtm, m_move = two_piece_store.probe(mirrored)
        assert (value, dtm) == (m_value, m_dtm)
        if move is None:
            assert m_move is None
        else:
            assert m_move == mirror_move(move)
        checked += 1


def test_loss_probe_maximizes_delay(two_piece_store):
    pos = pos2(PieceKind.ELEPHANT, "d3", PieceKind.ELEPHANT, "d7")
    _, dtm, move = two_piece_store.probe(pos)
    from doushouqi.rules import apply_move
    succ = apply_move(pos, move)
    succ_value, succ_dtm = two_piece_store.probe_value(succ)
    assert succ_value == int(Value.WIN) and succ_dtm == dtm - 1


def test_store_covers_and_errors(two_piece_store):
    from doushouqi.rules import initial_position
    assert not two_piece_store.covers(initial_position())
    pos = pos2(PieceKind.CAT, "f3", PieceKind.DOG, "a9")
    assert two_piece_store.covers(pos)
    assert two_piece_store.probe_value(pos) == (int(Value.DRAW), 0)
    empty = TablebaseStore()
    assert not empty.covers(pos)
    with pytest.raises(MissingPartitionError):
        empty.probe_value(pos)


# --- verification -----------------------------------------------------------

def test_verify_accepts_fresh_tables(two_piece_store):
    for name in ("T_l", "R_e"):
        assert verify(two_piece_store.tables[name]) == []


def test_verify_flags_corrupted_entry(two_piece_store):
    clean = two_piece_store.tables["C_d"]
    broken_entries = array("H", clean.entries)
    for i, packed in enumerate(broken_entries):
        if packed & 3 == Value.WIN:
            broken_entries[i] = packed ^ 3  # Win -> Loss, same dtm
            break
    broken = Tablebase(clean.partition, clean.rules_word, broken_entries)
    broken.sibling = clean.sibling
    assert len(verify(broken)) >= 1


# --- persistence ------------------------------------------------------------

def test_file_round_trip_and_header(tmp_path, two_piece_store):
    tb = two_piece_store.tables["T_l"]
    path = write_tablebase(tb, str(tmp_path))
    assert os.path.basename(path) == "T_l.dsqt"
    raw = open(path, "rb").read()
    magic, version, flags, wm, bm, reserved, count = struct.unpack_from(
        "<4sHHBBIQ", raw
    )
    assert magic == b"DSQT" and version == 1
    assert flags == tb.rules_word == 3
    assert wm == 1 << (PieceKind.TIGER - 1)
    assert bm == 1 << (PieceKind.LION - 1)
    assert reserved == 0 and count == tb.partition.capacity
    assert len(raw) == 22 + 2 * count
    back = read_tablebase(path)
    assert back.partition == tb.partition
    assert back.entries == tb.entries


def test_read_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.dsqt"
    path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(ValueError):
        read_tablebase(str(path))


def test_store_directory_round_trip(tmp_path, two_piece_store):
    small = TablebaseStore(
        [two_piece_store.tables["E_e"], two_piece_store.tables["T_l"],
         two_piece_store.tables["L_t"]]
    )
    paths = small.save_directory(str(tmp_path))
    assert len(paths) == 3
    loaded = TablebaseStore.load_directory(str(tmp_path))
    assert sorted(loaded.tables) == ["E_e", "L_t", "T_l"]
    for name, tb in small.tables.items():
        assert loaded.tables[name].entries == tb.entries


def test_resolving_is_bit_identical(two_piece_store):
    again = solve(Partition.from_name("D_w"))
    assert again.entries == two_piece_store.tables["D_w"].entries


# --- three-piece composition ------------------------------------------------

def test_solve_requires_subgames_for_captures():
    with pytest.raises(MissingPartitionError):
        solve(Partition.from_name("CW_c"))


def test_three_piece_partition_agrees_with_forward_search(two_piece_store):
    part = Partition.from_name("CW_c")
    tb, twin = solve_pair(part, subgames=two_piece_store)
    assert twin.partition.name == "C_cw"
    s = stats(tb)
    assert s.positions == s.wins + s.losses + s.draws
    assert s.positions == 110_544  # 49^3 minus colliding placements
    rng = random.Random(RNG_SEED + 2)
    checked = 0
    while checked < 40:
        idx = rng.randrange(part.capacity)
        pos = unindex(idx, part)
        if pos is None:
            continue
        value, dtm = tb.entry(idx)
        if value is Value.WIN and dtm <= 7:
            expect = WIN_SCORE - dtm
        elif value is Value.LOSS and dtm <= 7:
            expect = -(WIN_SCORE - dtm)
        elif value is Value.DRAW:
            expect = None
        else:
            continue
        result = alphabeta(pos, 8 if expect is None else dtm + 1,
                           table=TranspositionTable(14))
        if expect is None:
            assert abs(result.score) < MATE_BOUND
        else:
            assert result.score == expect
        checked += 1


def test_blocked_placements_sit_outside_the_universe(two_piece_store, p_tl_pair):
    # A lone pig boxed in by tiger plus lion: 15 boxable squares, two
    # blocker arrangements each.  Such placements are terminal draws and
    # get the Invalid(1) marker instead of an entry.
    tb, _ = p_tl_pair
    part = tb.partition
    blocked = [
        idx for idx in range(part.capacity)
        if tb.entry(idx) == (Value.INVALID, 1)
    ]
    assert len(blocked) == 30
    s = stats(tb)
    assert s.positions == 110_544 - 30
    assert s.positions == s.wins + s.losses + s.draws

    pos = unindex(blocked[0], part)
    assert legal_moves(pos) == []
    assert terminal_state(pos) is Outcome.DRAW
    with pytest.raises(ValueError, match="blocked"):
        tb.lookup(pos)

    tampered_entries = array("H", tb.entries)
    tampered_entries[blocked[0]] = Value.DRAW
    tampered = Tablebase(part, tb.rules_word, tampered_entries)
    tampered.sibling = tb.sibling
    report = verify(tampered, two_piece_store, limit=1)
    assert report and "blocked placement" in report[0]


def test_blocked_census_tracks_the_capture_matrix(two_piece_store):
    # Leaps keep a boxed tiger off the river files (six corner boxes
    # only), and a rat eats the elephant out of any box holding one.
    def blocked_count(name):
        tb, _ = solve_pair(Partition.from_name(name), subgames=two_piece_store)
        return sum(
            1 for idx in range(tb.partition.capacity)
            if tb.entry(idx) == (Value.INVALID, 1)
        )

    assert blocked_count("T_le") == 12
    assert blocked_count("R_ce") == 0
