"""Rules kernel: board geometry, move legality, terminal detection, perft."""

import random

import pytest

from doushouqi.rules import (
    BLACK,
    BLACK_DEN,
    DEFAULT_RULESET,
    INITIAL_POSITION_TEXT,
    IllegalMoveError,
    InvalidPositionError,
    Move,
    NEIGHBORS,
    Outcome,
    PieceKind,
    Position,
    Ruleset,
    Terrain,
    TRAPS,
    WATER_SQUARES,
    WHITE,
    WHITE_DEN,
    apply_move,
    can_capture,
    initial_position,
    legal_moves,
    mirror_move,
    mirror_position,
    mirror_square,
    move_text,
    parse_move,
    parse_square,
    perft,
    piece_code,
    position_from_text,
    position_to_text,
    square_name,
    terminal_state,
    terrain_at,
    validate_position,
)
from doushouqi.rules import MAX_PERFT_DEPTH, _generate, _has_move

RNG_SEED = 20120711


def sparse(stm, *placements):
    """Position from (square-name, color, kind) triples."""
    board = bytearray(63)
    for name, color, kind in placements:
        board[parse_square(name)] = piece_code(color, kind)
    return Position(bytes(board), stm)


def random_playout(rng, max_plies):
    pos = initial_position()
    for _ in range(rng.randrange(max_plies)):
        if terminal_state(pos) is not Outcome.ONGOING:
            break
        pos = apply_move(pos, rng.choice(legal_moves(pos)))
    return pos


# --- geometry -------------------------------------------------------------

def test_board_geometry():
    assert parse_square("a1") == 0
    assert parse_square("g1") == 6
    assert parse_square("a9") == 56
    assert parse_square("g9") == 62
    assert parse_square("d1") == WHITE_DEN
    assert parse_square("d9") == BLACK_DEN
    assert square_name(45) == "d7"
    with pytest.raises(ValueError):
        parse_square("h1")
    with pytest.raises(ValueError):
        parse_square("a0")


def test_terrain_layout():
    water = {parse_square(f + str(r)) for f in "bcef" for r in "456"}
    assert WATER_SQUARES == frozenset(water)
    assert len(WATER_SQUARES) == 12
    assert terrain_at(parse_square("b4")) is Terrain.WATER
    assert terrain_at(parse_square("d5")) is Terrain.LAND
    assert terrain_at(WHITE_DEN) is Terrain.WHITE_DEN
    assert terrain_at(BLACK_DEN) is Terrain.BLACK_DEN
    white_traps, black_traps = TRAPS
    assert set(white_traps) == {parse_square(s) for s in ("c1", "d2", "e1")}
    assert set(black_traps) == {parse_square(s) for s in ("c9", "d8", "e9")}
    assert all(terrain_at(sq) is Terrain.WHITE_TRAP for sq in white_traps)
    assert all(terrain_at(sq) is Terrain.BLACK_TRAP for sq in black_traps)


def test_mirror_square_involution():
    for sq in range(63):
        assert mirror_square(mirror_square(sq)) == sq
    assert mirror_square(WHITE_DEN) == BLACK_DEN


# --- initial position -----------------------------------------------------

def test_initial_position_layout():
    pos = initial_position()
    assert position_to_text(pos) == INITIAL_POSITION_TEXT
    assert pos.piece_count(WHITE) == 8
    assert pos.piece_count(BLACK) == 8
    assert pos.stm == WHITE
    expect = {
        "a1": (WHITE, PieceKind.TIGER),
        "g1": (WHITE, PieceKind.LION),
        "b2": (WHITE, PieceKind.CAT),
        "f2": (WHITE, PieceKind.DOG),
        "a3": (WHITE, PieceKind.ELEPHANT),
        "c3": (WHITE, PieceKind.WOLF),
        "e3": (WHITE, PieceKind.PANTHER),
        "g3": (WHITE, PieceKind.RAT),
        "a9": (BLACK, PieceKind.LION),
        "g9": (BLACK, PieceKind.TIGER),
        "b8": (BLACK, PieceKind.DOG),
        "f8": (BLACK, PieceKind.CAT),
        "a7": (BLACK, PieceKind.RAT),
        "c7": (BLACK, PieceKind.PANTHER),
        "e7": (BLACK, PieceKind.WOLF),
        "g7": (BLACK, PieceKind.ELEPHANT),
    }
    for name, colored_kind in expect.items():
        assert pos.piece_at(parse_square(name)) == colored_kind
    assert len(legal_moves(pos)) == 24
    assert len(legal_moves(Position(pos.board, BLACK))) == 24


# --- captures -------------------------------------------------------------

def test_capture_strength_order():
    order = [
        PieceKind.RAT, PieceKind.CAT, PieceKind.WOLF, PieceKind.DOG,
        PieceKind.PANTHER, PieceKind.TIGER, PieceKind.LION, PieceKind.ELEPHANT,
    ]
    for i, attacker in enumerate(order):
        for j, defender in enumerate(order):
            expected = i >= j
            if attacker is PieceKind.RAT and defender is PieceKind.ELEPHANT:
                expected = True
            assert can_capture(attacker, defender) == expected


def test_rat_elephant_water_rules():
    assert can_capture(PieceKind.RAT, PieceKind.ELEPHANT)
    assert not can_capture(PieceKind.RAT, PieceKind.ELEPHANT, attacker_in_water=True)
    assert can_capture(PieceKind.ELEPHANT, PieceKind.RAT)
    variant = Ruleset(rat_from_water_captures_elephant=True)
    assert can_capture(
        PieceKind.RAT, PieceKind.ELEPHANT, attacker_in_water=True, rules=variant
    )


def test_rat_water_edge_captures():
    assert can_capture(
        PieceKind.RAT, PieceKind.RAT, attacker_in_water=True, defender_in_water=True
    )
    assert can_capture(PieceKind.RAT, PieceKind.RAT, defender_in_water=True)
    assert can_capture(PieceKind.RAT, PieceKind.RAT, attacker_in_water=True)
    strict = Ruleset(False, False, False)
    assert not can_capture(
        PieceKind.RAT, PieceKind.RAT, defender_in_water=True, rules=strict
    )
    assert not can_capture(
        PieceKind.RAT, PieceKind.RAT, attacker_in_water=True, rules=strict
    )
    assert can_capture(
        PieceKind.RAT, PieceKind.RAT,
        attacker_in_water=True, defender_in_water=True, rules=strict,
    )


def test_trap_neutralizes_defender():
    assert can_capture(PieceKind.RAT, PieceKind.ELEPHANT, defender_on_attacker_trap=True)
    assert can_capture(PieceKind.CAT, PieceKind.LION, defender_on_attacker_trap=True)
    pos = sparse(
        WHITE,
        ("c1", BLACK, PieceKind.ELEPHANT),
        ("c2", WHITE, PieceKind.RAT),
        ("a9", BLACK, PieceKind.RAT),
    )
    captures = [m for m in legal_moves(pos) if m.capture]
    assert captures == [Move(parse_square("c2"), parse_square("c1"), True)]


def test_own_trap_does_not_weaken():
    # Black elephant on a black trap keeps its strength against White.
    pos = sparse(
        WHITE,
        ("c9", BLACK, PieceKind.ELEPHANT),
        ("c8", WHITE, PieceKind.DOG),
        ("a1", WHITE, PieceKind.RAT),
    )
    frm = parse_square("c8")
    assert all(
        not (m.from_sq == frm and m.to_sq == parse_square("c9"))
        for m in legal_moves(pos)
    )


# --- movement -------------------------------------------------------------

def test_only_rat_enters_water():
    pos = sparse(
        WHITE,
        ("b3", WHITE, PieceKind.RAT),
        ("c3", WHITE, PieceKind.WOLF),
        ("a9", BLACK, PieceKind.RAT),
    )
    targets = {m.to_sq for m in legal_moves(pos) if m.from_sq == parse_square("b3")}
    assert parse_square("b4") in targets
    wolf_targets = {m.to_sq for m in legal_moves(pos) if m.from_sq == parse_square("c3")}
    assert parse_square("c4") not in wolf_targets


def test_den_entry_restrictions():
    # A piece never enters its own den; entering the opposing den is a win.
    pos = sparse(
        WHITE,
        ("d2", WHITE, PieceKind.DOG),
        ("a9", BLACK, PieceKind.RAT),
    )
    dog_targets = {m.to_sq for m in legal_moves(pos) if m.from_sq == parse_square("d2")}
    assert WHITE_DEN not in dog_targets
    pos = sparse(
        WHITE,
        ("d8", WHITE, PieceKind.DOG),
        ("a1", BLACK, PieceKind.RAT),
    )
    win = Move(parse_square("d8"), BLACK_DEN)
    after = apply_move(pos, win)
    assert terminal_state(after) is Outcome.WHITE_WINS


def test_lion_leaps_river():
    pos = sparse(
        WHITE,
        ("b3", WHITE, PieceKind.LION),
        ("a9", BLACK, PieceKind.RAT),
    )
    targets = {m.to_sq for m in legal_moves(pos) if m.from_sq == parse_square("b3")}
    assert parse_square("b7") in targets  # vertical leap over b4-b6
    pos = sparse(
        WHITE,
        ("a4", WHITE, PieceKind.LION),
        ("a9", BLACK, PieceKind.RAT),
    )
    targets = {m.to_sq for m in legal_moves(pos) if m.from_sq == parse_square("a4")}
    assert parse_square("d4") in targets  # horizontal leap over b4, c4


def test_rat_blocks_leap():
    pos = sparse(
        WHITE,
        ("b3", WHITE, PieceKind.LION),
        ("b5", BLACK, PieceKind.RAT),
    )
    targets = {m.to_sq for m in legal_moves(pos) if m.from_sq == parse_square("b3")}
    assert parse_square("b7") not in targets
    # A rat in the other river channel does not block this one.
    pos = sparse(
        WHITE,
        ("b3", WHITE, PieceKind.LION),
        ("e5", BLACK, PieceKind.RAT),
    )
    targets = {m.to_sq for m in legal_moves(pos) if m.from_sq == parse_square("b3")}
    assert parse_square("b7") in targets


def test_leap_capture_on_landing():
    pos = sparse(
        WHITE,
        ("b3", WHITE, PieceKind.TIGER),
        ("b7", BLACK, PieceKind.DOG),
    )
    assert Move(parse_square("b3"), parse_square("b7"), True) in legal_moves(pos)
    pos = sparse(
        WHITE,
        ("b3", WHITE, PieceKind.TIGER),
        ("b7", BLACK, PieceKind.LION),
    )
    assert all(m.to_sq != parse_square("b7") for m in legal_moves(pos))


def test_swimming_rat_cannot_take_elephant():
    pos = sparse(
        WHITE,
        ("b4", WHITE, PieceKind.RAT),
        ("a4", BLACK, PieceKind.ELEPHANT),
    )
    frm = parse_square("b4")
    assert all(
        not (m.from_sq == frm and m.to_sq == parse_square("a4"))
        for m in legal_moves(pos)
    )
    variant = Ruleset(rat_from_water_captures_elephant=True)
    moves = legal_moves(pos, variant)
    assert Move(frm, parse_square("a4"), True) in moves


# --- apply/terminal -------------------------------------------------------

def test_apply_move_mechanics():
    pos = initial_position()
    move = parse_move(pos, "Rg4")
    after = apply_move(pos, move)
    assert after.stm == BLACK
    assert after.piece_at(parse_square("g4")) == (WHITE, PieceKind.RAT)
    assert after.piece_at(parse_square("g3")) is None
    with pytest.raises(IllegalMoveError):
        apply_move(pos, Move(parse_square("c3"), parse_square("c4")))  # wolf into water
    with pytest.raises(IllegalMoveError):
        apply_move(pos, Move(parse_square("a7"), parse_square("a6")))  # not mover's piece


def test_elimination_win():
    pos = sparse(
        WHITE,
        ("c3", WHITE, PieceKind.LION),
        ("b3", BLACK, PieceKind.CAT),
    )
    move = Move(parse_square("c3"), parse_square("b3"), True)
    after = apply_move(pos, move)
    assert terminal_state(after) is Outcome.WHITE_WINS
    assert after.piece_count(BLACK) == 0


def test_stalemate_is_draw():
    # Black rat boxed into the corner by uncapturable pieces; Black to move.
    pos = sparse(
        BLACK,
        ("a9", BLACK, PieceKind.RAT),
        ("a8", WHITE, PieceKind.LION),
        ("b9", WHITE, PieceKind.TIGER),
    )
    assert legal_moves(pos) == []
    assert terminal_state(pos) is Outcome.DRAW


def test_has_move_agrees_with_generate():
    # _has_move settles most boards by a legal step; check it
    # against the full move list on playouts and on random 3-4 piece boards
    # crowded into the a1 corner, where pieces get boxed in.
    rng = random.Random(RNG_SEED + 4)
    boards = [bytearray(random_playout(rng, 60).board) for _ in range(30)]
    corner = [parse_square(name) for name in ("a1", "a2", "a3", "b1", "b2", "c1")]
    codes = [piece_code(c, k) for c in (WHITE, BLACK) for k in PieceKind]
    for _ in range(3000):
        board = bytearray(63)
        for sq, code in zip(rng.sample(corner, 6), rng.sample(codes, rng.randrange(3, 5))):
            board[sq] = code
        boards.append(board)
    blocked = 0
    for board in boards:
        squares = [sq for sq in range(63) if board[sq]]
        for stm in (WHITE, BLACK):
            moves = _generate(board, stm, DEFAULT_RULESET)
            assert _has_move(board, stm, DEFAULT_RULESET, squares) == bool(moves)
            blocked += not moves and any(board[sq] >> 4 == stm for sq in squares)
    assert blocked >= 10


# --- independent move-generation oracle ------------------------------------

OWN_TRAP = (Terrain.WHITE_TRAP, Terrain.BLACK_TRAP)
OWN_DEN = (Terrain.WHITE_DEN, Terrain.BLACK_DEN)


def oracle_moves(board, stm, rules):
    """Per-piece move list straight from the rules text: NEIGHBORS,
    terrain_at, can_capture and river lines walked square by square.  It
    shares no table with _generate and follows its documented order."""
    moves = []

    def onto(sq, kind, dest):
        target = board[dest]
        if not target:
            moves.append((sq, dest, 0))
        elif target >> 4 != stm and can_capture(
            kind,
            PieceKind(target & 15),
            attacker_in_water=terrain_at(sq) is Terrain.WATER,
            defender_in_water=terrain_at(dest) is Terrain.WATER,
            defender_on_attacker_trap=terrain_at(dest) is OWN_TRAP[stm],
            rules=rules,
        ):
            moves.append((sq, dest, target))

    for sq in range(63):
        code = board[sq]
        if not code or code >> 4 != stm:
            continue
        kind = PieceKind(code & 15)
        for dest in NEIGHBORS[sq]:
            terrain = terrain_at(dest)
            if terrain is not OWN_DEN[stm] and (
                kind is PieceKind.RAT or terrain is not Terrain.WATER
            ):
                onto(sq, kind, dest)
        if kind not in (PieceKind.TIGER, PieceKind.LION):
            continue
        landings = []
        for df, dr in ((0, -1), (-1, 0), (1, 0), (0, 1)):
            f, r = sq % 7 + df, sq // 7 + dr
            crossed = []
            while 0 <= f < 7 and 0 <= r < 9 and terrain_at(r * 7 + f) is Terrain.WATER:
                crossed.append(r * 7 + f)
                f, r = f + df, r + dr
            if crossed and not any(board[m] for m in crossed):
                landings.append(r * 7 + f)
        for dest in sorted(landings):
            onto(sq, kind, dest)
    return moves


def oracle_boards(rng, count):
    """Seeded boards of 2-16 distinct pieces, each on a square it may hold;
    rats go to the water a third of the time."""
    codes = [piece_code(c, k) for c in (WHITE, BLACK) for k in PieceKind]
    water = sorted(WATER_SQUARES)
    land = [sq for sq in range(63) if sq not in WATER_SQUARES]
    for _ in range(count):
        board = bytearray(63)
        for code in rng.sample(codes, rng.randrange(2, 17)):
            rat = code & 15 == PieceKind.RAT
            squares = water if rat and rng.random() < 1 / 3 else land
            free = [
                sq for sq in squares
                if not board[sq] and sq != (WHITE_DEN, BLACK_DEN)[code >> 4]
            ]
            board[rng.choice(free)] = code
        yield board


def test_generate_matches_the_oracle_under_every_rule_variant():
    rng = random.Random(RNG_SEED + 5)
    variants = [Ruleset.from_flag_word(word) for word in range(8)]
    calls = 0
    for n, board in enumerate(oracle_boards(rng, 2000)):
        if n % 2:
            board = bytes(board)
        for rules in variants:
            for stm in (WHITE, BLACK):
                assert _generate(board, stm, rules) == oracle_moves(board, stm, rules), (
                    bytes(board).hex(), stm, rules,
                )
                calls += 1
    assert calls == 2000 * 16


def test_validate_position_rejects_bad_boards():
    with pytest.raises(InvalidPositionError):
        validate_position(Position(bytes(62), WHITE))
    board = bytearray(63)
    board[parse_square("c5")] = piece_code(WHITE, PieceKind.LION)
    with pytest.raises(InvalidPositionError):
        validate_position(Position(bytes(board), WHITE))  # non-rat in water
    board = bytearray(63)
    board[WHITE_DEN] = piece_code(WHITE, PieceKind.RAT)
    with pytest.raises(InvalidPositionError):
        validate_position(Position(bytes(board), WHITE))  # own den occupied
    board = bytearray(63)
    board[0] = piece_code(WHITE, PieceKind.RAT)
    board[1] = piece_code(WHITE, PieceKind.RAT)
    with pytest.raises(InvalidPositionError):
        validate_position(Position(bytes(board), WHITE))  # duplicate piece


# --- text round trips -----------------------------------------------------

def test_position_text_round_trip():
    rng = random.Random(RNG_SEED)
    for _ in range(50):
        pos = random_playout(rng, 60)
        assert position_from_text(position_to_text(pos)) == pos


def test_position_text_errors():
    with pytest.raises(ValueError):
        position_from_text("l5t/1d3c1 w")  # wrong rank count
    with pytest.raises(ValueError):
        position_from_text(INITIAL_POSITION_TEXT.replace(" w", " x"))
    with pytest.raises(ValueError):
        position_from_text(INITIAL_POSITION_TEXT.replace("l5t", "l5q"))


def test_move_text_round_trip():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(30):
        pos = random_playout(rng, 50)
        if terminal_state(pos) is not Outcome.ONGOING:
            continue
        for move in legal_moves(pos):
            text = move_text(pos, move)
            assert parse_move(pos, text) == move


# --- mirror symmetry ------------------------------------------------------

def test_mirror_preserves_game_structure():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(40):
        pos = random_playout(rng, 60)
        mir = mirror_position(pos)
        assert mirror_position(mir) == pos
        assert terminal_state(mir) is _flip_outcome(terminal_state(pos))
        if terminal_state(pos) is Outcome.ONGOING:
            ours = {(m.from_sq, m.to_sq, m.capture) for m in legal_moves(pos)}
            theirs = {
                (m.from_sq, m.to_sq, m.capture)
                for m in map(mirror_move, legal_moves(mir))
            }
            assert ours == theirs


def _flip_outcome(outcome):
    if outcome is Outcome.WHITE_WINS:
        return Outcome.BLACK_WINS
    if outcome is Outcome.BLACK_WINS:
        return Outcome.WHITE_WINS
    return outcome


# --- perft ----------------------------------------------------------------

def reference_perft(pos, depth, path):
    """Leaf count via the public API only; oracle for the fast recursion."""
    outcome = terminal_state(pos)
    if outcome is not Outcome.ONGOING or depth == 0:
        return 1
    total = 0
    for move in legal_moves(pos):
        child = apply_move(pos, move)
        key = (child.board, child.stm)
        if depth >= 2 and key in path:
            total += 1
            continue
        path.add(key)
        total += reference_perft(child, depth - 1, path)
        path.discard(key)
    return total


def test_perft_initial_small_depths():
    pos = initial_position()
    assert [perft(pos, d) for d in range(5)] == [1, 24, 576, 12240, 260100]


def test_perft_matches_reference_on_random_positions():
    rng = random.Random(RNG_SEED + 3)
    checked = 0
    for _ in range(12):
        pos = random_playout(rng, 50)
        if terminal_state(pos) is not Outcome.ONGOING:
            continue
        for depth in (1, 2, 3):
            expected = reference_perft(pos, depth, {(pos.board, pos.stm)})
            assert perft(pos, depth) == expected
            checked += 1
    assert checked >= 20


def test_perft_counts_line_repetition_as_single_leaf():
    # Two lone tigers far apart: a ply-4 double reversal recreates the root.
    # The repeated node is a single leaf instead of an expanded subtree, so
    # the count at depth 5 drops below the unrestricted product tree.
    pos = sparse(
        WHITE,
        ("a1", WHITE, PieceKind.TIGER),
        ("g9", BLACK, PieceKind.TIGER),
    )
    assert perft(pos, 4) == _naive_perft(pos, 4)  # cuts only bite when expanding
    expected = reference_perft(pos, 5, {(pos.board, pos.stm)})
    assert perft(pos, 5) == expected
    assert perft(pos, 5) < _naive_perft(pos, 5)


def _naive_perft(pos, depth):
    if terminal_state(pos) is not Outcome.ONGOING or depth == 0:
        return 1
    return sum(_naive_perft(apply_move(pos, m), depth - 1) for m in legal_moves(pos))


def test_perft_terminal_and_zero_depth():
    pos = sparse(WHITE, ("d8", WHITE, PieceKind.DOG), ("a1", BLACK, PieceKind.RAT))
    won = apply_move(pos, Move(parse_square("d8"), BLACK_DEN))
    assert perft(won, 5) == 1
    assert perft(pos, 0) == 1
    with pytest.raises(ValueError):
        perft(pos, -1)
    with pytest.raises(ValueError, match=f"depth {MAX_PERFT_DEPTH + 1} "):
        perft(pos, MAX_PERFT_DEPTH + 1)


def test_ruleset_flag_word_round_trip():
    for word in range(8):
        assert Ruleset.from_flag_word(word).flag_word == word
    with pytest.raises(ValueError):
        Ruleset.from_flag_word(8)
    assert DEFAULT_RULESET.flag_word == 3
