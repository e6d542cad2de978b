"""Search: Zobrist keys, evaluation, minimax/alpha-beta agreement, probing."""

import random

import pytest

from doushouqi.rules import (
    BLACK,
    BLACK_DEN,
    Move,
    Outcome,
    PieceKind,
    Position,
    WHITE,
    apply_move,
    initial_position,
    legal_moves,
    mirror_position,
    parse_square,
    perft,
    piece_code,
    terminal_state,
)
from doushouqi.search import (
    MATE_BOUND,
    SearchResult,
    TranspositionTable,
    WIN_SCORE,
    Zobrist,
    alphabeta,
    evaluate,
    get_evaluator,
    minimax,
    probe_aware_search,
    shared_zobrist,
    zobrist,
)

RNG_SEED = 77


def sparse(stm, *placements):
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


def ongoing_positions(rng, count, max_plies=60):
    out = []
    while len(out) < count:
        pos = random_playout(rng, max_plies)
        if terminal_state(pos) is Outcome.ONGOING:
            out.append(pos)
    return out


# --- zobrist ---------------------------------------------------------------

def test_zobrist_deterministic_and_side_sensitive():
    pos = initial_position()
    key = zobrist(pos)
    assert key == Zobrist().key(pos)
    assert key != 0
    flipped = Position(pos.board, BLACK)
    assert zobrist(flipped) == key ^ shared_zobrist().side


def test_zobrist_distinguishes_sampled_positions():
    rng = random.Random(RNG_SEED)
    seen = {}
    for pos in ongoing_positions(rng, 400, max_plies=80):
        key = zobrist(pos)
        prior = seen.get(key)
        assert prior is None or prior == (pos.board, pos.stm)
        seen[key] = (pos.board, pos.stm)


def test_zobrist_incremental_update_matches_recompute():
    z = shared_zobrist()
    rng = random.Random(RNG_SEED + 1)
    pos = initial_position()
    key = z.key(pos)
    for _ in range(200):
        if terminal_state(pos) is not Outcome.ONGOING:
            pos = initial_position()
            key = z.key(pos)
        move = rng.choice(legal_moves(pos))
        code = pos.board[move.from_sq]
        captured = pos.board[move.to_sq]
        key ^= z.piece_square[code][move.from_sq]
        key ^= z.piece_square[code][move.to_sq]
        if captured:
            key ^= z.piece_square[captured][move.to_sq]
        key ^= z.side
        pos = apply_move(pos, move)
        assert key == z.key(pos)


def test_zobrist_seed_changes_basis():
    assert Zobrist(1).key(initial_position()) != Zobrist(2).key(initial_position())


# --- evaluation ------------------------------------------------------------

def test_evaluate_initial_is_balanced():
    assert evaluate(initial_position()) == 0
    assert evaluate(initial_position(), "material") == 0


def test_evaluate_counts_material_and_advance():
    pos = sparse(WHITE, ("a1", WHITE, PieceKind.RAT), ("g9", BLACK, PieceKind.RAT))
    # Symmetric placement: a1 and g9 are both 11 steps from the far den.
    assert evaluate(pos) == 0
    ahead = sparse(WHITE, ("a7", WHITE, PieceKind.RAT), ("g9", BLACK, PieceKind.RAT))
    assert evaluate(ahead) == 6  # six steps closer to the den than g9 is
    assert evaluate(ahead, "material") == 0
    up = sparse(WHITE, ("a1", WHITE, PieceKind.CAT), ("g9", BLACK, PieceKind.RAT))
    assert evaluate(up, "material") == 100


def test_evaluate_mirror_antisymmetry():
    rng = random.Random(RNG_SEED + 2)
    for pos in ongoing_positions(rng, 40):
        mir = mirror_position(pos)
        assert evaluate(pos) == -evaluate(mir)
        assert evaluate(pos, "material") == -evaluate(mir, "material")


def test_unknown_evaluator_rejected():
    with pytest.raises(KeyError):
        get_evaluator("tapered")


# --- minimax ---------------------------------------------------------------

def test_minimax_depth_zero_is_static_eval():
    pos = initial_position()
    result = minimax(pos, 0)
    assert result == SearchResult(evaluate(pos), None, 1, 1)


def test_minimax_leaves_equal_perft_from_initial():
    pos = initial_position()
    for depth, expected in enumerate([1, 24, 576, 12240, 260100]):
        result = minimax(pos, depth)
        assert result.leaves == expected == perft(pos, depth)
        assert result.leaves <= result.nodes


def test_minimax_leaves_equal_perft_on_random_positions():
    rng = random.Random(RNG_SEED + 3)
    for pos in ongoing_positions(rng, 15):
        for depth in (1, 2, 3):
            assert minimax(pos, depth).leaves == perft(pos, depth)


def test_minimax_sees_mate_in_one():
    pos = sparse(WHITE, ("c9", WHITE, PieceKind.ELEPHANT), ("a1", BLACK, PieceKind.RAT))
    result = minimax(pos, 2)
    assert result.score == WIN_SCORE - 1
    assert result.best_move == Move(parse_square("c9"), BLACK_DEN)


def test_minimax_terminal_and_stalemate_roots():
    pos = sparse(WHITE, ("d8", WHITE, PieceKind.DOG), ("a1", BLACK, PieceKind.RAT))
    won = apply_move(pos, Move(parse_square("d8"), BLACK_DEN))
    result = minimax(won, 4)
    assert result.score == WIN_SCORE and result.best_move is None
    boxed = sparse(
        BLACK,
        ("a9", BLACK, PieceKind.RAT),
        ("a8", WHITE, PieceKind.LION),
        ("b9", WHITE, PieceKind.TIGER),
    )
    result = minimax(boxed, 3)
    assert result == SearchResult(0, None, 1, 1)


# --- alpha-beta ------------------------------------------------------------

def test_alphabeta_matches_minimax_from_initial():
    pos = initial_position()
    for depth in range(5):
        mm = minimax(pos, depth)
        plain = alphabeta(pos, depth)
        cached = alphabeta(pos, depth, table=TranspositionTable(14))
        assert plain.score == cached.score == mm.score
        assert plain.leaves <= mm.leaves


def test_alphabeta_matches_minimax_on_random_positions():
    # Both evaluators: alpha-beta keeps the evaluation incrementally,
    # minimax rescans the board at every leaf.
    rng = random.Random(RNG_SEED + 4)
    for pos in ongoing_positions(rng, 12):
        for evaluator in ("material-den", "material"):
            for depth in (1, 2, 3):
                mm = minimax(pos, depth, evaluator=evaluator)
                plain = alphabeta(pos, depth, evaluator=evaluator)
                cached = alphabeta(
                    pos, depth, table=TranspositionTable(12), evaluator=evaluator
                )
                assert plain.score == cached.score == mm.score


def test_alphabeta_mirror_antisymmetry():
    rng = random.Random(RNG_SEED + 5)
    for pos in ongoing_positions(rng, 8):
        mir = mirror_position(pos)
        for depth in (1, 2, 3):
            assert alphabeta(pos, depth).score == -alphabeta(mir, depth).score


def test_alphabeta_mate_scores_and_depth_stability():
    pos = sparse(WHITE, ("c9", WHITE, PieceKind.ELEPHANT), ("a1", BLACK, PieceKind.RAT))
    table = TranspositionTable(12)
    for depth in (1, 3, 5):
        result = alphabeta(pos, depth, table=table)
        assert result.score == WIN_SCORE - 1
        assert result.best_move == Move(parse_square("c9"), BLACK_DEN)
    # Defender to move: the rat cannot stop the elephant; loss in 2 plies.
    pos = sparse(BLACK, ("c9", WHITE, PieceKind.ELEPHANT), ("a5", BLACK, PieceKind.RAT))
    result = alphabeta(pos, 4)
    assert result.score == WIN_SCORE - 2


def test_alphabeta_rejects_bad_depth():
    pos = initial_position()
    with pytest.raises(ValueError):
        alphabeta(pos, -1)
    with pytest.raises(ValueError):
        alphabeta(pos, 1000)


def test_transposition_table_two_slot_replacement():
    table = TranspositionTable(8)
    from doushouqi.search import Bound, TTEntry
    table.put(1, 5, 10, Bound.EXACT, None)
    assert table.get(1) == TTEntry(1, 5, 10, Bound.EXACT, None)
    # Same bucket, shallower: lands in the always-replace slot.
    same_bucket = 1 + (1 << 8)
    table.put(same_bucket, 2, 20, Bound.LOWER, (0, 1))
    assert table.get(1).depth == 5
    assert table.get(same_bucket).score == 20
    assert table.hits >= 3


# --- probing search --------------------------------------------------------

class FlatStore:
    """Fake endgame store: every 2-piece position gets one fixed value."""

    def __init__(self, value, dtm):
        self.value = value
        self.dtm = dtm
        self.probes = 0

    def covers(self, position):
        return position.piece_count() == 2

    def probe_value(self, position):
        self.probes += 1
        return self.value, self.dtm


def test_probe_aware_search_uses_store_for_children():
    pos = sparse(WHITE, ("b3", WHITE, PieceKind.LION), ("g9", BLACK, PieceKind.TIGER))
    store = FlatStore(value=0, dtm=0)  # draw everywhere
    result = probe_aware_search(pos, 6, store)
    assert result.score == 0
    assert store.probes == len(legal_moves(pos))
    assert result.leaves == len(legal_moves(pos))


def test_probe_aware_search_converts_dtm_to_mate_band():
    pos = sparse(WHITE, ("b3", WHITE, PieceKind.LION), ("g9", BLACK, PieceKind.TIGER))
    # Every child is a loss for the mover (Black) in 4 plies: the root side
    # wins in 1 + 4 plies whatever it plays.
    store = FlatStore(value=2, dtm=4)
    result = probe_aware_search(pos, 6, store)
    assert result.score == WIN_SCORE - 5
    assert result.best_move is not None


def test_probe_aware_search_falls_back_to_eval_when_uncovered():
    pos = initial_position()
    store = FlatStore(value=0, dtm=0)
    assert probe_aware_search(pos, 1, store).score == alphabeta(pos, 1).score
    assert store.probes == 0  # 16-piece children are never covered
    # Three pieces out of each other's reach: no node is covered, so every
    # leaf is evaluated, as in plain alpha-beta.
    pos = sparse(
        WHITE,
        ("a1", WHITE, PieceKind.LION),
        ("g1", WHITE, PieceKind.RAT),
        ("g9", BLACK, PieceKind.TIGER),
    )
    for evaluator in ("material-den", "material"):
        for table in (None, TranspositionTable(10)):
            probed = probe_aware_search(pos, 3, store, table, evaluator=evaluator)
            plain = alphabeta(pos, 3, evaluator=evaluator)
            assert probed.score == plain.score == minimax(pos, 3, evaluator=evaluator).score
            assert probed.score != 0
    assert store.probes == 0
