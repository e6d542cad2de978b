"""Depth-limited game-tree search over the rules kernel.

Provides plain minimax (the counting/value oracle), alpha-beta with Zobrist
hashing and a two-slot transposition table, piece-square evaluators, and a
probing search that substitutes exact endgame-table values for
subtrees.

Scores are centipiece-scaled integers from White's perspective.  Proven
outcomes live in a reserved band: ``+(WIN_SCORE - p)`` means White wins the
game ``p`` plies from the root, ``-(WIN_SCORE - p)`` the same for Black;
every heuristic score stays strictly inside ``(-MATE_BOUND, MATE_BOUND)``.
Draws (stalemate or a repeated position) score 0.

Tree semantics match :func:`doushouqi.rules.perft`: a generated position
that repeats one earlier in the current line is a draw leaf and is not
expanded, and depth-0 leaves are evaluated statically.  ``minimax`` counts
leaves identically to ``perft`` by construction.
"""

from __future__ import annotations

import random
from enum import IntEnum
from typing import NamedTuple, Optional, Protocol

from .rules import (
    BLACK_DEN,
    DEFAULT_RULESET,
    DENS,
    Move,
    NUM_SQUARES,
    Position,
    Ruleset,
    WHITE,
    WHITE_DEN,
    square_file,
    square_rank,
    validate_position,
)
from .rules import _SIDE_BYTE, _generate

WIN_SCORE = 1_000_000
MATE_BOUND = 900_000
MAX_PLY = 128

DEFAULT_ZOBRIST_SEED = 0xD0505EED


def _den_distance(sq: int, den: int) -> int:
    return abs(square_file(sq) - square_file(den)) + abs(
        square_rank(sq) - square_rank(den)
    )


def _build_eval_tables() -> dict[str, list[list[int]]]:
    # Piece-square tables indexed [code][square], White-positive.
    material_den = [[0] * NUM_SQUARES for _ in range(25)]
    material = [[0] * NUM_SQUARES for _ in range(25)]
    for code in list(range(1, 9)) + list(range(17, 25)):
        kind = code & 15
        sign = 1 if code < 16 else -1
        target = BLACK_DEN if code < 16 else WHITE_DEN
        for sq in range(NUM_SQUARES):
            material[code][sq] = sign * kind * 100
            material_den[code][sq] = sign * (kind * 100 + 11 - _den_distance(sq, target))
    return {"material-den": material_den, "material": material}


EVALUATORS: dict[str, list[list[int]]] = _build_eval_tables()


def get_evaluator(name: str) -> list[list[int]]:
    try:
        return EVALUATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown evaluator {name!r}; available: {sorted(EVALUATORS)}"
        ) from None


def _scan(table: list[list[int]], board) -> int:
    """White's evaluation of a board: its pieces' entries in ``table``."""
    total = 0
    for sq, code in enumerate(board):
        if code:
            total += table[code][sq]
    return total


def evaluate(position: Position, evaluator: str = "material-den") -> int:
    """Heuristic score of a position from White's perspective.

    The default weights each piece at 100x its strength and adds a bonus of
    ``11 - manhattan distance`` from the piece to the opposing den, so
    advancing toward the den is worth at most one tenth of the weakest
    piece.  Anti-symmetric under the color mirror.
    """
    return _scan(get_evaluator(evaluator), position.board)


class Zobrist:
    """Per-(piece, square) 64-bit XOR basis drawn from a seeded PRNG.

    ``depth_keys`` and ``mate_tag`` extend the classic scheme: transposition
    entries are keyed by position XOR remaining depth, so a stored score is
    only ever reused at the depth it was computed for, and proven mates are
    dual-stored under the mate tag where they are depth-independent.
    """

    __slots__ = ("seed", "piece_square", "side", "depth_keys", "mate_tag")

    def __init__(self, seed: int = DEFAULT_ZOBRIST_SEED) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.piece_square = [[0] * NUM_SQUARES for _ in range(25)]
        for code in list(range(1, 9)) + list(range(17, 25)):
            row = self.piece_square[code]
            for sq in range(NUM_SQUARES):
                row[sq] = rng.getrandbits(64)
        self.side = rng.getrandbits(64)
        self.depth_keys = [rng.getrandbits(64) for _ in range(MAX_PLY + 1)]
        self.mate_tag = rng.getrandbits(64)

    def key(self, position: Position) -> int:
        k = 0
        ps = self.piece_square
        for sq, code in enumerate(position.board):
            if code:
                k ^= ps[code][sq]
        if position.stm != WHITE:
            k ^= self.side
        return k


_SHARED_ZOBRIST = Zobrist()


def shared_zobrist() -> Zobrist:
    return _SHARED_ZOBRIST


def zobrist(position: Position) -> int:
    """Key of a position under the default fixed-seed basis."""
    return _SHARED_ZOBRIST.key(position)


class Bound(IntEnum):
    EXACT = 0
    LOWER = 1
    UPPER = 2


class TTEntry(NamedTuple):
    key: int
    depth: int
    score: int
    bound: Bound
    move: Optional[tuple[int, int]]


class TranspositionTable:
    """Fixed-size two-slot table: depth-preferred plus always-replace."""

    __slots__ = ("mask", "slots", "probes", "hits", "stores")
    MIN_SIZE_LOG2 = 8
    MAX_SIZE_LOG2 = 28

    def __init__(self, size_log2: int = 18) -> None:
        low, high = self.MIN_SIZE_LOG2, self.MAX_SIZE_LOG2
        if not low <= size_log2 <= high:
            raise ValueError(f"size_log2 must be in [{low}, {high}]")
        self.mask = (1 << size_log2) - 1
        self.slots: list[Optional[TTEntry]] = [None] * (2 << size_log2)
        self.probes = 0
        self.hits = 0
        self.stores = 0

    def get(self, key: int) -> Optional[TTEntry]:
        self.probes += 1
        base = (key & self.mask) << 1
        entry = self.slots[base]
        if entry is not None and entry.key == key:
            self.hits += 1
            return entry
        entry = self.slots[base + 1]
        if entry is not None and entry.key == key:
            self.hits += 1
            return entry
        return None

    def put(
        self,
        key: int,
        depth: int,
        score: int,
        bound: Bound,
        move: Optional[tuple[int, int]],
    ) -> None:
        self.stores += 1
        base = (key & self.mask) << 1
        entry = TTEntry(key, depth, score, bound, move)
        deep = self.slots[base]
        if deep is None or deep.key == key or depth >= deep.depth:
            self.slots[base] = entry
        else:
            self.slots[base + 1] = entry


class SearchResult(NamedTuple):
    score: int
    best_move: Optional[Move]
    leaves: int
    nodes: int


class ProbeStore(Protocol):
    """What probe_aware_search needs from an endgame-table provider."""

    def covers(self, position: Position) -> bool: ...

    def probe_value(self, position: Position) -> tuple[int, int]: ...


# Probe values returned by a store (mirrors tablebase.Value numbering).
_PROBE_DRAW = 0
_PROBE_WIN = 1
_PROBE_LOSS = 2


class _Stats:
    __slots__ = ("leaves", "nodes")

    def __init__(self) -> None:
        self.leaves = 0
        self.nodes = 0


def _terminal_score(counts: list[int], board: bytearray, stm: int, ply: int):
    """Mover-perspective score if the game already ended, else None."""
    if counts[stm] == 0 or board[DENS[stm]]:
        return -(WIN_SCORE - ply)
    if counts[stm ^ 1] == 0 or board[DENS[stm ^ 1]]:
        return WIN_SCORE - ply
    return None


def _piece_counts(board: bytes) -> list[int]:
    counts = [0, 0]
    for code in board:
        if code:
            counts[code >> 4] += 1
    return counts


def _negamax(
    board: bytearray,
    stm: int,
    depth: int,
    ply: int,
    counts: list[int],
    rs: Ruleset,
    pst: list[list[int]],
    history: dict[bytes, int],
    stats: _Stats,
) -> int:
    stats.nodes += 1
    terminal = _terminal_score(counts, board, stm, ply)
    if terminal is not None:
        stats.leaves += 1
        return terminal
    if depth == 0:
        stats.leaves += 1
        score = _scan(pst, board)
        return score if stm == WHITE else -score
    moves = _generate(board, stm, rs)
    if not moves:
        stats.leaves += 1
        return 0
    best = -WIN_SCORE - 1
    other = stm ^ 1
    side = _SIDE_BYTE[other]
    expand = depth >= 2
    for f, t, cap in moves:
        pc = board[f]
        board[f] = 0
        board[t] = pc
        if cap:
            counts[other] -= 1
        if expand:
            key = bytes(board) + side
            if key in history:
                stats.leaves += 1
                stats.nodes += 1
                value = 0
            else:
                history[key] = ply + 1
                value = -_negamax(
                    board, other, depth - 1, ply + 1, counts, rs,
                    pst, history, stats,
                )
                del history[key]
        else:
            value = -_negamax(
                board, other, depth - 1, ply + 1, counts, rs,
                pst, history, stats,
            )
        if cap:
            counts[other] += 1
        board[f] = pc
        board[t] = cap
        if value > best:
            best = value
    return best


def minimax(
    position: Position,
    depth: int,
    rules: Ruleset = DEFAULT_RULESET,
    evaluator: str = "material-den",
) -> SearchResult:
    """Full-width depth-limited search; the reference for alphabeta.

    ``leaves`` equals ``perft(position, depth)``.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    validate_position(position)
    pst = get_evaluator(evaluator)
    board = bytearray(position.board)
    counts = _piece_counts(board)
    stats = _Stats()
    stm = position.stm
    terminal = _terminal_score(counts, board, stm, 0)
    if terminal is not None or depth == 0:
        score = _negamax(
            board, stm, 0 if terminal is None else depth, 0, counts, rules,
            pst, {}, stats,
        )
        white_score = score if stm == WHITE else -score
        return SearchResult(white_score, None, stats.leaves, stats.nodes)
    moves = _generate(board, stm, rules)
    if not moves:
        stats.nodes += 1
        stats.leaves += 1
        return SearchResult(0, None, stats.leaves, stats.nodes)
    stats.nodes += 1
    history = {bytes(board) + _SIDE_BYTE[stm]: 0}
    best = -WIN_SCORE - 1
    best_move: Optional[Move] = None
    other = stm ^ 1
    for f, t, cap in moves:
        pc = board[f]
        board[f] = 0
        board[t] = pc
        if cap:
            counts[other] -= 1
        if depth >= 2:
            key = bytes(board) + _SIDE_BYTE[other]
            if key in history:
                stats.leaves += 1
                stats.nodes += 1
                value = 0
            else:
                history[key] = 1
                value = -_negamax(
                    board, other, depth - 1, 1, counts, rules,
                    pst, history, stats,
                )
                del history[key]
        else:
            value = -_negamax(
                board, other, depth - 1, 1, counts, rules,
                pst, history, stats,
            )
        if cap:
            counts[other] += 1
        board[f] = pc
        board[t] = cap
        if value > best:
            best = value
            best_move = Move(f, t, bool(cap))
    white_score = best if stm == WHITE else -best
    return SearchResult(white_score, best_move, stats.leaves, stats.nodes)


class _ABContext:
    __slots__ = (
        "rs", "pst", "tt", "z", "ps", "side_key", "depth_keys",
        "mate_tag", "stats", "history", "counts", "probe_store",
    )

    def __init__(
        self,
        rs: Ruleset,
        pst: list[list[int]],
        tt: Optional[TranspositionTable],
        z: Zobrist,
        counts: list[int],
        probe_store: Optional[ProbeStore],
    ) -> None:
        self.rs = rs
        self.pst = pst
        self.tt = tt
        self.z = z
        self.ps = z.piece_square
        self.side_key = z.side
        self.depth_keys = z.depth_keys
        self.mate_tag = z.mate_tag
        self.stats = _Stats()
        self.history: dict[bytes, int] = {}
        self.counts = counts
        self.probe_store = probe_store


def _to_tt_score(score: int, ply: int) -> int:
    # Mate scores are stored relative to the node, not the root.
    if score > MATE_BOUND:
        return score + ply
    if score < -MATE_BOUND:
        return score - ply
    return score


def _from_tt_score(score: int, ply: int) -> int:
    if score > MATE_BOUND:
        return score - ply
    if score < -MATE_BOUND:
        return score + ply
    return score


def _probe_leaf_score(ctx: _ABContext, board: bytearray, stm: int, ply: int):
    """Tablebase value of a covered node as a mover-perspective score."""
    store = ctx.probe_store
    if store is None:
        return None
    pos = Position(bytes(board), stm)
    if not store.covers(pos):
        return None
    value, dtm = store.probe_value(pos)
    if value == _PROBE_WIN:
        return WIN_SCORE - (ply + dtm)
    if value == _PROBE_LOSS:
        return -(WIN_SCORE - (ply + dtm))
    return 0


def _alphabeta(
    ctx: _ABContext,
    board: bytearray,
    stm: int,
    depth: int,
    ply: int,
    alpha: int,
    beta: int,
    zkey: int,
    ev: int,
) -> tuple[int, int]:
    """Returns (mover-perspective score, shallowest ply any cycle reached).

    ``ev`` is White's evaluation of ``board``, kept up to date move by move
    like ``zkey``.  The second value is MAX_PLY when the subtree value is
    independent of the path above this node; entries are stored only in
    that case, which keeps the table free of history-dependent scores.
    """
    stats = ctx.stats
    stats.nodes += 1
    counts = ctx.counts
    terminal = _terminal_score(counts, board, stm, ply)
    if terminal is not None:
        stats.leaves += 1
        return terminal, MAX_PLY
    if ply > 0:
        probe = _probe_leaf_score(ctx, board, stm, ply)
        if probe is not None:
            stats.leaves += 1
            return probe, MAX_PLY
    if depth == 0:
        stats.leaves += 1
        return (ev if stm == WHITE else -ev), MAX_PLY
    tt = ctx.tt
    tt_move: Optional[tuple[int, int]] = None
    alpha_orig = alpha
    dkey = 0
    if tt is not None:
        mate_entry = tt.get(zkey ^ ctx.mate_tag)
        if mate_entry is not None and mate_entry.depth <= depth:
            return _from_tt_score(mate_entry.score, ply), MAX_PLY
        dkey = zkey ^ ctx.depth_keys[depth]
        entry = tt.get(dkey)
        if entry is not None:
            score = _from_tt_score(entry.score, ply)
            if entry.bound is Bound.EXACT:
                return score, MAX_PLY
            if entry.bound is Bound.LOWER:
                if score > alpha:
                    alpha = score
            elif score < beta:
                beta = score
            if alpha >= beta:
                return score, MAX_PLY
            tt_move = entry.move
    moves = _generate(board, stm, ctx.rs)
    if not moves:
        stats.leaves += 1
        return 0, MAX_PLY
    if tt_move is not None or len(moves) > 1:
        captures = []
        quiets = []
        first = []
        for m in moves:
            if tt_move is not None and m[0] == tt_move[0] and m[1] == tt_move[1]:
                first.append(m)
            elif m[2]:
                captures.append(m)
            else:
                quiets.append(m)
        moves = first + captures + quiets
    best = -WIN_SCORE - 1
    best_move: Optional[tuple[int, int]] = None
    min_cycle = MAX_PLY
    other = stm ^ 1
    side = _SIDE_BYTE[other]
    ps = ctx.ps
    pst = ctx.pst
    expand = depth >= 2
    history = ctx.history
    for f, t, cap in moves:
        pc = board[f]
        board[f] = 0
        board[t] = pc
        child_key = zkey ^ ps[pc][f] ^ ps[pc][t] ^ ctx.side_key
        child_ev = ev - pst[pc][f] + pst[pc][t]
        if cap:
            counts[other] -= 1
            child_key ^= ps[cap][t]
            child_ev -= pst[cap][t]
        if expand:
            hkey = bytes(board) + side
            seen_ply = history.get(hkey)
            if seen_ply is not None:
                stats.leaves += 1
                stats.nodes += 1
                value = 0
                if seen_ply < min_cycle:
                    min_cycle = seen_ply
            else:
                history[hkey] = ply + 1
                value, cycle = _alphabeta(
                    ctx, board, other, depth - 1, ply + 1,
                    -beta, -alpha, child_key, child_ev,
                )
                value = -value
                del history[hkey]
                if cycle < min_cycle:
                    min_cycle = cycle
        else:
            value, cycle = _alphabeta(
                ctx, board, other, depth - 1, ply + 1,
                -beta, -alpha, child_key, child_ev,
            )
            value = -value
        if cap:
            counts[other] += 1
        board[f] = pc
        board[t] = cap
        if value > best:
            best = value
            best_move = (f, t)
            if value > alpha:
                alpha = value
        if alpha >= beta:
            break
    if tt is not None and min_cycle >= ply:
        # All cycles (if any) closed at or below this node: path-independent.
        if best <= alpha_orig:
            bound = Bound.UPPER
        elif best >= beta:
            bound = Bound.LOWER
        else:
            bound = Bound.EXACT
        tt.put(dkey, depth, _to_tt_score(best, ply), bound, best_move)
        if bound is Bound.EXACT and abs(best) > MATE_BOUND:
            distance = WIN_SCORE - abs(best) - ply
            tt.put(
                zkey ^ ctx.mate_tag, distance, _to_tt_score(best, ply),
                Bound.EXACT, best_move,
            )
    return best, min_cycle


def _run_alphabeta(
    position: Position,
    depth: int,
    table: Optional[TranspositionTable],
    rules: Ruleset,
    evaluator: str,
    probe_store: Optional[ProbeStore],
    z: Optional[Zobrist],
) -> SearchResult:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_PLY:
        raise ValueError(f"depth must be <= {MAX_PLY}")
    validate_position(position)
    if z is None:
        z = _SHARED_ZOBRIST
    pst = get_evaluator(evaluator)
    board = bytearray(position.board)
    counts = _piece_counts(board)
    ctx = _ABContext(rules, pst, table, z, counts, probe_store)
    stats = ctx.stats
    stm = position.stm
    terminal = _terminal_score(counts, board, stm, 0)
    if terminal is not None:
        stats.nodes += 1
        stats.leaves += 1
        white_score = terminal if stm == WHITE else -terminal
        return SearchResult(white_score, None, stats.leaves, stats.nodes)
    ev = _scan(pst, board)
    if depth == 0:
        stats.nodes += 1
        stats.leaves += 1
        return SearchResult(ev, None, stats.leaves, stats.nodes)
    moves = _generate(board, stm, rules)
    if not moves:
        stats.nodes += 1
        stats.leaves += 1
        return SearchResult(0, None, stats.leaves, stats.nodes)
    stats.nodes += 1
    zkey = z.key(position)
    ctx.history[position.board + _SIDE_BYTE[stm]] = 0
    best = -WIN_SCORE - 1
    best_move: Optional[Move] = None
    alpha = -WIN_SCORE - 1
    beta = WIN_SCORE + 1
    other = stm ^ 1
    ps = z.piece_square
    for f, t, cap in moves:
        pc = board[f]
        board[f] = 0
        board[t] = pc
        child_key = zkey ^ ps[pc][f] ^ ps[pc][t] ^ z.side
        child_ev = ev - pst[pc][f] + pst[pc][t]
        if cap:
            counts[other] -= 1
            child_key ^= ps[cap][t]
            child_ev -= pst[cap][t]
        if depth >= 2:
            hkey = bytes(board) + _SIDE_BYTE[other]
            if hkey in ctx.history:
                stats.leaves += 1
                stats.nodes += 1
                value = 0
            else:
                ctx.history[hkey] = 1
                value = -_alphabeta(
                    ctx, board, other, depth - 1, 1,
                    -beta, -alpha, child_key, child_ev,
                )[0]
                del ctx.history[hkey]
        else:
            value = -_alphabeta(
                ctx, board, other, depth - 1, 1,
                -beta, -alpha, child_key, child_ev,
            )[0]
        if cap:
            counts[other] += 1
        board[f] = pc
        board[t] = cap
        if value > best:
            best = value
            best_move = Move(f, t, bool(cap))
            if value > alpha:
                alpha = value
    white_score = best if stm == WHITE else -best
    return SearchResult(white_score, best_move, stats.leaves, stats.nodes)


def alphabeta(
    position: Position,
    depth: int,
    table: Optional[TranspositionTable] = None,
    rules: Ruleset = DEFAULT_RULESET,
    evaluator: str = "material-den",
    zobrist_keys: Optional[Zobrist] = None,
) -> SearchResult:
    """Alpha-beta search; root score equals ``minimax(position, depth)``.

    Evaluators are piece-square tables, so White's evaluation is scanned
    once at the root and then kept incrementally: each move changes it by
    at most three table entries.  ``minimax`` scans the board at every leaf.
    With ``table`` set, transposed subtrees are served from the table.  The
    table must not be shared between searches rooted at different positions:
    repetition draws make subtree values path-dependent, and entries are
    guarded against that only relative to a fixed root.
    """
    return _run_alphabeta(
        position, depth, table, rules, evaluator, None, zobrist_keys,
    )


def probe_aware_search(
    position: Position,
    depth: int,
    tablebases: ProbeStore,
    table: Optional[TranspositionTable] = None,
    rules: Ruleset = DEFAULT_RULESET,
    evaluator: str = "material-den",
    zobrist_keys: Optional[Zobrist] = None,
) -> SearchResult:
    """Alpha-beta where any covered node is scored by tablebase lookup.

    The root itself is expanded (so a best move is reported) and its
    children are probed, which reproduces the tablebase value at the root
    for covered positions.  Raises the store's missing-partition error when
    a probe target's partition is absent.
    """
    return _run_alphabeta(
        position, depth, table, rules, evaluator, tablebases, zobrist_keys,
    )
