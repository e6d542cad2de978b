"""Board model, move generation, and perft for Dou Shou Qi (Jungle chess).

Geometry: 7 files (a-g) by 9 ranks (1-9), square index = rank * 7 + file with
a1 = 0 and g9 = 62. White's den is d1, Black's d9; each den is flanked by
three trap squares that strip the strength of opposing pieces standing on
them. Two 3x2 rivers cover files b,c and e,f at ranks 4-6. Only rats enter
the water; tigers and lions leap straight across a river unless any piece
(in practice a rat) occupies an intervening water square.

Positions are immutable values; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cache, cached_property
from typing import Iterator

WHITE = 0
BLACK = 1

FILES = "abcdefg"
NUM_FILES = 7
NUM_RANKS = 9
NUM_SQUARES = 63


class PieceKind(IntEnum):
    """Piece strengths; capture needs attacker >= defender barring exceptions."""

    RAT = 1
    CAT = 2
    WOLF = 3
    DOG = 4
    PANTHER = 5
    TIGER = 6
    LION = 7
    ELEPHANT = 8


PIECE_LETTERS = ".RCWDPTLE"  # indexed by PieceKind value; uppercase = White


class Terrain(Enum):
    LAND = "land"
    WATER = "water"
    WHITE_TRAP = "white-trap"
    BLACK_TRAP = "black-trap"
    WHITE_DEN = "white-den"
    BLACK_DEN = "black-den"


class Outcome(Enum):
    ONGOING = "ongoing"
    WHITE_WINS = "white-wins"
    BLACK_WINS = "black-wins"
    DRAW = "draw"

    @property
    def winner(self) -> int | None:
        if self is Outcome.WHITE_WINS:
            return WHITE
        if self is Outcome.BLACK_WINS:
            return BLACK
        return None


class InvalidPositionError(ValueError):
    """Raised for malformed position text or invariant violations."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class IllegalMoveError(ValueError):
    """Raised when a move cannot be played in the given position."""


@dataclass(frozen=True)
class Ruleset:
    """Rat-capture variant switches, stamped into tablebase files as a flag word.

    Bit 0: a rat on land may capture a rat standing in the water.
    Bit 1: a rat in the water may capture a rat standing on land.
    Bit 2: a rat attacking out of the water may capture the elephant.
    Rat-vs-rat captures entirely within the water are always legal.
    """

    rat_capture_into_water: bool = True
    rat_capture_from_water_to_land: bool = True
    rat_from_water_captures_elephant: bool = False

    @property
    def flag_word(self) -> int:
        return (
            int(self.rat_capture_into_water)
            | int(self.rat_capture_from_water_to_land) << 1
            | int(self.rat_from_water_captures_elephant) << 2
        )

    @classmethod
    def from_flag_word(cls, word: int) -> "Ruleset":
        if not 0 <= word <= 7:
            raise ValueError(f"unknown rule-variant flag word {word}")
        return cls(bool(word & 1), bool(word & 2), bool(word & 4))

    @cached_property
    def _move_table(self):
        # Shared per flag word; kept on the instance so that _generate
        # reaches it without hashing the dataclass.
        return _build_move_table(self.flag_word)


DEFAULT_RULESET = Ruleset()


def square_index(file: int, rank: int) -> int:
    """0-based file and rank to square index."""
    if not (0 <= file < NUM_FILES and 0 <= rank < NUM_RANKS):
        raise ValueError(f"no square at file {file}, rank {rank}")
    return rank * NUM_FILES + file


def square_file(sq: int) -> int:
    return sq % NUM_FILES


def square_rank(sq: int) -> int:
    return sq // NUM_FILES


def square_name(sq: int) -> str:
    return f"{FILES[sq % NUM_FILES]}{sq // NUM_FILES + 1}"


def parse_square(text: str) -> int:
    if len(text) != 2 or text[0] not in FILES or not text[1].isdigit():
        raise ValueError(f"bad square {text!r}")
    rank = int(text[1])
    if not 1 <= rank <= NUM_RANKS:
        raise ValueError(f"bad square {text!r}")
    return (rank - 1) * NUM_FILES + FILES.index(text[0])


WHITE_DEN = parse_square("d1")
BLACK_DEN = parse_square("d9")
DENS = (WHITE_DEN, BLACK_DEN)

# TRAPS[c] are colour c's own traps: squares where c's *opponent* loses strength.
TRAPS = (
    frozenset(parse_square(s) for s in ("c1", "d2", "e1")),
    frozenset(parse_square(s) for s in ("c9", "d8", "e9")),
)

WATER_SQUARES = frozenset(
    square_index(f, r) for f in (1, 2, 4, 5) for r in (3, 4, 5)
)


def _build_terrain() -> tuple[Terrain, ...]:
    out = []
    for sq in range(NUM_SQUARES):
        if sq == WHITE_DEN:
            out.append(Terrain.WHITE_DEN)
        elif sq == BLACK_DEN:
            out.append(Terrain.BLACK_DEN)
        elif sq in TRAPS[WHITE]:
            out.append(Terrain.WHITE_TRAP)
        elif sq in TRAPS[BLACK]:
            out.append(Terrain.BLACK_TRAP)
        elif sq in WATER_SQUARES:
            out.append(Terrain.WATER)
        else:
            out.append(Terrain.LAND)
    return tuple(out)


TERRAIN = _build_terrain()


def terrain_at(sq: int) -> Terrain:
    if not 0 <= sq < NUM_SQUARES:
        raise ValueError(f"bad square index {sq}")
    return TERRAIN[sq]


_IS_WATER = bytes(1 if sq in WATER_SQUARES else 0 for sq in range(NUM_SQUARES))


def _neighbors(sq: int) -> list[int]:
    f, r = sq % NUM_FILES, sq // NUM_FILES
    out = []
    if r > 0:
        out.append(sq - NUM_FILES)
    if f > 0:
        out.append(sq - 1)
    if f < NUM_FILES - 1:
        out.append(sq + 1)
    if r < NUM_RANKS - 1:
        out.append(sq + NUM_FILES)
    return sorted(out)


NEIGHBORS = tuple(tuple(_neighbors(sq)) for sq in range(NUM_SQUARES))


def _build_leaps() -> tuple[tuple[tuple[int, slice], ...], ...]:
    # From a bank square, walk each direction across consecutive water squares;
    # the landing square is the first non-water square. Rivers are bounded, so
    # the walk always lands on the board. Each leap is (landing, slice of
    # the board over the water squares crossed).
    table = []
    for sq in range(NUM_SQUARES):
        if _IS_WATER[sq]:
            table.append(())
            continue
        f, r = sq % NUM_FILES, sq // NUM_FILES
        edges = []
        for df, dr in ((0, -1), (-1, 0), (1, 0), (0, 1)):
            nf, nr = f + df, r + dr
            mids = []
            while 0 <= nf < NUM_FILES and 0 <= nr < NUM_RANKS and _IS_WATER[nr * NUM_FILES + nf]:
                mids.append(nr * NUM_FILES + nf)
                nf += df
                nr += dr
            if mids:
                crossed = slice(min(mids), max(mids) + 1, abs(df + dr * NUM_FILES))
                edges.append((nr * NUM_FILES + nf, crossed))
        table.append(tuple(sorted(edges)))
    return tuple(table)


_LEAPS = _build_leaps()


def piece_code(color: int, kind: PieceKind) -> int:
    return int(kind) | color << 4


def piece_letter(code: int) -> str:
    letter = PIECE_LETTERS[code & 15]
    return letter if code >> 4 == WHITE else letter.lower()


@dataclass(frozen=True)
class Position:
    """63 piece codes (0 = empty, kind | color << 4) plus the side to move."""

    board: bytes
    stm: int

    def piece_at(self, sq: int) -> tuple[int, PieceKind] | None:
        code = self.board[sq]
        if not code:
            return None
        return code >> 4, PieceKind(code & 15)

    def pieces(self) -> Iterator[tuple[int, int, PieceKind]]:
        """Yield (square, color, kind) in ascending square order."""
        for sq, code in enumerate(self.board):
            if code:
                yield sq, code >> 4, PieceKind(code & 15)

    def piece_count(self, color: int | None = None) -> int:
        if color is None:
            return sum(1 for c in self.board if c)
        return sum(1 for c in self.board if c and c >> 4 == color)


@dataclass(frozen=True)
class Move:
    from_sq: int
    to_sq: int
    capture: bool = False


def validate_position(position: Position) -> None:
    """Raise InvalidPositionError unless the position satisfies all invariants."""
    if not isinstance(position.board, bytes) or len(position.board) != NUM_SQUARES:
        raise InvalidPositionError("board must hold exactly 63 squares")
    if position.stm not in (WHITE, BLACK):
        raise InvalidPositionError(f"bad side to move {position.stm!r}")
    seen = set()
    for sq, code in enumerate(position.board):
        if not code:
            continue
        color, kind = code >> 4, code & 15
        if color > BLACK or not 1 <= kind <= 8:
            raise InvalidPositionError(f"bad piece code {code} on {square_name(sq)}")
        if (color, kind) in seen:
            raise InvalidPositionError(
                f"duplicate {PieceKind(kind).name.lower()} for colour {color}"
            )
        seen.add((color, kind))
        if kind != PieceKind.RAT and _IS_WATER[sq]:
            raise InvalidPositionError(
                f"non-rat on water square {square_name(sq)}"
            )
        if sq == DENS[color]:
            raise InvalidPositionError(f"piece on its own den {square_name(sq)}")


def can_capture(
    attacker: PieceKind,
    defender: PieceKind,
    *,
    attacker_in_water: bool = False,
    defender_in_water: bool = False,
    defender_on_attacker_trap: bool = False,
    rules: Ruleset = DEFAULT_RULESET,
) -> bool:
    """Capture legality, ignoring reachability of the defender's square."""
    if defender_on_attacker_trap:
        return True
    if attacker == PieceKind.RAT and defender == PieceKind.ELEPHANT:
        return not attacker_in_water or rules.rat_from_water_captures_elephant
    if attacker_in_water and not defender_in_water:
        return rules.rat_capture_from_water_to_land and attacker >= defender
    if defender_in_water and not attacker_in_water:
        return rules.rat_capture_into_water and attacker >= defender
    return attacker >= defender


@cache
def _build_move_table(flag_word: int) -> tuple[tuple, tuple]:
    """Move table of one rule variant, indexed [piece code][square].

    Steps are (dest, row) and tiger/lion leaps (dest, crossed, row), in
    _generate's order; ``crossed`` slices the river squares a leap crosses.
    ``row[target code]`` is 1 when the piece may move onto a square holding
    that code: an empty square (code 0), or an enemy piece that can_capture
    allows from this square to that one.  Own pieces read 0.
    """
    rules = Ruleset.from_flag_word(flag_word)
    rows: dict[tuple, bytes] = {}

    def row(code: int, sq: int, dest: int) -> bytes:
        color, kind = code >> 4, PieceKind(code & 15)
        key = (code, _IS_WATER[sq], _IS_WATER[dest], dest in TRAPS[color])
        if key not in rows:
            out = bytearray(32)
            out[0] = 1
            for target in PieceKind:
                out[piece_code(color ^ 1, target)] = can_capture(
                    kind, target, attacker_in_water=key[1],
                    defender_in_water=key[2], defender_on_attacker_trap=key[3],
                    rules=rules,
                )
            rows[key] = bytes(out)
        return rows[key]

    steps: list = [()] * 25
    leaps: list = [()] * 25
    for color in (WHITE, BLACK):
        for kind in PieceKind:
            code = piece_code(color, kind)
            # Own den is never enterable; water is rat-only.
            steps[code] = tuple(
                tuple(
                    (d, row(code, sq, d)) for d in NEIGHBORS[sq]
                    if d != DENS[color] and (kind == PieceKind.RAT or not _IS_WATER[d])
                )
                for sq in range(NUM_SQUARES)
            )
            leaper = kind in (PieceKind.TIGER, PieceKind.LION)
            leaps[code] = tuple(
                tuple((d, crossed, row(code, sq, d)) for d, crossed in _LEAPS[sq])
                if leaper else ()
                for sq in range(NUM_SQUARES)
            )
    return tuple(steps), tuple(leaps)


# Translation tables mapping the side's own piece codes to 1, all else to 0.
_OWN = tuple(
    bytes(1 if code >> 4 == color and 1 <= code & 15 <= 8 else 0 for code in range(256))
    for color in (WHITE, BLACK)
)


def _generate(board, stm: int, rs: Ruleset) -> list[tuple[int, int, int]]:
    """All legal (from, to, captured_code) triples for the side to move.

    Deterministic order: pieces by ascending square; per piece, steps before
    leaps, destinations ascending within each group.
    """
    steps, leaps = rs._move_table
    moves = []
    own = board.translate(_OWN[stm])
    sq = own.find(1)
    while sq >= 0:
        code = board[sq]
        for dest, row in steps[code][sq]:
            tc = board[dest]
            if row[tc]:
                moves.append((sq, dest, tc))
        for dest, crossed, row in leaps[code][sq]:
            if not any(board[crossed]):
                tc = board[dest]
                if row[tc]:
                    moves.append((sq, dest, tc))
        sq = own.find(1, sq + 1)
    return moves


def _has_move(board, stm: int, rs: Ruleset, squares) -> bool:
    """Whether the side to move has a legal move; ``squares`` must include
    every square it occupies (others are skipped).  A legal step settles
    it without generating the moves."""
    steps = rs._move_table[0]
    for sq in squares:
        code = board[sq]
        if code and code >> 4 == stm:
            for dest, row in steps[code][sq]:
                if row[board[dest]]:
                    return True
    return bool(_generate(board, stm, rs))


def _den_or_elimination(board, stm: int) -> Outcome | None:
    code = board[BLACK_DEN]
    if code and code >> 4 == WHITE:
        return Outcome.WHITE_WINS
    code = board[WHITE_DEN]
    if code and code >> 4 == BLACK:
        return Outcome.BLACK_WINS
    white_alive = black_alive = False
    for code in board:
        if code:
            if code >> 4 == WHITE:
                white_alive = True
            else:
                black_alive = True
    if not white_alive:
        return Outcome.BLACK_WINS
    if not black_alive:
        return Outcome.WHITE_WINS
    return None


def terminal_state(position: Position, rules: Ruleset = DEFAULT_RULESET) -> Outcome:
    """Den entry or elimination decides first; stalemate (no moves) is a draw."""
    outcome = _den_or_elimination(position.board, position.stm)
    if outcome is not None:
        return outcome
    if not _generate(position.board, position.stm, rules):
        return Outcome.DRAW
    return Outcome.ONGOING


def legal_moves(position: Position, rules: Ruleset = DEFAULT_RULESET) -> list[Move]:
    """Legal moves for the side to move; empty for finished games."""
    validate_position(position)
    if _den_or_elimination(position.board, position.stm) is not None:
        return []
    return [
        Move(f, t, bool(cap)) for f, t, cap in _generate(position.board, position.stm, rules)
    ]


def apply_move(position: Position, move: Move, rules: Ruleset = DEFAULT_RULESET) -> Position:
    """Play a legal move; raises IllegalMoveError otherwise."""
    if _den_or_elimination(position.board, position.stm) is not None:
        raise IllegalMoveError("game is already over")
    for f, t, cap in _generate(position.board, position.stm, rules):
        if f == move.from_sq and t == move.to_sq and bool(cap) == move.capture:
            board = bytearray(position.board)
            board[t] = board[f]
            board[f] = 0
            return Position(bytes(board), position.stm ^ 1)
    raise IllegalMoveError(
        f"illegal move {square_name(move.from_sq)}-{square_name(move.to_sq)}"
    )


def move_text(position: Position, move: Move) -> str:
    """Piece letter (case = colour), 'x' on captures, destination square."""
    code = position.board[move.from_sq]
    if not code:
        raise IllegalMoveError(f"no piece on {square_name(move.from_sq)}")
    return f"{piece_letter(code)}{'x' if move.capture else ''}{square_name(move.to_sq)}"


def parse_move(position: Position, text: str, rules: Ruleset = DEFAULT_RULESET) -> Move:
    """Inverse of move_text for the given position."""
    if len(text) < 3:
        raise IllegalMoveError(f"bad move text {text!r}")
    letter = text[0]
    kind_idx = PIECE_LETTERS.find(letter.upper())
    if kind_idx < 1:
        raise IllegalMoveError(f"bad piece letter in {text!r}")
    color = WHITE if letter.isupper() else BLACK
    if color != position.stm:
        raise IllegalMoveError(f"{text!r} does not move the side to move")
    rest = text[1:]
    capture = rest.startswith("x")
    if capture:
        rest = rest[1:]
    dest = parse_square(rest)
    code = piece_code(color, PieceKind(kind_idx))
    from_sq = position.board.find(bytes((code,)))
    if from_sq < 0:
        raise IllegalMoveError(f"{text!r}: that piece is not on the board")
    move = Move(from_sq, dest, capture)
    for f, t, cap in _generate(position.board, position.stm, rules):
        if (f, t, bool(cap)) == (from_sq, dest, capture):
            return move
    raise IllegalMoveError(f"illegal move {text!r}")


def position_to_text(position: Position) -> str:
    """Ranks 9 down to 1, '/'-separated, empty runs as digits, then ' w'/' b'."""
    rows = []
    for rank in range(NUM_RANKS - 1, -1, -1):
        row = []
        empty = 0
        for file in range(NUM_FILES):
            code = position.board[rank * NUM_FILES + file]
            if not code:
                empty += 1
                continue
            if empty:
                row.append(str(empty))
                empty = 0
            row.append(piece_letter(code))
        if empty:
            row.append(str(empty))
        rows.append("".join(row))
    return "/".join(rows) + (" w" if position.stm == WHITE else " b")


def position_from_text(text: str) -> Position:
    """Parse position text; errors carry the offending character offset."""
    body, sep, side = text.rpartition(" ")
    if not sep or not body:
        raise InvalidPositionError("missing side-to-move field", offset=len(text))
    if side not in ("w", "b"):
        raise InvalidPositionError(
            f"side to move must be 'w' or 'b', got {side!r}", offset=len(body) + 1
        )
    rows = body.split("/")
    if len(rows) != NUM_RANKS:
        raise InvalidPositionError(f"expected 9 ranks, got {len(rows)}", offset=0)
    board = bytearray(NUM_SQUARES)
    offset = 0
    for i, row in enumerate(rows):
        rank = NUM_RANKS - 1 - i
        file = 0
        for j, ch in enumerate(row):
            at = offset + j
            if ch.isdigit():
                run = int(ch)
                if not 1 <= run <= NUM_FILES:
                    raise InvalidPositionError(f"bad empty run {ch!r}", offset=at)
                file += run
            else:
                kind_idx = PIECE_LETTERS.find(ch.upper())
                if kind_idx < 1:
                    raise InvalidPositionError(f"bad piece letter {ch!r}", offset=at)
                if file >= NUM_FILES:
                    raise InvalidPositionError("rank overflows 7 files", offset=at)
                color = WHITE if ch.isupper() else BLACK
                board[rank * NUM_FILES + file] = piece_code(color, PieceKind(kind_idx))
                file += 1
            if file > NUM_FILES:
                raise InvalidPositionError("rank overflows 7 files", offset=at)
        if file != NUM_FILES:
            raise InvalidPositionError(
                f"rank {rank + 1} covers {file} of 7 files", offset=offset + len(row)
            )
        offset += len(row) + 1
    position = Position(bytes(board), WHITE if side == "w" else BLACK)
    validate_position(position)
    return position


_MIRROR = tuple(
    (NUM_RANKS - 1 - sq // NUM_FILES) * NUM_FILES + sq % NUM_FILES
    for sq in range(NUM_SQUARES)
)


def mirror_square(sq: int) -> int:
    return _MIRROR[sq]


def mirror_position(position: Position) -> Position:
    """Rank flip plus colour swap; a full game isomorphism."""
    board = bytearray(NUM_SQUARES)
    for sq, code in enumerate(position.board):
        if code:
            board[_MIRROR[sq]] = code ^ 16
    return Position(bytes(board), position.stm ^ 1)


def mirror_move(move: Move) -> Move:
    return Move(_MIRROR[move.from_sq], _MIRROR[move.to_sq], move.capture)


INITIAL_POSITION_TEXT = "l5t/1d3c1/r1p1w1e/7/7/7/E1W1P1R/1C3D1/T5L w"


def initial_position() -> Position:
    return position_from_text(INITIAL_POSITION_TEXT)


# Side-to-move byte that ends a repetition-history key (board + side).
_SIDE_BYTE = (bytes([WHITE]), bytes([BLACK]))

# Deepest perft accepted; far beyond any count that finishes in practice.
MAX_PERFT_DEPTH = 16


def perft(position: Position, depth: int, rules: Ruleset = DEFAULT_RULESET) -> int:
    """Leaf count of the depth-limited minimax tree.

    A node is a leaf when the depth is exhausted, the game has ended, the
    side to move has no legal move, or the position repeats one seen earlier
    in the current line (root included).  Each leaf counts once.  The
    repetition cut keeps the tree acyclic; it belongs to the tree-counting
    semantics, not to the move rules (legal_moves imposes no repetition
    restriction).
    """
    if not 0 <= depth <= MAX_PERFT_DEPTH:
        raise ValueError(f"depth {depth} is outside 0..{MAX_PERFT_DEPTH}")
    validate_position(position)
    board = bytearray(position.board)
    counts = [0, 0]
    for code in board:
        if code:
            counts[code >> 4] += 1
    history = {bytes(board) + _SIDE_BYTE[position.stm]}
    return _perft(board, position.stm, depth, counts, rules, history)


def _perft(
    board: bytearray,
    stm: int,
    depth: int,
    counts: list[int],
    rs: Ruleset,
    history: set[bytes],
) -> int:
    if (
        counts[stm] == 0
        or counts[stm ^ 1] == 0
        or board[DENS[stm]]
        or board[DENS[stm ^ 1]]
    ):
        return 1
    if depth == 0:
        return 1
    moves = _generate(board, stm, rs)
    if not moves:
        return 1
    if depth == 1:
        # Children are leaves whether or not they repeat an ancestor.
        return len(moves)
    total = 0
    other = stm ^ 1
    side = _SIDE_BYTE[other]
    for f, t, cap in moves:
        pc = board[f]
        board[f] = 0
        board[t] = pc
        if cap:
            counts[other] -= 1
        key = bytes(board) + side
        if key in history:
            total += 1
        else:
            history.add(key)
            total += _perft(board, other, depth - 1, counts, rs, history)
            history.discard(key)
        if cap:
            counts[other] += 1
        board[f] = pc
        board[t] = cap
    return total
