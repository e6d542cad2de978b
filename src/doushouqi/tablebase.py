"""Endgame tables: enumeration, retrograde solving, storage, probing.

A partition fixes which piece kinds each side owns (at most one piece per
kind and side).  Its universe holds every ongoing position with White to
move: each piece on an allowed square (water excluded for non-rats, both
dens excluded for everyone) and no two pieces stacked.  Black-to-move
positions are covered by the rank-mirror color swap, which maps them into
the partition with the two armies exchanged.

Entries are solved by retrograde analysis over the coupled partition pair
(a quiet move by White in "T_l" lands in "L_t" after canonicalization) and
store a value from the mover's perspective plus the distance to mate in
plies.  The on-disk format is little-endian and bit-exact: solving the
same partition twice yields identical files.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from enum import IntEnum
from functools import cache
from itertools import islice, product
from typing import Iterator, NamedTuple, Optional

from .rules import (
    BLACK,
    BLACK_DEN,
    DEFAULT_RULESET,
    DENS,
    Move,
    NUM_SQUARES,
    PieceKind,
    Position,
    Ruleset,
    WHITE,
    mirror_move,
    mirror_position,
    piece_code,
    validate_position,
)
from .rules import PIECE_LETTERS, WATER_SQUARES, _MIRROR, _generate, _has_move

MAGIC = b"DSQT"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHBBIQ")
MAX_DTM = (1 << 14) - 1

ALLOWED_RAT = tuple(sq for sq in range(NUM_SQUARES) if sq not in DENS)
ALLOWED_NONRAT = tuple(
    sq for sq in ALLOWED_RAT if sq not in WATER_SQUARES
)


def allowed_squares(kind: PieceKind) -> tuple[int, ...]:
    return ALLOWED_RAT if kind == PieceKind.RAT else ALLOWED_NONRAT


class Value(IntEnum):
    DRAW = 0
    WIN = 1
    LOSS = 2
    INVALID = 3    # dtm 0: collision hole; dtm 1: blocked-mover placement


_COLLISION = Value.INVALID             # packed Invalid(0)
_BLOCKED = Value.INVALID | 1 << 2      # packed Invalid(1)


class MissingPartitionError(KeyError):
    """A probe needed a partition that is not loaded."""


class Partition(NamedTuple):
    """Piece kinds per side; the name lists letters by ascending strength."""

    white: tuple[PieceKind, ...]
    black: tuple[PieceKind, ...]

    @classmethod
    def of_kinds(cls, white, black) -> "Partition":
        wk = tuple(sorted(set(PieceKind(k) for k in white)))
        bk = tuple(sorted(set(PieceKind(k) for k in black)))
        if not wk or not bk:
            raise ValueError("each side needs at least one piece")
        if len(wk) + len(bk) > 4:
            raise ValueError("partitions beyond four pieces are out of scope")
        return cls(wk, bk)

    @classmethod
    def from_name(cls, name: str) -> "Partition":
        white_part, sep, black_part = name.partition("_")
        if not sep or not white_part or not black_part:
            raise ValueError(f"bad partition name {name!r}")
        def kinds(letters: str) -> list[PieceKind]:
            out = []
            for ch in letters:
                idx = PIECE_LETTERS.find(ch.upper())
                if idx < 1:
                    raise ValueError(f"bad piece letter {ch!r} in {name!r}")
                out.append(PieceKind(idx))
            return out
        return cls.of_kinds(kinds(white_part), kinds(black_part))

    @classmethod
    def of_position(cls, position: Position) -> "Partition":
        white, black = [], []
        for _, color, kind in position.pieces():
            (white if color == WHITE else black).append(kind)
        if len(set(white)) != len(white) or len(set(black)) != len(black):
            raise ValueError("duplicate piece kinds have no partition")
        return cls.of_kinds(white, black)

    @property
    def name(self) -> str:
        return (
            "".join(PIECE_LETTERS[k] for k in self.white)
            + "_"
            + "".join(PIECE_LETTERS[k].lower() for k in self.black)
        )

    @property
    def filename(self) -> str:
        return self.name + ".dsqt"

    @property
    def swapped(self) -> "Partition":
        return Partition(self.black, self.white)

    @property
    def piece_count(self) -> int:
        return len(self.white) + len(self.black)

    def masks(self) -> tuple[int, int]:
        wm = sum(1 << (k - 1) for k in self.white)
        bm = sum(1 << (k - 1) for k in self.black)
        return wm, bm

    @classmethod
    def from_masks(cls, white_mask: int, black_mask: int) -> "Partition":
        white = [PieceKind(i + 1) for i in range(8) if white_mask >> i & 1]
        black = [PieceKind(i + 1) for i in range(8) if black_mask >> i & 1]
        return cls.of_kinds(white, black)

    def ordered_pieces(self) -> tuple[tuple[int, PieceKind], ...]:
        """Index digit order: White then Black, descending strength."""
        return tuple(
            [(WHITE, k) for k in sorted(self.white, reverse=True)]
            + [(BLACK, k) for k in sorted(self.black, reverse=True)]
        )

    @property
    def capacity(self) -> int:
        cap = 1
        for _, kind in self.ordered_pieces():
            cap *= len(allowed_squares(kind))
        return cap


def canonicalize(position: Position) -> tuple[Position, bool]:
    """White-to-move representative; Black-to-move inputs are mirrored."""
    if position.stm == WHITE:
        return position, False
    return mirror_position(position), True


def index(position: Position, partition: Partition) -> int:
    """Dense mixed-radix index of a White-to-move position."""
    if position.stm != WHITE:
        raise ValueError("index is defined on canonical (White-to-move) positions")
    if Partition.of_position(position) != partition:
        raise ValueError(
            f"position holds {Partition.of_position(position).name}, "
            f"not {partition.name}"
        )
    space = _pair_space(partition)
    idx = 0
    for code, terms in zip(space.codes, space.terms):
        sq = position.board.index(code)
        if terms[sq] < 0:
            raise ValueError(f"piece on disallowed square {sq}")
        idx += terms[sq]
    return idx


def unindex(idx: int, partition: Partition) -> Optional[Position]:
    """Inverse of index; None when the slot is a collision (Invalid)."""
    if not 0 <= idx < partition.capacity:
        raise ValueError(f"index {idx} out of range for {partition.name}")
    pieces = partition.ordered_pieces()
    squares = []
    rem = idx
    for _, kind in reversed(pieces):
        rem, rank = divmod(rem, len(allowed_squares(kind)))
        squares.append(allowed_squares(kind)[rank])
    squares.reverse()
    if len(set(squares)) != len(squares):
        return None
    board = bytearray(NUM_SQUARES)
    for (color, kind), sq in zip(pieces, squares):
        board[sq] = piece_code(color, kind)
    return Position(bytes(board), WHITE)


class TablebaseStats(NamedTuple):
    positions: int
    wins: int
    losses: int
    draws: int
    longest_plies: int
    longest_winner_moves: int


class Tablebase:
    """Solved entries for one partition (White to move), array-backed."""

    __slots__ = ("partition", "rules_word", "entries", "sibling")

    def __init__(self, partition: Partition, rules_word: int, entries) -> None:
        if len(entries) != partition.capacity:
            raise ValueError(
                f"{partition.name}: expected {partition.capacity} entries, "
                f"got {len(entries)}"
            )
        self.partition = partition
        self.rules_word = rules_word
        self.entries = entries
        self.sibling: Optional[Tablebase] = None

    def entry(self, idx: int) -> tuple[Value, int]:
        packed = self.entries[idx]
        return Value(packed & 3), packed >> 2

    def lookup(self, position: Position) -> tuple[Value, int]:
        """Value and dtm after canonicalization; mover's perspective."""
        canon, _ = canonicalize(position)
        value, dtm = self.entry(index(canon, self.partition))
        if value is Value.INVALID:
            if dtm:
                raise ValueError("blocked position: the mover has no move")
            raise ValueError("position maps to an invalid (colliding) slot")
        return value, dtm

    def positions(self) -> Iterator[tuple[int, Position]]:
        for idx in range(self.partition.capacity):
            pos = unindex(idx, self.partition)
            if pos is not None:
                yield idx, pos


def stats(tablebase: Tablebase) -> TablebaseStats:
    wins = losses = draws = 0
    longest = 0
    for packed in tablebase.entries:
        value = packed & 3
        if value == Value.DRAW:
            draws += 1
            continue
        if value == Value.WIN:
            wins += 1
        elif value == Value.LOSS:
            losses += 1
        else:
            continue
        # Longest forced sequence over decided entries, in plies.  The
        # deepest entries are losses (loser to move, one ply before the
        # matching win), and that loss-side count is the longest-line metric.
        dtm = packed >> 2
        if dtm > longest:
            longest = dtm
    return TablebaseStats(
        wins + losses + draws, wins, losses, draws,
        longest, (longest + 1) // 2,
    )


def aggregate_stats(tables) -> TablebaseStats:
    positions = wins = losses = draws = longest = 0
    for tb in tables:
        s = stats(tb)
        positions += s.positions
        wins += s.wins
        losses += s.losses
        draws += s.draws
        longest = max(longest, s.longest_plies)
    return TablebaseStats(
        positions, wins, losses, draws, longest, (longest + 1) // 2
    )


# --- solving ----------------------------------------------------------------

class _PairSpace:
    """Raw state space of a partition pair: placements x side to move.

    State index = stm * capacity + mixed-radix placement index, using the
    partition's own digit order for both halves.  The Black-to-move half
    maps onto the swapped partition's universe through the rank mirror.
    ``terms[slot][sq]`` is the index term of the slot's piece on ``sq``
    (rank of the square times the slot's weight, -1 off the universe), so
    an index is a sum of terms and a move changes one of them.
    """

    def __init__(self, partition: Partition) -> None:
        pieces = partition.ordered_pieces()
        self.codes = [piece_code(c, k) for c, k in pieces]
        self.slot_of = {code: i for i, code in enumerate(self.codes)}
        self.allowed = [allowed_squares(k) for _, k in pieces]
        weights, w = [], 1
        for lst in reversed(self.allowed):
            weights.insert(0, w)
            w *= len(lst)
        self.capacity = w
        self.terms = [
            [allowed.index(sq) * weight if sq in allowed else -1
             for sq in range(NUM_SQUARES)]
            for allowed, weight in zip(self.allowed, weights)
        ]
        # Piece i of the swapped partition's digit order is piece j here;
        # its term is j's term of the mirrored square.
        n, shift = len(pieces), len(partition.white)
        self.mirror_terms = [
            [self.terms[j][_MIRROR[sq]] for sq in range(NUM_SQUARES)]
            for j in ((i + shift) % n for i in range(n))
        ]

    def placements(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """All collision-free placements as (radix index, squares)."""
        pieces = len(self.codes)
        for base, squares in enumerate(product(*self.allowed)):
            if len(set(squares)) == pieces:
                yield base, squares

    def mirror_index(self, squares) -> int:
        """Index here of the rank mirror, colours swapped, of a placement
        of the swapped partition given as squares in its digit order."""
        return sum(map(list.__getitem__, self.mirror_terms, squares))


# One space per partition: it does not depend on the rule variant.
_pair_space = cache(_PairSpace)


def _subgame_lookup(subgames: Optional[TablebaseStore], position) -> tuple[Value, int]:
    canon, _ = canonicalize(position)
    part = Partition.of_position(canon)
    table = None if subgames is None else subgames.tables.get(part.name)
    if table is None:
        raise MissingPartitionError(
            f"capture target needs unsolved partition {part.name}"
        )
    return table.entry(index(canon, part))


def solve_pair(
    partition: Partition,
    subgames=None,
    rules: Ruleset = DEFAULT_RULESET,
) -> tuple[Tablebase, Tablebase]:
    """Retrograde-solve a partition and its army-swapped twin together.

    Quiet moves connect the two universes, so they form one closed game
    graph; captures leave it and are valued from ``subgames`` (for 2-piece
    partitions a capture wins outright and no subgames are needed).
    Returns the pair (partition's table, swapped partition's table); for a
    self-swapped partition both elements are the same object and the two
    halves are checked against each other through the mirror map.

    The graph is never stored.  Per state there are three flat arrays: the
    packed entry (0 while unresolved, which is Draw(0) at the end; a
    pending win holds its best distance so far), the count of moves not
    yet known to lose (quiet moves plus captures into a draw) and the
    slowest loss that its captures into opponent wins force.
    Predecessors are generated when a state is finalised, by playing the
    previous mover's quiet moves backwards.  A quiet move goes onto an
    empty square, and such a move can be taken back: steps join
    neighbours both ways, a leap crosses the same river squares both ways,
    an empty square is open to every piece that may stand on it, and the
    square left is one the piece may stand on (water only for the rat, no
    den in the universe).  So the reversed quiet moves that land inside
    the universe (a reversed step onto a den is dropped) give exactly the
    states with a quiet move into this one, each once.  Den entries and
    captures are never reversed: they leave the pair, into terminal or
    smaller positions, so no state of the pair reaches another by one.
    A predecessor's mover has the move just reversed, so it is never a
    blocked state; blocked states and collision slots hold Invalid
    entries, never 0, so none is taken for unresolved.
    """
    space = _pair_space(partition)
    cap = space.capacity
    total = 2 * cap
    codes, terms, allowed = space.codes, space.terms, space.allowed
    WIN, LOSS = Value.WIN, Value.LOSS
    steps, leaps = rules._move_table
    # A dtm past MAX_DTM does not fit: storing it raises OverflowError.
    entries = array("H", [_COLLISION]) * total
    pending = bytearray(total)
    loss_floor = array("H", bytes(total * 2))
    wins: list[array] = []
    losses: list[array] = []

    def push(buckets: list[array], d: int, state: int) -> None:
        while len(buckets) <= d:
            buckets.append(array("I"))
        buckets[d].append(state)

    board = bytearray(NUM_SQUARES)
    opp_count = (len(partition.black), len(partition.white))
    for base, squares in space.placements():
        for sq, code in zip(squares, codes):
            board[sq] = code
        for stm in (WHITE, BLACK):
            state = stm * cap + base
            moves = _generate(board, stm, rules)
            if not moves:
                # Blocked mover: terminal draw by rule, so not a position of
                # the stored universe (same footing as den occupation).  The
                # dtm-1 marker separates it from a collision hole; quiet
                # moves into it read as draws through the terminal check.
                entries[state] = _BLOCKED
                continue
            opp_den = DENS[stm ^ 1]
            best_win = floor = open_moves = 0
            for f, t, cap_code in moves:
                if not cap_code and t != opp_den:
                    open_moves += 1           # quiet move: stays in the pair
                    continue
                if not cap_code or opp_count[stm] == 1:
                    win_in = 1       # den entry, or took the last piece
                else:
                    succ_board = bytearray(board)
                    succ_board[f] = 0
                    succ_board[t] = board[f]
                    sub_val, sub_dtm = _subgame_lookup(
                        subgames, Position(bytes(succ_board), stm ^ 1)
                    )
                    if sub_val is Value.DRAW:
                        open_moves += 1       # a drawn capture: never a Loss
                        continue
                    if sub_val is not Value.LOSS:
                        floor = max(floor, sub_dtm + 1)
                        continue
                    win_in = sub_dtm + 1
                if best_win == 0 or win_in < best_win:
                    best_win = win_in
            if best_win:
                entries[state] = best_win << 2 | WIN
                push(wins, best_win, state)
            elif open_moves:
                entries[state] = 0
                pending[state] = open_moves
                loss_floor[state] = floor
            else:
                # every move was a capture into an opponent win
                entries[state] = 0
                push(losses, floor, state)
        for sq in squares:
            board[sq] = 0

    n, whites = len(codes), len(partition.white)
    slots = (range(whites), range(whites, n))
    digits = [(i, len(allowed[i]), allowed[i], codes[i]) for i in reversed(range(n))]
    where = [0] * n

    def unmoves(state: int) -> list[int]:
        """Predecessors of a state: the previous mover's quiet moves played
        backwards on its placement (see above)."""
        stm, rem = divmod(state, cap)
        for i, radix, squares, code in digits:
            rem, rank = divmod(rem, radix)
            where[i] = sq = squares[rank]
            board[sq] = code
        found = []
        shift = state + (1 - 2 * stm) * cap      # same placement, other side
        for i in slots[stm ^ 1]:
            t, code, term = where[i], codes[i], terms[i]
            here = shift - term[t]
            for f, _ in steps[code][t]:
                if not board[f] and term[f] >= 0:
                    found.append(here + term[f])
            for f, crossed, _ in leaps[code][t]:
                if not board[f] and not any(board[crossed]):
                    found.append(here + term[f])
        for sq in where:
            board[sq] = 0
        return found

    # Layered propagation: finalize wins then losses at each distance.
    d = 1
    while d < len(wins) or d < len(losses):
        if d < len(wins):
            won = d << 2 | WIN
            for state in wins[d]:
                if entries[state] != won:
                    continue              # won faster meanwhile
                for p in unmoves(state):
                    if entries[p] == 0:
                        pending[p] -= 1
                        if pending[p] == 0:
                            push(losses, max(d + 1, loss_floor[p]), p)
        if d < len(losses):
            won = (d + 1) << 2 | WIN
            for state in losses[d]:
                entries[state] = d << 2 | LOSS
                for p in unmoves(state):
                    e = entries[p]
                    if e == 0 or e & 3 == WIN and e > won:
                        entries[p] = won
                        push(wins, d + 1, p)
        d += 1

    own = entries[:cap]
    own_tb = Tablebase(partition, rules.flag_word, own)

    # The Black-to-move half is the swapped partition through the mirror.
    swapped = partition.swapped
    twin_entries = array("H", [_COLLISION]) * cap
    for twin_base, squares in _pair_space(swapped).placements():
        twin_entries[twin_base] = entries[cap + space.mirror_index(squares)]
    if swapped == partition:
        if twin_entries != own:
            raise AssertionError(
                f"{partition.name}: mirror halves disagree"
            )
        own_tb.sibling = own_tb
        return own_tb, own_tb
    twin_tb = Tablebase(swapped, rules.flag_word, twin_entries)
    own_tb.sibling = twin_tb
    twin_tb.sibling = own_tb
    return own_tb, twin_tb


def solve(
    partition: Partition,
    subgames=None,
    rules: Ruleset = DEFAULT_RULESET,
) -> Tablebase:
    return solve_pair(partition, subgames, rules)[0]


def all_partitions(piece_count: int = 2) -> list[Partition]:
    if piece_count == 2:
        return [
            Partition.of_kinds([w], [b])
            for w in PieceKind
            for b in PieceKind
        ]
    if piece_count == 3:
        pairs = [
            (a, b)
            for a in PieceKind
            for b in PieceKind
            if a < b
        ]
        out = [Partition.of_kinds(pair, [c]) for pair in pairs for c in PieceKind]
        out += [Partition.of_kinds([c], pair) for pair in pairs for c in PieceKind]
        return out
    raise ValueError("only the 2- and 3-piece enumerations are built in")


# --- persistence ------------------------------------------------------------

def write_tablebase(tablebase: Tablebase, directory: str) -> str:
    path = os.path.join(directory, tablebase.partition.filename)
    wm, bm = tablebase.partition.masks()
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, tablebase.rules_word, wm, bm, 0,
        len(tablebase.entries),
    )
    payload = tablebase.entries.tobytes()
    if sys.byteorder != "little":            # entries are LE on disk
        swapped = bytearray(payload)
        swapped[0::2], swapped[1::2] = payload[1::2], payload[0::2]
        payload = bytes(swapped)
    # Written beside the target and renamed over it: a failed or killed
    # write leaves the old file, never a partial one.
    partial = f"{path}.{os.getpid()}.tmp"
    fh = open(partial, "wb")
    try:
        with fh:
            fh.write(header)
            fh.write(payload)
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise
    return path


def read_tablebase(path: str) -> Tablebase:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a tablebase file")
    magic, version, rules_word, wm, bm, _, count = _HEADER.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    partition = Partition.from_masks(wm, bm)
    body = raw[_HEADER.size:]
    if len(body) != 2 * count:
        raise ValueError(f"{path}: truncated entry block")
    entries = array("H")
    entries.frombytes(body)
    if sys.byteorder != "little":
        entries.byteswap()
    return Tablebase(partition, rules_word, entries)


# --- probing ----------------------------------------------------------------

def _successor_values(tablebase: Tablebase, subgames, rules):
    """Valuer of the moves from ``tablebase``'s placements, White to move;
    verify and best_move both use it.

    ``value(board, squares, f, t, cap)`` plays a generated move on a raw
    board whose pieces stand on ``squares`` (digit order), restores it,
    and returns (value, dtm) for the new mover: Loss(0) after den entry or
    taking the last piece; Draw(0) if the opponent cannot move; after a
    capture, the entry of the smaller partition in ``subgames``; else the
    twin table's entry at the mirrored index, with no Position built.  The
    twin is the table itself, its sibling or the one in ``subgames``; a quiet
    move without it raises MissingPartitionError naming the twin.
    """
    swapped = tablebase.partition.swapped
    twin_space = _pair_space(swapped)
    twin = tablebase if swapped == tablebase.partition else tablebase.sibling
    if twin is None or twin.partition != swapped:
        twin = None if subgames is None else subgames.tables.get(swapped.name)
    twin_entries = None if twin is None else twin.entries
    slot_of = _pair_space(tablebase.partition).slot_of
    takes_last = len(tablebase.partition.black) == 1

    def value(board, squares, f, t, cap):
        if t == BLACK_DEN or cap and takes_last:
            return Value.LOSS, 0
        code = board[f]
        board[f] = 0
        board[t] = code
        if not _has_move(board, BLACK, rules, squares):
            result = Value.DRAW, 0
        elif cap:
            result = _subgame_lookup(subgames, Position(bytes(board), BLACK))
        elif twin_entries is None:
            raise MissingPartitionError(
                f"quiet move needs the twin partition {swapped.name}"
            )
        else:
            terms = twin_space.mirror_terms[slot_of[code]]
            packed = twin_entries[
                twin_space.mirror_index(squares) - terms[f] + terms[t]
            ]
            result = packed & 3, packed >> 2
        board[f] = code
        board[t] = cap
        return result
    return value


def best_move(
    tablebase: Tablebase,
    position: Position,
    subgames: Optional[TablebaseStore] = None,
    rules: Ruleset = DEFAULT_RULESET,
) -> Optional[Move]:
    """First generated move achieving the stored value with exact dtm."""
    return _witness(tablebase, position, tablebase.lookup(position), subgames, rules)


def _witness(tablebase, position, entry, subgames, rules) -> Optional[Move]:
    """best_move, given the position's entry (value, dtm)."""
    value, dtm_here = entry
    canon, mirrored = canonicalize(position)
    value_of = _successor_values(tablebase, subgames, rules)
    board = bytearray(canon.board)
    squares = [board.index(code) for code in _pair_space(tablebase.partition).codes]
    moves = _generate(board, WHITE, rules)
    if not moves:
        return None
    views = ((move,) + value_of(board, squares, *move) for move in moves)
    if value is Value.WIN:
        choice = next(
            (m for m, v, d in views if v == Value.LOSS and d == dtm_here - 1), None
        )
    elif value is Value.DRAW:
        choice = next((m for m, v, _ in views if v == Value.DRAW), None)
    else:
        choice, best_delay = None, -1
        for move, succ_value, succ_dtm in views:
            if succ_value != Value.WIN:
                raise AssertionError("loss entry with a non-losing move")
            if succ_dtm > best_delay:
                choice, best_delay = move, succ_dtm
        if best_delay != dtm_here - 1:
            raise AssertionError("loss entry dtm does not match successors")
    if choice is None:
        raise AssertionError("stored value has no witness move")
    f, t, cap = choice
    move = Move(f, t, bool(cap))
    return mirror_move(move) if mirrored else move


def probe(
    tablebase: Tablebase,
    position: Position,
    subgames: Optional[TablebaseStore] = None,
    rules: Ruleset = DEFAULT_RULESET,
) -> tuple[Value, int, Optional[Move]]:
    """Stored value/dtm plus a witness best move (see best_move)."""
    validate_position(position)
    entry = tablebase.lookup(position)
    return entry + (_witness(tablebase, position, entry, subgames, rules),)


# --- verification -----------------------------------------------------------

def verify(
    tablebase: Tablebase,
    subgames: Optional[TablebaseStore] = None,
    rules: Ruleset = DEFAULT_RULESET,
    limit: int = 50,
) -> list[str]:
    """Local-consistency audit of every entry, in index order.

    Win(k) needs a witness successor Loss(k-1) and nothing faster; Loss(k)
    needs all successors Win with maximum k-1; Draw needs dtm 0, no winning
    move and a drawing one.  Collision slots must be Invalid(0) and blocked
    placements (the mover has no move) Invalid(1).  Successors are valued
    as best_move values them.  Returns violations, empty if sound, at most
    ``limit`` entries long (but always the first one).
    """
    name = tablebase.partition.name
    found = _violations(tablebase, subgames, rules)
    return [f"{name}[{idx}]: {message}"
            for idx, message in islice(found, max(limit, 1))]


def _violations(tablebase, subgames, rules) -> Iterator[tuple[int, str]]:
    """(index, message) of each violation of verify, walking the slots in
    index order on one reused board."""
    space = _pair_space(tablebase.partition)
    value_of = _successor_values(tablebase, subgames, rules)
    entries = tablebase.entries
    board = bytearray(NUM_SQUARES)
    checked = 0                       # every slot below this is audited
    for base, squares in space.placements():
        for idx in range(checked, base):
            if entries[idx] != _COLLISION:
                yield idx, "collision slot not Invalid(0)"
        checked = base + 1
        for code, sq in zip(space.codes, squares):
            board[sq] = code
        packed = entries[base]
        value, dtm_here = packed & 3, packed >> 2
        moves = _generate(board, WHITE, rules)
        if not moves:
            if packed != _BLOCKED:
                yield base, (f"blocked placement stored as "
                             f"{Value(value).name}({dtm_here})")
        elif value == Value.INVALID:
            yield base, "movable placement stored as Invalid"
        else:
            fastest_win = None
            slowest_reply = -1
            has_draw = False
            for f, t, cap in moves:
                succ_value, succ_dtm = value_of(board, squares, f, t, cap)
                if succ_value == Value.LOSS:
                    if fastest_win is None or succ_dtm + 1 < fastest_win:
                        fastest_win = succ_dtm + 1
                elif succ_value == Value.DRAW:
                    has_draw = True
                elif succ_dtm > slowest_reply:
                    slowest_reply = succ_dtm
            if value == Value.WIN:
                if fastest_win != dtm_here:
                    yield base, f"Win({dtm_here}) but fastest line is {fastest_win}"
            elif value == Value.LOSS:
                if fastest_win is not None or has_draw:
                    yield base, f"Loss({dtm_here}) with an escape move"
                elif slowest_reply + 1 != dtm_here:
                    yield base, f"Loss({dtm_here}) but best delay is {slowest_reply + 1}"
            elif dtm_here:
                yield base, f"Draw({dtm_here}) but a draw stores dtm 0"
            elif fastest_win is not None:
                yield base, "Draw with a winning move"
            elif not has_draw:
                yield base, "Draw without a drawing move"
        for sq in squares:
            board[sq] = 0
    for idx in range(checked, space.capacity):
        if entries[idx] != _COLLISION:
            yield idx, "collision slot not Invalid(0)"


# --- store ------------------------------------------------------------------

class TablebaseStore:
    """Loaded partitions, keyed by name; the probe surface for searches."""

    def __init__(self, tables=None) -> None:
        self.tables: dict[str, Tablebase] = {}
        if tables:
            for tb in tables:
                self.add(tb)

    def add(self, tablebase: Tablebase) -> None:
        self.tables[tablebase.partition.name] = tablebase
        # Wire sibling links so best-move lookahead can cross the pair.
        twin = self.tables.get(tablebase.partition.swapped.name)
        if twin is not None:
            tablebase.sibling = twin
            twin.sibling = tablebase

    @classmethod
    def build_two_piece(cls, rules: Ruleset = DEFAULT_RULESET) -> "TablebaseStore":
        store = cls()
        for partition in all_partitions(2):
            if partition.name in store.tables:
                continue
            own, twin = solve_pair(partition, None, rules)
            store.add(own)
            if twin is not own:
                store.add(twin)
        return store

    @classmethod
    def load_directory(cls, directory: str) -> "TablebaseStore":
        store = cls()
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".dsqt"):
                store.add(read_tablebase(os.path.join(directory, entry)))
        return store

    def save_directory(self, directory: str) -> list[str]:
        os.makedirs(directory, exist_ok=True)
        return [
            write_tablebase(tb, directory)
            for _, tb in sorted(self.tables.items())
        ]

    def _table_for(self, position: Position) -> Tablebase:
        canon, _ = canonicalize(position)
        try:
            part = Partition.of_position(canon)
        except ValueError as exc:
            raise MissingPartitionError(str(exc)) from None
        table = self.tables.get(part.name)
        if table is None:
            raise MissingPartitionError(f"partition {part.name} is not loaded")
        return table

    def covers(self, position: Position) -> bool:
        counts = [0, 0]
        kinds = set()
        for sq, color, kind in position.pieces():
            counts[color] += 1
            kinds.add((color, kind))
        if counts[WHITE] == 0 or counts[BLACK] == 0:
            return False
        if len(kinds) != counts[WHITE] + counts[BLACK]:
            return False
        try:
            self._table_for(position)
        except MissingPartitionError:
            return False
        return True

    def probe_value(self, position: Position) -> tuple[int, int]:
        value, dtm_here = self._table_for(position).lookup(position)
        return int(value), dtm_here

    def probe(self, position: Position):
        table = self._table_for(position)
        return probe(table, position, subgames=self)

    def all_tables(self) -> list[Tablebase]:
        return [tb for _, tb in sorted(self.tables.items())]

    def stats(self) -> TablebaseStats:
        return aggregate_stats(self.all_tables())
