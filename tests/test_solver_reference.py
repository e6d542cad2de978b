"""solve_pair against the stored-edge solver it replaced, plus a memory guard.

The reference keeps every state's successor tuple and predecessor list
and finalises wins and losses layer by layer from those stored edges.  It
indexes placements with its own mixed-radix code over allowed_squares, values
captures through canonicalize, Partition.of_position and index, and maps
the Black-to-move half onto the twin through mirror_position and index.
solve_pair generates predecessors by reversing quiet moves instead and
keeps flat arrays; both must give the very same entries.
"""

import tracemalloc
from array import array
from itertools import product

import pytest

from doushouqi.rules import (
    BLACK,
    DEFAULT_RULESET,
    DENS,
    NUM_SQUARES,
    WHITE,
    Position,
    _generate,
    mirror_position,
    piece_code,
)
from doushouqi.tablebase import (
    Partition,
    Value,
    all_partitions,
    allowed_squares,
    canonicalize,
    index,
    solve_pair,
)

# Peak traced bytes per state (both sides to move) of one solve_pair call.
# The stored-edge solver took 270-310 here; the flat arrays take 12-13, and
# one more list per state (8 B) would cross the bound.
PEAK_BYTES_PER_STATE = 16
UNRESOLVED = 255


def reference_solve_pair(partition, subgames=None, rules=DEFAULT_RULESET):
    """(own entries, twin entries) by retrograde analysis over stored edges."""
    pieces = partition.ordered_pieces()
    codes = [piece_code(c, k) for c, k in pieces]
    allowed = [allowed_squares(k) for _, k in pieces]
    rank = [{sq: r for r, sq in enumerate(squares)} for squares in allowed]
    weights = [1] * len(pieces)
    for i in range(len(pieces) - 2, -1, -1):
        weights[i] = weights[i + 1] * len(allowed[i + 1])
    slot_of = {code: i for i, code in enumerate(codes)}
    cap = partition.capacity
    total = 2 * cap
    value = bytearray([Value.INVALID] * total)
    dtm = [0] * total
    pending = [0] * total
    loss_floor = [0] * total
    has_draw_edge = [False] * total
    static_win = [0] * total
    succs = [()] * total
    preds = [[] for _ in range(total)]
    opp_count = (len(partition.black), len(partition.white))

    def placements():
        for base, squares in enumerate(product(*allowed)):
            if len(set(squares)) == len(squares):
                yield base, squares

    def capture_entry(board, stm):
        canon, _ = canonicalize(Position(bytes(board), stm))
        part = Partition.of_position(canon)
        return subgames.tables[part.name].entry(index(canon, part))

    board = bytearray(NUM_SQUARES)
    for base, squares in placements():
        for sq, code in zip(squares, codes):
            board[sq] = code
        for stm in (WHITE, BLACK):
            state = stm * cap + base
            moves = _generate(board, stm, rules)
            if not moves:
                dtm[state] = 1                 # blocked: Invalid(1)
                continue
            value[state] = UNRESOLVED
            quiet = []
            for f, t, taken in moves:
                if not taken and t != DENS[stm ^ 1]:
                    slot = slot_of[board[f]]
                    delta = (rank[slot][t] - rank[slot][f]) * weights[slot]
                    quiet.append((stm ^ 1) * cap + base + delta)
                    continue
                if not taken or opp_count[stm] == 1:
                    win_in = 1
                else:
                    after = bytearray(board)
                    after[f], after[t] = 0, board[f]
                    sub_value, sub_dtm = capture_entry(after, stm ^ 1)
                    if sub_value is Value.DRAW:
                        has_draw_edge[state] = True
                        continue
                    if sub_value is not Value.LOSS:
                        loss_floor[state] = max(loss_floor[state], sub_dtm + 1)
                        continue
                    win_in = sub_dtm + 1
                if not static_win[state] or win_in < static_win[state]:
                    static_win[state] = win_in
            succs[state] = tuple(quiet)
            pending[state] = len(quiet)
        for sq in squares:
            board[sq] = 0

    for state in range(total):
        if value[state] == UNRESOLVED:
            for succ in succs[state]:
                preds[succ].append(state)

    win_buckets, loss_buckets = {}, {}
    for state in range(total):
        if value[state] != UNRESOLVED:
            continue
        if static_win[state]:
            win_buckets.setdefault(static_win[state], []).append(state)
        elif pending[state] == 0 and not has_draw_edge[state]:
            loss_buckets.setdefault(loss_floor[state], []).append(state)
    d = 1
    while any(k >= d for k in list(win_buckets) + list(loss_buckets)):
        for state in win_buckets.get(d, ()):
            if value[state] != UNRESOLVED:
                continue
            value[state], dtm[state] = Value.WIN, d
            for p in preds[state]:
                if value[p] != UNRESOLVED:
                    continue
                pending[p] -= 1
                if pending[p] == 0 and not has_draw_edge[p] and not static_win[p]:
                    loss_buckets.setdefault(max(d + 1, loss_floor[p]), []).append(p)
        for state in loss_buckets.get(d, ()):
            if value[state] != UNRESOLVED:
                continue
            value[state], dtm[state] = Value.LOSS, d
            for p in preds[state]:
                if value[p] == UNRESOLVED:
                    win_buckets.setdefault(d + 1, []).append(p)
        d += 1
    for state in range(total):
        if value[state] == UNRESOLVED:
            value[state] = Value.DRAW

    own = array("H", [value[i] | dtm[i] << 2 for i in range(cap)])
    twin = array("H", [Value.INVALID]) * cap
    for base, squares in placements():
        for sq, code in zip(squares, codes):
            board[sq] = code
        mirrored = mirror_position(Position(bytes(board), BLACK))
        state = cap + base
        twin[index(mirrored, partition.swapped)] = value[state] | dtm[state] << 2
        for sq in squares:
            board[sq] = 0
    return own, twin


def two_piece_pairs():
    pairs, seen = [], set()
    for partition in all_partitions(2):
        if partition.name not in seen:
            pairs.append(partition)
            seen.update((partition.name, partition.swapped.name))
    return pairs


def test_two_piece_pairs_match_the_reference(two_piece_store):
    pairs = two_piece_pairs()
    assert len(pairs) == 36
    for partition in pairs:
        own, twin = reference_solve_pair(partition)
        tables = two_piece_store.tables
        assert tables[partition.name].entries == own, partition.name
        assert tables[partition.swapped.name].entries == twin, partition.name


@pytest.mark.parametrize("name", ("P_tl", "TL_e"))
def test_three_piece_pairs_match_the_reference(two_piece_store, p_tl_pair, name):
    # P_tl has blocked placements and leaps of lion and tiger.  TL_e also
    # has captures into drawn subgames, and capture wins that a quiet line
    # beats.
    partition = Partition.from_name(name)
    if name == "P_tl":
        got = p_tl_pair
    else:
        got = solve_pair(partition, two_piece_store)
    own, twin = reference_solve_pair(partition, two_piece_store)
    assert got[0].entries == own
    assert got[1].entries == twin


@pytest.mark.parametrize("name", ("R_r", "E_e"))
def test_solve_pair_peak_memory_per_state(name):
    partition = Partition.from_name(name)
    solve_pair(partition)          # builds the cached move table and index space
    tracemalloc.start()
    try:
        solve_pair(partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2 * partition.capacity) <= PEAK_BYTES_PER_STATE
