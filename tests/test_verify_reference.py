"""verify and best_move against a slow reference built on the public API.

The reference values each successor with legal_moves, apply_move,
terminal_state, canonicalize, Partition.of_position and index, building a
Position per move; verify and best_move walk raw boards and read the twin
table at mirrored indices.  Seeded corruptions of 2-piece tables, of a
3-piece pair and of its capture subgames must give the very same report
at every limit, and best_move must pick the reference's move.
"""

import random
from array import array

import pytest

from doushouqi.rules import (
    DEFAULT_RULESET,
    Outcome,
    apply_move,
    legal_moves,
    mirror_move,
    mirror_position,
    terminal_state,
)
from doushouqi.tablebase import (
    MissingPartitionError,
    Partition,
    Tablebase,
    TablebaseStore,
    Value,
    best_move,
    canonicalize,
    index,
    unindex,
    verify,
)

RNG_SEED = 606
LIMITS = (1, 5, 50)
COLLISION = (Value.INVALID, 0)
BLOCKED = (Value.INVALID, 1)


# --- reference --------------------------------------------------------------

def reference_successor(position, move, tablebase, subgames, rules):
    """Value/dtm of the position after move, from the new mover's view."""
    succ = apply_move(position, move, rules)
    outcome = terminal_state(succ, rules)
    if outcome is not Outcome.ONGOING:
        return (Value.DRAW if outcome is Outcome.DRAW else Value.LOSS), 0
    canon, _ = canonicalize(succ)
    part = Partition.of_position(canon)
    if part == tablebase.partition:
        table = tablebase
    elif tablebase.sibling is not None and part == tablebase.sibling.partition:
        table = tablebase.sibling
    else:
        table = None if subgames is None else subgames.tables.get(part.name)
    if table is None:
        raise MissingPartitionError(part.name)
    return table.entry(index(canon, part))


def reference_verify(tablebase, subgames=None, rules=DEFAULT_RULESET, limit=50):
    violations = []

    def note(idx, message):
        violations.append(f"{tablebase.partition.name}[{idx}]: {message}")
        return len(violations) >= limit

    for idx in range(tablebase.partition.capacity):
        value, dtm_here = tablebase.entry(idx)
        pos = unindex(idx, tablebase.partition)
        if pos is None:
            if (value, dtm_here) != COLLISION:
                if note(idx, "collision slot not Invalid(0)"):
                    return violations
            continue
        moves = legal_moves(pos, rules)
        if not moves:
            if (value, dtm_here) != BLOCKED:
                if note(idx, f"blocked placement stored as {value.name}({dtm_here})"):
                    return violations
            continue
        if value is Value.INVALID:
            if note(idx, "movable placement stored as Invalid"):
                return violations
            continue
        fastest_win = None
        slowest_reply = -1
        all_wins = True
        has_draw = False
        for move in moves:
            succ_value, succ_dtm = reference_successor(
                pos, move, tablebase, subgames, rules
            )
            if succ_value is Value.LOSS:
                win_in = succ_dtm + 1
                if fastest_win is None or win_in < fastest_win:
                    fastest_win = win_in
                all_wins = False
            elif succ_value is Value.DRAW:
                has_draw = True
                all_wins = False
            else:
                slowest_reply = max(slowest_reply, succ_dtm)
        if value is Value.WIN:
            if fastest_win != dtm_here:
                if note(idx, f"Win({dtm_here}) but fastest line is {fastest_win}"):
                    return violations
        elif value is Value.LOSS:
            if fastest_win is not None or has_draw or not all_wins:
                if note(idx, f"Loss({dtm_here}) with an escape move"):
                    return violations
            elif slowest_reply + 1 != dtm_here:
                if note(idx, f"Loss({dtm_here}) but best delay is {slowest_reply + 1}"):
                    return violations
        else:
            if dtm_here:
                if note(idx, f"Draw({dtm_here}) but a draw stores dtm 0"):
                    return violations
            elif fastest_win is not None:
                if note(idx, "Draw with a winning move"):
                    return violations
            elif not has_draw:
                if note(idx, "Draw without a drawing move"):
                    return violations
    return violations


def reference_best_move(tablebase, position, subgames=None, rules=DEFAULT_RULESET):
    value, dtm_here = tablebase.lookup(position)
    canon, mirrored = canonicalize(position)
    moves = legal_moves(canon, rules)
    if not moves:
        return None
    views = [
        (move,) + tuple(reference_successor(canon, move, tablebase, subgames, rules))
        for move in moves
    ]
    if value is Value.WIN:
        choice = next(m for m, v, d in views if v is Value.LOSS and d == dtm_here - 1)
    elif value is Value.DRAW:
        choice = next(m for m, v, _ in views if v is Value.DRAW)
    else:
        assert all(v is Value.WIN for _, v, _ in views)
        delay = max(d for _, _, d in views)
        assert delay == dtm_here - 1
        choice = next(m for m, _, d in views if d == delay)
    return mirror_move(choice) if mirrored else choice


# --- corruption -------------------------------------------------------------

def corrupt(rng, table, slots, count):
    """Copy of ``table`` with ``count`` of ``slots`` rewritten: value flips,
    dtm +-1, Draw(k>0), and the two Invalid markers in and out of place."""
    entries = array("H", table.entries)
    for idx in rng.sample(slots, count):
        value, dtm = table.entry(idx)
        if value is Value.INVALID:
            choices = [
                (Value.INVALID, 1 - dtm),    # the other marker
                (Value.INVALID, dtm),        # in place: no violation
                (Value.WIN, 1 + dtm),
                (Value.DRAW, 0),
            ]
        else:
            flips = [v for v in (Value.WIN, Value.LOSS, Value.DRAW) if v is not value]
            choices = [
                (rng.choice(flips), dtm),
                (value, dtm + 1),
                (value, max(dtm - 1, 0)),
                (Value.DRAW, rng.randrange(1, 40)),
                COLLISION,                   # out of place
                BLOCKED,                     # out of place
            ]
        new_value, new_dtm = rng.choice(choices)
        entries[idx] = new_value | new_dtm << 2
    return Tablebase(table.partition, table.rules_word, entries)


def corrupt_pair(rng, own, own_slots, own_count, twin_slots, twin_count):
    bad = corrupt(rng, own, own_slots, own_count)
    if own.sibling is own:
        bad.sibling = bad
        return bad
    bad_twin = corrupt(rng, own.sibling, twin_slots, twin_count)
    bad.sibling, bad_twin.sibling = bad_twin, bad
    return bad


def assert_same_reports(table, subgames):
    """verify equals the reference at every limit; returns the longest."""
    for limit in LIMITS:
        want = reference_verify(table, subgames, limit=limit)
        assert verify(table, subgames, limit=limit) == want, (table.partition.name, limit)
    return want


@pytest.mark.parametrize("name", ("E_e", "T_l", "R_e", "C_d", "L_r"))
def test_verify_matches_reference_on_corrupted_two_piece_tables(
    two_piece_store, name
):
    rng = random.Random(f"{RNG_SEED}/{name}")
    clean = two_piece_store.tables[name]
    every = list(range(clean.partition.capacity))
    table = corrupt_pair(rng, clean, every, 14, every, 10)
    assert len(assert_same_reports(table, None)) >= 5


def test_verify_matches_reference_on_a_corrupted_three_piece_pair(
    two_piece_store, p_tl_pair
):
    # P_tl has blocked placements and capture-into-subgame successors.  A
    # reference walk of all 117,649 slots takes tens of seconds, so the
    # corruptions sit in the first slots (the lead piece on a1, b1 or c1; the
    # a1 corner boxes the panther in) and more than 50 of them end each walk
    # early.
    rng = random.Random(f"{RNG_SEED}/P_tl")
    own, twin = p_tl_pair
    region = 3 * 49 * 49
    early = list(range(region))
    blocked = [i for i in early if own.entry(i) == BLOCKED]
    collisions = [i for i in early if own.entry(i) == COLLISION]
    assert len(blocked) == 4
    bad = corrupt(rng, own, early, 70)
    bad = corrupt(rng, bad, blocked + rng.sample(collisions, 4), 8)
    # Successors of early placements, in the twin and in the 2-piece
    # tables that captures land in.
    twin_slots, sub_slots = set(), {"L_p": set(), "T_p": set()}
    for idx in rng.sample(early, 60):
        pos = unindex(idx, own.partition)
        if pos is None:
            continue
        for move in legal_moves(pos):
            succ = apply_move(pos, move)
            if terminal_state(succ) is Outcome.ONGOING:
                canon = mirror_position(succ)
                part = Partition.of_position(canon)
                slots = twin_slots if part == twin.partition else sub_slots[part.name]
                slots.add(index(canon, part))
    bad_twin = corrupt(rng, corrupt(rng, twin, early, 70), sorted(twin_slots), 25)
    bad.sibling, bad_twin.sibling = bad_twin, bad
    store = TablebaseStore([
        corrupt(rng, two_piece_store.tables[name], sorted(slots), len(slots) // 3)
        for name, slots in sub_slots.items()
    ])
    # TL_p's early slots also hold moves that box the lone panther in, so
    # the opponent has no move (a capture of it is on offer there too).
    for table in (bad, bad_twin):
        report = assert_same_reports(table, store)
        assert len(report) == 50 and slot_of(report[-1]) < region


def slot_of(line):
    return int(line.split("[", 1)[1].split("]", 1)[0])


def test_verify_without_the_twin_raises_like_the_reference(two_piece_store):
    clean = two_piece_store.tables["T_l"]
    lone = Tablebase(clean.partition, clean.rules_word, clean.entries)
    for subgames in (None, TablebaseStore()):
        with pytest.raises(MissingPartitionError, match="twin partition L_t"):
            verify(lone, subgames)
    with pytest.raises(MissingPartitionError, match="L_t"):
        reference_verify(lone, TablebaseStore())
    assert verify(lone, two_piece_store) == []


def test_best_move_matches_reference(two_piece_store, p_tl_pair):
    rng = random.Random(f"{RNG_SEED}/best_move")
    store = TablebaseStore(list(two_piece_store.tables.values()) + list(p_tl_pair))
    names = sorted(two_piece_store.tables)
    tables = [two_piece_store.tables[rng.choice(names)] for _ in range(150)]
    tables += list(p_tl_pair) * 40
    for table in tables:
        while True:
            idx = rng.randrange(table.partition.capacity)
            if table.entry(idx)[0] is not Value.INVALID:
                break
        pos = unindex(idx, table.partition)
        if rng.random() < 0.5:
            pos = mirror_position(pos)
        got = best_move(table, pos, store)
        assert got == reference_best_move(table, pos, store), (table.partition.name, idx)
        assert store.probe(pos)[2] == got
