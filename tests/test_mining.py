"""Feature extraction, tree induction, and the reference trees."""

import itertools

import pytest

from doushouqi.mining import (
    BLACK_WIN,
    DRAW,
    FEATURE_NAMES,
    FeatureVector,
    LabeledExample,
    Leaf,
    ThresholdSplit,
    ValueSplit,
    WHITE_WIN,
    black_stronger_tree,
    classify,
    equal_material_tree,
    evaluate_tree,
    example_lines,
    extract_features,
    format_tree,
    induce_tree,
    label_for,
    lion_vs_elephant_tree,
    parse_tree,
    partition_draw_census,
    partition_examples,
    tree_depth,
)
from doushouqi.rules import (
    BLACK,
    WHITE,
    PieceKind,
    Position,
    initial_position,
    parse_square,
    piece_code,
    position_from_text,
)
from doushouqi.tablebase import Value


def make_position(white: tuple[str, PieceKind], black: tuple[str, PieceKind],
                  stm: int = WHITE) -> Position:
    board = bytearray(63)
    board[parse_square(white[0])] = piece_code(WHITE, white[1])
    board[parse_square(black[0])] = piece_code(BLACK, black[1])
    return Position(bytes(board), stm)


# --- feature extraction -------------------------------------------------------

def test_feature_names_match_vector_fields():
    assert FeatureVector._fields == FEATURE_NAMES


def test_extraction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        extract_features(initial_position())
    two = make_position(("d3", PieceKind.ELEPHANT), ("d7", PieceKind.ELEPHANT))
    with pytest.raises(ValueError):
        extract_features(Position(two.board, BLACK))
    board = bytearray(63)
    board[parse_square("a1")] = piece_code(WHITE, PieceKind.CAT)
    board[parse_square("a3")] = piece_code(WHITE, PieceKind.DOG)
    with pytest.raises(ValueError):
        extract_features(Position(bytes(board), WHITE))


def test_facing_elephants_features():
    # Both elephants six moves from the opposing den: the tie goes to the
    # mover.  Neither runs unopposed.
    fv = extract_features(
        make_position(("d3", PieceKind.ELEPHANT), ("d7", PieceKind.ELEPHANT))
    )
    assert fv.closest == "white"
    assert fv.distance_p == 4
    assert fv.parity == 0
    assert not fv.unopposed_w
    assert not fv.adjacent
    assert fv.sector_w == "bot"
    assert fv.sector_b == "top"
    assert fv.distance_d == 2


def test_cat_cannot_cross_on_shortest_route():
    # The only shortest cat route runs up the middle corridor, and the dog
    # covers its rank-7 square first.
    fv = extract_features(make_position(("f3", PieceKind.CAT), ("a9", PieceKind.DOG)))
    assert not fv.can_cross


def test_piece_in_top_sector_has_crossed():
    fv = extract_features(make_position(("a8", PieceKind.CAT), ("c7", PieceKind.ELEPHANT)))
    assert fv.can_cross


def test_leaps_shorten_the_race():
    # Manhattan-wise the elephant is nearer (6 < 7), but the lion leaps the
    # river: c3 -> c7 -> c8 -> c9 -> d9 is only 4 moves.
    fv = extract_features(make_position(("c3", PieceKind.LION), ("d7", PieceKind.ELEPHANT)))
    assert fv.closest == "white"


def test_trapped_flag():
    fv = extract_features(make_position(("g9", PieceKind.CAT), ("d2", PieceKind.ELEPHANT)))
    assert fv.trapped
    fv = extract_features(make_position(("g9", PieceKind.CAT), ("d8", PieceKind.ELEPHANT)))
    assert not fv.trapped


def test_runs_through_the_target_den_do_not_count():
    # The black elephant's 3-step Manhattan route to trap e1 passes through
    # the white den, which would end the game; it is not an unopposed run.
    fv = extract_features(make_position(("b1", PieceKind.ELEPHANT), ("c1", PieceKind.ELEPHANT)))
    assert not fv.unopposed_b
    # A genuinely unopposed black run: the defender is nine tempi away.
    fv = extract_features(make_position(("g9", PieceKind.ELEPHANT), ("d3", PieceKind.ELEPHANT)))
    assert fv.unopposed_b


def test_definitional_identities_hold_everywhere(two_piece_store):
    tb = two_piece_store.tables["R_e"]
    for _, pos in tb.positions():
        fv = extract_features(pos)
        assert fv.parity == fv.distance_p % 2
        assert fv.adjacent == (fv.distance_p == 1)
        assert 0 <= fv.distance_d <= 11
        assert 0 <= fv.distance_p <= 14
        assert fv.closest in ("white", "black")
        assert fv.sector_w in ("top", "mid", "bot")
        assert fv.sector_b in ("top", "mid", "bot")


def test_sector_thresholds():
    for rank, want in ((1, "bot"), (3, "bot"), (4, "mid"), (6, "mid"), (7, "top"), (9, "top")):
        sq = f"a{rank}"
        fv = extract_features(make_position((sq, PieceKind.CAT), ("g5", PieceKind.CAT)))
        assert fv.sector_w == want, (sq, fv.sector_w)


def test_labels():
    assert label_for(Value.WIN) == WHITE_WIN
    assert label_for(Value.LOSS) == BLACK_WIN
    assert label_for(Value.DRAW) == DRAW
    with pytest.raises(ValueError):
        label_for(Value.INVALID)


# --- reference trees over solved partitions -----------------------------------

def test_equal_material_tree_is_perfect(two_piece_store):
    tree = equal_material_tree()
    for name in ("E_e", "P_p", "D_d", "W_w", "C_c"):
        assert evaluate_tree(tree, two_piece_store.tables[name]) == 0, name


def test_equal_material_tree_is_wrong_for_leapers(two_piece_store):
    # Leaps reverse parity; the simple equal-material rule misfires often.
    assert evaluate_tree(equal_material_tree(), two_piece_store.tables["T_t"]) > 0


def test_lion_vs_elephant_tree_misses_sixteen(two_piece_store):
    assert evaluate_tree(lion_vs_elephant_tree(), two_piece_store.tables["L_e"]) == 16


def test_black_stronger_tree_is_perfect(two_piece_store):
    tree = black_stronger_tree()
    for name in ("C_d", "C_w", "C_p", "C_e", "W_d", "W_p", "W_e", "D_p", "D_e", "P_e"):
        assert evaluate_tree(tree, two_piece_store.tables[name]) == 0, name


def test_tree_misclassification_example(two_piece_store):
    # White lion g5 against the elephant d7 draws by the tree but is a loss
    # on the board: the top-sector elephant still levers the lion away.
    pos = make_position(("g5", PieceKind.LION), ("d7", PieceKind.ELEPHANT))
    assert classify(lion_vs_elephant_tree(), extract_features(pos)) == DRAW
    value, _ = two_piece_store.tables["L_e"].lookup(pos)
    assert value is Value.LOSS


def test_equal_tree_classifies_facing_elephants():
    fv = extract_features(
        make_position(("d3", PieceKind.ELEPHANT), ("d7", PieceKind.ELEPHANT))
    )
    assert classify(equal_material_tree(), fv) == BLACK_WIN


def test_draw_census(two_piece_store):
    assert partition_draw_census(two_piece_store.tables["E_e"]) == 0
    assert partition_draw_census(two_piece_store.tables["T_t"]) == 0
    total = sum(partition_draw_census(tb) for tb in two_piece_store.all_tables())
    assert total == 12_715


def test_majority_leaf_count_identity(two_piece_store):
    # A single-leaf tree misses exactly the non-majority positions.
    tb = two_piece_store.tables["C_e"]
    examples = partition_examples(tb)
    labels = [ex.label for ex in examples]
    majority = max(set(labels), key=labels.count)
    assert evaluate_tree(Leaf(majority), tb) == len(labels) - labels.count(majority)


# --- induction ------------------------------------------------------------------

def _vector(**overrides) -> FeatureVector:
    base = dict(
        closest="white", unopposed_w=False, unopposed_b=False,
        sector_w="mid", sector_b="mid", distance_d=5, distance_p=4,
        parity=0, adjacent=False, trapped=False, can_cross=False,
    )
    base.update(overrides)
    return FeatureVector(**base)


def test_single_label_collapses_to_leaf():
    examples = [LabeledExample(_vector(parity=p), WHITE_WIN) for p in (0, 1)]
    assert induce_tree(examples) == Leaf(WHITE_WIN)


def test_induction_input_validation():
    with pytest.raises(ValueError):
        induce_tree([])
    ex = [LabeledExample(_vector(), WHITE_WIN)]
    with pytest.raises(ValueError):
        induce_tree(ex, features=())
    with pytest.raises(ValueError):
        induce_tree(ex, features=("bogus",))


def test_xor_needs_two_levels():
    # No single feature separates the labels, but the pair does; the
    # duplicated corner keeps first-split gains nonzero.
    corners = [
        (False, False, WHITE_WIN), (False, False, WHITE_WIN),
        (False, True, BLACK_WIN),
        (True, False, BLACK_WIN),
        (True, True, WHITE_WIN),
    ]
    examples = [
        LabeledExample(_vector(unopposed_w=a, unopposed_b=b), label)
        for a, b, label in corners
    ]
    tree = induce_tree(examples, features=("unopposed_w", "unopposed_b"))
    assert tree_depth(tree) == 2
    assert all(classify(tree, ex.features) == ex.label for ex in examples)


def test_zero_gain_stops_with_majority_leaf():
    # Identical feature vectors with conflicting labels: nothing to split on.
    examples = [
        LabeledExample(_vector(), WHITE_WIN),
        LabeledExample(_vector(), BLACK_WIN),
    ]
    assert induce_tree(examples) == Leaf(WHITE_WIN)
    examples = [
        LabeledExample(_vector(), DRAW),
        LabeledExample(_vector(), BLACK_WIN),
    ]
    assert induce_tree(examples) == Leaf(DRAW)


def test_gain_ties_prefer_earlier_features():
    # unopposed_w and unopposed_b carry identical information; the split
    # must use the earlier-listed one.
    examples = [
        LabeledExample(_vector(unopposed_w=v, unopposed_b=v), WHITE_WIN if v else BLACK_WIN)
        for v in (False, True, False, True)
    ]
    tree = induce_tree(examples)
    assert isinstance(tree, ValueSplit)
    assert tree.feature == "unopposed_w"


def test_numeric_split_uses_thresholds():
    examples = [
        LabeledExample(_vector(distance_p=d), WHITE_WIN if d <= 6 else BLACK_WIN)
        for d in (2, 4, 6, 8, 10, 12)
    ]
    tree = induce_tree(examples, features=("distance_p",))
    assert tree == ThresholdSplit("distance_p", 6, Leaf(WHITE_WIN), Leaf(BLACK_WIN))


def test_unseen_branch_values_inherit_majority():
    # No "bot" sector in the data: that branch falls back to the majority.
    examples = [
        LabeledExample(_vector(sector_w="top"), WHITE_WIN),
        LabeledExample(_vector(sector_w="mid"), BLACK_WIN),
        LabeledExample(_vector(sector_w="mid"), BLACK_WIN),
    ]
    tree = induce_tree(examples, features=("sector_w",))
    assert classify(tree, _vector(sector_w="bot")) == BLACK_WIN


def test_induced_equal_partition_tree_is_perfect(two_piece_store):
    tb = two_piece_store.tables["E_e"]
    examples = partition_examples(tb)
    tree = induce_tree(
        examples, features=("closest", "unopposed_w", "unopposed_b", "parity")
    )
    assert evaluate_tree(tree, tb) == 0
    assert tree_depth(tree) <= 4


def test_induction_reaches_zero_when_features_determine_labels(two_piece_store):
    tb = two_piece_store.tables["C_e"]
    examples = partition_examples(tb)
    tree = induce_tree(examples)
    training_errors = sum(
        1 for ex in examples if classify(tree, ex.features) != ex.label
    )
    assert training_errors == evaluate_tree(tree, tb)


def test_classify_raises_off_known_branches():
    tree = ValueSplit("closest", (("white", Leaf(WHITE_WIN)),))
    with pytest.raises(LookupError):
        classify(tree, _vector(closest="black"))


# --- text forms -----------------------------------------------------------------

def test_tree_text_round_trips():
    for tree in (equal_material_tree(), black_stronger_tree(), lion_vs_elephant_tree()):
        assert parse_tree(format_tree(tree)) == tree


def test_induced_tree_round_trips(two_piece_store):
    tb = two_piece_store.tables["W_e"]
    tree = induce_tree(partition_examples(tb))
    assert parse_tree(format_tree(tree)) == tree


def test_tree_text_shape():
    text = format_tree(black_stronger_tree())
    lines = text.splitlines()
    assert lines[0] == "? closest"
    assert "  = white :" in lines
    assert any(line.lstrip() == "<= 10 :" for line in lines)
    assert any(line.lstrip() == "> 3 :" for line in lines)
    assert text.endswith("-> WhiteWin\n")


@pytest.mark.parametrize(
    "text",
    [
        "-> NobodyWins\n",
        "? bogus\n  = true :\n    -> Draw\n",
        "? parity\n   = 0 :\n    -> Draw\n",  # odd indent
        "? parity\n  = 2 :\n    -> Draw\n",  # not a parity value
        "? distance_p\n  <= 4 :\n    -> Draw\n",  # missing > branch
        "? distance_p\n  <= 4 :\n    -> Draw\n  > 5 :\n    -> Draw\n",
        "? parity\n  = 0 :\n    -> Draw\n-> Draw\n",  # trailing content
        "? adjacent\n  <= 1 :\n    -> Draw\n  > 1 :\n    -> Draw\n",
        "? parity\n",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_tree(text)


def test_example_lines_format(two_piece_store):
    tb = two_piece_store.tables["C_e"]
    lines = list(example_lines(tb))
    assert len(lines) == 2352
    for line in itertools.islice(lines, 5):
        text, values, label = line.split("\t")
        pos = position_from_text(text)
        assert pos.piece_count() == 2
        tokens = values.split(" ")
        assert len(tokens) == len(FEATURE_NAMES)
        assert label in (WHITE_WIN, BLACK_WIN, DRAW)
    # The feature columns agree with direct extraction.
    first_pos = position_from_text(lines[0].split("\t")[0])
    fv = extract_features(first_pos)
    assert lines[0].split("\t")[1].split(" ")[0] == fv.closest
