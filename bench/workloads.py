"""The benchmark's three workloads: inputs, operations and oracles.

Each workload has a ``setup(seed, directory, quick)`` function, which runs in
its own process and writes everything the timed process needs into
``directory``, and a class built from that directory in the timed process.
The class's ``batches`` are fixed lists of operations; pass ``k`` runs
batch ``k mod len(batches)``, and a run ends on a whole cycle of batches.
Distinct batches let one run measure more distinct inputs than one pass
holds, which keeps seed-to-seed spread down.
Each operation carries the oracle that judges its result once its pass has
ended, outside the pass time.

Every call into the engine goes through ``tr.call(name, fn, *args)`` so that
a traced run can put a span around it, and ``tr.count`` records the counters
the engine already returns.  Untraced runs pass a tracer whose methods only
call through.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import shutil
from contextlib import redirect_stdout
from typing import Any, Callable, NamedTuple

from doushouqi import cli
from doushouqi.mining import (
    black_stronger_tree,
    equal_material_tree,
    evaluate_tree,
    format_tree,
    induce_tree,
    lion_vs_elephant_tree,
    partition_examples,
)
from doushouqi.rules import (
    WHITE,
    Outcome,
    apply_move,
    initial_position,
    legal_moves,
    mirror_position,
    parse_move,
    perft,
    position_from_text,
    position_to_text,
    terminal_state,
)
from doushouqi.search import (
    MATE_BOUND,
    WIN_SCORE,
    TranspositionTable,
    alphabeta,
    minimax,
    probe_aware_search,
)
from doushouqi.tablebase import (
    Partition,
    TablebaseStore,
    Value,
    aggregate_stats,
    all_partitions,
    read_tablebase,
    solve_pair,
    unindex,
    verify,
    write_tablebase,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
INPUTS = "inputs.json"

# Results the engine must reproduce, as pinned by tests/test_acceptance.py.
PERFT_COUNTS = {3: 12_240, 5: 5_098_477}
TWO_PIECE_TOTALS = (160_068, 82_852, 64_501, 12_715, 34)
THREE_PIECE_PAIRS = ("RC_r", "TL_e")

# ROADMAP item 1: alpha-beta with a table disagrees with minimax on these.
ITEM_1_POSITIONS = (
    ("7/1w5/7/7/7/7/3W3/7/7 b", 8),
    ("7/7/7/7/7/7/6d/7/4P1c b", 7),
    ("7/4w2/7/3E3/7/7/7/7/7 b", 7),
    ("7/7/7/7/7/7/2L4/t6/7 b", 7),
)
# Criterion-4 reference diagrams and their solved values: the deepest
# searches of endgame-query, the same on every seed.
REFERENCE_DIAGRAMS = (
    ("t6/7/T6/7/7/7/7/7/7 w", Value.WIN, 19),
    ("7/7/3e3/7/7/7/3E3/7/7 w", Value.LOSS, 12),
)
REFERENCE_TREES = {   # name -> (tree factory, partitions, errors on each)
    "equal": (equal_material_tree, ("E_e", "P_p", "D_d", "W_w", "C_c"), 0),
    "black-stronger": (black_stronger_tree, (
        "C_d", "C_w", "C_p", "C_e", "W_d", "W_p", "W_e", "D_p", "D_e", "P_e",
    ), 0),
    "lion": (lion_vs_elephant_tree, ("L_e",), 16),
}
INDUCE_PARTITIONS = ("E_e", "L_e", "T_l", "R_e", "C_d", "W_p")


class Op(NamedTuple):
    kind: str
    fn: Callable[[Any], Any]         # tracer -> result
    check: Callable[[Any, Any], bool]  # (result, tracer) -> oracle agrees


def _size(count: int, quick: bool) -> int:
    return max(2, count // 25) if quick else count


def _write_inputs(directory: str, inputs: dict) -> None:
    with open(os.path.join(directory, INPUTS), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)


def _read_inputs(directory: str) -> dict:
    with open(os.path.join(directory, INPUTS), encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> dict:
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _white_score(value: Value, dtm: int, stm: int) -> int:
    """The score a search reports, from White's side, for a solved value."""
    if value is Value.DRAW:
        return 0
    mover = WIN_SCORE - dtm if value is Value.WIN else dtm - WIN_SCORE
    return mover if stm == WHITE else -mover


def _search(tr, name: str, fn, position, depth: int, *store, size: int = 16):
    def run():
        table = TranspositionTable(size)
        return fn(position, depth, *store, table), table
    result, table = tr.call(name, run)
    tr.count(name + ".calls")
    tr.count(name + ".nodes", result.nodes)
    tr.count(name + ".leaves", result.leaves)
    tr.count("search.tt.probes", table.probes)
    tr.count("search.tt.hits", table.hits)
    tr.count("search.tt.stores", table.stores)
    return result.score


def _perft(tr, position, depth: int) -> int:
    leaves = tr.call("rules.perft", perft, position, depth)
    tr.count("rules.perft.calls")
    tr.count("rules.perft.leaves", leaves)
    return leaves


def _search_agrees(tr, ok: bool) -> bool:
    if not ok:
        tr.count("search.oracle_mismatches")
    return ok


def _no_oracle(got, tr) -> bool:
    return True


def _cached_oracle(want: Callable[[], Any], search: bool = True):
    """Oracle computed once, on the first pass it judges."""
    memo = []

    def check(got, tr) -> bool:
        if not memo:
            memo.append(want())
        ok = got == memo[0]
        return _search_agrees(tr, ok) if search else ok
    return check


class Workload:
    batches: list[list[Op]]

    def begin_pass(self, tr) -> None:
        """Per-pass preparation, inside the pass time but in no operation."""

    def end_pass(self, results: list, verdicts: list) -> None:
        """Oracles that judge a whole pass (they may clear ``verdicts``) and
        clean-up, after the per-operation checks."""


# --- opening ----------------------------------------------------------------

def _playout(rng: random.Random):
    # Drawn as criterion 8 draws its dense positions.
    while True:
        position = initial_position()
        for _ in range(rng.randint(4, 40)):
            moves = legal_moves(position)
            if not moves or terminal_state(position) is not Outcome.ONGOING:
                break
            position = apply_move(position, rng.choice(moves))
        if terminal_state(position) is Outcome.ONGOING:
            return position


def setup_opening(seed: int, directory: str, quick: bool) -> None:
    rng = random.Random(f"opening/{seed}")
    batches = []
    for _ in range(2 if quick else 18):
        count = _size(100, quick)
        checked = rng.sample(range(count), max(2, count // 4))
        batches.append({
            "positions": [position_to_text(_playout(rng)) for _ in range(count)],
            "minimax": checked[0],
            "alphabeta": checked[1:],
        })
    _write_inputs(directory, {
        "perft_depth": 3 if quick else 5,
        "search_depth": 2 if quick else 4,
        "batches": batches,
    })


class Opening(Workload):
    """perft from the initial position, then alpha-beta on dense boards."""

    def __init__(self, directory: str) -> None:
        inputs = _read_inputs(directory)
        depth = inputs["search_depth"]
        perft_depth = inputs["perft_depth"]
        root = initial_position()
        self.batches = []
        for batch in inputs["batches"]:
            ops = [Op("perft", lambda tr: _perft(tr, root, perft_depth),
                      lambda got, tr: got == PERFT_COUNTS[perft_depth])]
            # A seeded quarter of each batch is checked: one position against
            # minimax, the rest against alpha-beta without a table, which has
            # never disagreed with minimax (ROADMAP item 1).  Checking all
            # would take longer than the timed passes.
            oracles = {i: alphabeta for i in batch["alphabeta"]}
            oracles[batch["minimax"]] = minimax
            for i, text in enumerate(batch["positions"]):
                position = position_from_text(text)
                oracle = oracles.get(i)
                ops.append(Op(
                    "alphabeta",
                    lambda tr, p=position: _search(tr, "search.alphabeta",
                                                   alphabeta, p, depth),
                    _cached_oracle(lambda p=position, o=oracle:
                                   o(p, depth).score) if oracle else _no_oracle,
                ))
            self.batches.append(ops)


# --- endgame-query ----------------------------------------------------------

def _draw(tables, rng: random.Random, count: int):
    """``count`` seeded (position, value, dtm) from valid table entries."""
    out = []
    while len(out) < count:
        table = rng.choice(tables)
        idx = rng.randrange(len(table.entries))
        value, dtm = table.entry(idx)
        if value is not Value.INVALID:
            out.append((unindex(idx, table.partition), value, dtm))
    return out


def setup_endgame(seed: int, directory: str, quick: bool) -> None:
    store = TablebaseStore.build_two_piece()
    for name in THREE_PIECE_PAIRS[1:] if quick else THREE_PIECE_PAIRS:
        own, twin = solve_pair(Partition.from_name(name), store)
        store.add(own)
        store.add(twin)
    store.save_directory(os.path.join(directory, "tables"))

    rng = random.Random(f"endgame-query/{seed}")
    two = [tb for tb in store.all_tables() if tb.partition.piece_count == 2]
    three = [tb for tb in store.all_tables() if tb.partition.piece_count == 3]
    strata = _distance_strata(two, rng)
    batches = [_endgame_batch(two, three, strata, rng, quick)
               for _ in range(2 if quick else 15)]
    _write_inputs(directory, {"tables": len(store.tables), "batches": batches})


def _distance_strata(tables, rng: random.Random) -> dict:
    """Per distance (0 for draws), an endless seeded round of the partitions
    that hold such positions, each with its entry indices.  Going round the
    partitions keeps the partition mix, and with it the search cost, the
    same on every seed."""
    found: dict = {}
    for table in tables:
        for idx, packed in enumerate(table.entries):
            value, dtm = Value(packed & 3), packed >> 2
            if value is not Value.INVALID:
                key = 0 if value is Value.DRAW else dtm
                found.setdefault(key, {}).setdefault(table.partition.name,
                                                     (table, []))[1].append(idx)
    strata = {}
    for key, by_name in found.items():
        members = [by_name[name] for name in sorted(by_name)]
        rng.shuffle(members)
        strata[key] = itertools.cycle(members)
    return strata


def _endgame_batch(two, three, strata, rng: random.Random, quick: bool) -> dict:
    drawn = []    # (kind, depth, draws)
    drawn.append(("probe", 0, _draw(two, rng, _size(100, quick))))
    drawn.append(("probe", 0, _draw(three, rng, _size(100, quick))))
    drawn.append(("probe_aware_search", 3, _draw(three, rng, _size(100, quick))))
    drawn.append(("perft", 6, _draw(two + three, rng, _size(25, quick))))
    drawn.append(("cli.probe", 0, _draw(two + three, rng, _size(30, quick))))
    drawn.append(("cli.search", 4, _draw(two, rng, _size(30, quick))))
    # Criterion-7 searches to depth dtm+1 (6 for draws), stratified so every
    # seed asks the same number at each distance, from the same partitions.
    # Past dtm 15 one search takes 0.1-8 s, and a few of them would set the
    # pass time on their own.
    for dtm in range(7 if quick else 16):
        draws = []
        for _ in range(1 if quick else 16):
            table, indices = next(strata[dtm])
            idx = rng.choice(indices)
            value, d = table.entry(idx)
            draws.append((unindex(idx, table.partition), value, d))
        drawn.append(("alphabeta", dtm + 1 if dtm else 6, draws))

    queries = []
    for kind, depth, draws in drawn:
        for position, value, dtm in draws:
            # Half are the colour-mirrored, Black-to-move twin.
            if rng.random() < 0.5:
                position = mirror_position(position)
            queries.append(dict(kind=kind, depth=depth, value=value.name,
                                dtm=dtm, pos=position_to_text(position)))
    for text, depth in ITEM_1_POSITIONS:
        queries.append(dict(kind="item-1", depth=depth, pos=text))
    for text, value, dtm in REFERENCE_DIAGRAMS:
        queries.append(dict(kind="alphabeta", depth=dtm + 1, value=value.name,
                            dtm=dtm, pos=text))
    rng.shuffle(queries)
    shallow = [i for i, q in enumerate(queries)
               if q["kind"] == "alphabeta" and q["depth"] <= 8]
    return {"queries": queries,
            "minimax": sorted(rng.sample(shallow, 2 if quick else 4))}


def _cli(tr, name: str, argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = tr.call(name, cli.main, argv)
    tr.count("cli.main.calls")
    return code, out.getvalue().splitlines()[-1].split("\t")


class EndgameQuery(Workload):
    """Load the tables, then a seeded mix of probes and sparse searches."""

    def __init__(self, directory: str) -> None:
        inputs = _read_inputs(directory)
        self.table_dir = os.path.join(directory, "tables")
        self.store = None
        self.known_defects: dict = {}
        tables = inputs["tables"]
        self.batches = []
        for batch in inputs["batches"]:
            ops = [Op("load_directory", self._load,
                      lambda got, tr: got == tables)]
            subset = set(batch["minimax"])
            for i, query in enumerate(batch["queries"]):
                ops.append(self._op(query, i in subset))
            self.batches.append(ops)

    def _known_defect(self, text: str, position, depth: int):
        """Oracle of an item-1 position, where alpha-beta with a table is
        known to disagree with minimax (ROADMAP item 1).

        The search is run and timed like every other.  A score that differs
        from minimax is tallied in ``search.item1_mismatches`` and in
        ``known_defects`` (the run record), not failed, so that the defect
        shows in every run without making every run read as broken.  A
        search that raises or returns no score still fails.
        """
        entry = self.known_defects.setdefault(text, {
            "depth": depth, "minimax": None, "alphabeta": None,
            "judged": 0, "mismatched": 0,
        })

        def check(got, tr) -> bool:
            if entry["minimax"] is None:
                entry["minimax"] = minimax(position, depth).score
            entry["alphabeta"] = got
            entry["judged"] += 1
            if got != entry["minimax"]:
                entry["mismatched"] += 1
                tr.count("search.item1_mismatches")
            return isinstance(got, int)
        return check

    def _load(self, tr) -> int:
        self.store = None            # drop the last pass's tables first
        self.store = tr.call("tablebase.load_directory",
                             TablebaseStore.load_directory, self.table_dir)
        tr.count("tablebase.load_directory.tables", len(self.store.tables))
        return len(self.store.tables)

    def _probe(self, tr, position):
        value, dtm, move = tr.call("tablebase.probe", self.store.probe, position)
        tr.count("tablebase.probe.calls")
        return value.name, dtm, move

    def _move_agrees(self, position, value: str, dtm: int, move) -> bool:
        """The reported best move realises the stored value and distance."""
        if move not in legal_moves(position):
            return False
        succ = apply_move(position, move)
        if terminal_state(succ) is not Outcome.ONGOING:
            return (value, dtm) == ("WIN", 1)
        succ_value, succ_dtm = self.store.probe_value(succ)
        want = {"WIN": Value.LOSS, "LOSS": Value.WIN, "DRAW": Value.DRAW}[value]
        return succ_value == want and (value == "DRAW" or succ_dtm == dtm - 1)

    def _op(self, query: dict, in_subset: bool) -> Op:
        kind, depth, text = query["kind"], query["depth"], query["pos"]
        position = position_from_text(text)
        config = f"tablebase_dir={self.table_dir}"
        if kind == "item-1":
            return Op(kind, lambda tr: _search(tr, "search.alphabeta", alphabeta,
                                               position, depth),
                      self._known_defect(text, position, depth))
        value, dtm = Value[query["value"]], query["dtm"]
        if kind == "probe":
            return Op(kind, lambda tr: self._probe(tr, position),
                      lambda got, tr: got[:2] == (value.name, dtm)
                      and self._move_agrees(position, value.name, dtm, got[2]))
        if kind == "cli.probe":
            return Op(kind, lambda tr: _cli(tr, kind, ["--set", config,
                                                       "probe", text]),
                      lambda got, tr: got[0] == 0
                      and got[1][:2] == [value.name, str(dtm)]
                      and self._move_agrees(position, value.name, dtm,
                                            parse_move(position, got[1][2])))
        if kind == "cli.search":
            want = _cached_oracle(lambda: minimax(position, depth).score)
            return Op(kind, lambda tr: _cli(tr, kind, ["--set", config, "search",
                                                       text, str(depth)]),
                      lambda got, tr: got[0] == 0 and want(int(got[1][0]), tr))
        if kind == "perft":
            want = _cached_oracle(lambda: minimax(position, depth).leaves,
                                  search=False)
            return Op(kind, lambda tr: _perft(tr, position, depth), want)
        if kind == "probe_aware_search":
            score = _white_score(value, dtm, position.stm)
            return Op(kind, lambda tr: _search(
                tr, "search.probe_aware_search", probe_aware_search, position,
                depth, self.store, size=14),
                lambda got, tr: _search_agrees(tr, got == score))
        run = lambda tr: _search(tr, "search.alphabeta", alphabeta, position,
                                 depth)
        if in_subset:
            return Op(kind, run, _cached_oracle(
                lambda: minimax(position, depth).score))
        if value is Value.DRAW:     # no mate at any depth, so none at 6
            return Op(kind, run,
                      lambda got, tr: _search_agrees(tr, abs(got) < MATE_BOUND))
        score = _white_score(value, dtm, position.stm)
        return Op(kind, run, lambda got, tr: _search_agrees(tr, got == score))


# --- table-build ------------------------------------------------------------

def setup_table_build(seed: int, directory: str, quick: bool) -> None:
    # Every seed builds the whole 2-piece universe; the seed fixes only the
    # order in which pairs are solved and tables verified.
    rng = random.Random(f"table-build/{seed}")
    pairs, names = [], set()
    for partition in all_partitions(2):
        if partition.name not in names:
            pairs.append(partition.name)
            names.update((partition.name, partition.swapped.name))
    names = sorted(names)
    rng.shuffle(pairs)
    rng.shuffle(names)
    _write_inputs(directory, {
        "pairs": pairs,
        "three": list(THREE_PIECE_PAIRS[1:] if quick else THREE_PIECE_PAIRS),
        "verify": names[:4] if quick else names,
        "trees": ["lion"] if quick else list(REFERENCE_TREES),
        "induce": list(INDUCE_PARTITIONS[:1] if quick else INDUCE_PARTITIONS),
    })


class TableBuild(Workload):
    """Solve, write and read back every 2-piece pair and two 3-piece pairs,
    then verify every 2-piece table, evaluate the reference trees and
    induce trees."""

    def __init__(self, directory: str) -> None:
        inputs = _read_inputs(directory)
        self.directory = directory
        self.digests = load_digests()
        self.passes = 0
        self.out_dir = None
        self.store = None
        self.ops = []
        self.batches = [self.ops]
        for name in inputs["pairs"] + inputs["three"]:
            self.ops.append(Op("solve_pair",
                               lambda tr, n=name: self._solve(tr, n),
                               self._check_solve))
        for name in inputs["verify"]:
            self.ops.append(Op("verify", lambda tr, n=name: self._verify(tr, n),
                               lambda got, tr: got == 0))
        for tree in inputs["trees"]:
            _, partitions, wrong = REFERENCE_TREES[tree]
            for name in partitions:
                self.ops.append(Op(
                    "evaluate_tree",
                    lambda tr, t=tree, n=name: self._evaluate(tr, t, n),
                    lambda got, tr, w=wrong: got == w))
        for name in inputs["induce"]:
            want = self.digests["trees"][name]
            self.ops.append(Op("induce_tree",
                               lambda tr, n=name: self._induce(tr, n),
                               lambda got, tr, w=want: got == w))

    def begin_pass(self, tr) -> None:
        self.out_dir = os.path.join(self.directory, f"pass-{self.passes}")
        self.passes += 1
        os.makedirs(self.out_dir)
        self.store = TablebaseStore()

    def _solve(self, tr, name: str):
        partition = Partition.from_name(name)
        subgames = self.store if partition.piece_count == 3 else None
        own, twin = tr.call("tablebase.solve_pair", solve_pair, partition,
                            subgames)
        tr.count("tablebase.solve_pair.calls")
        tr.count("tablebase.solve_pair.states", 2 * partition.capacity)
        written = []
        for tb in (own,) if twin is own else (own, twin):
            path = tr.call("tablebase.write_tablebase", write_tablebase, tb,
                           self.out_dir)
            back = tr.call("tablebase.read_tablebase", read_tablebase, path)
            size = os.path.getsize(path)
            tr.count("tablebase.write_tablebase.bytes", size)
            tr.count("tablebase.read_tablebase.bytes", size)
            self.store.add(back)
            written.append((tb.partition.name, path, back.entries == tb.entries))
        return written

    def _check_solve(self, written, tr) -> bool:
        ok = True
        for name, path, round_trip in written:
            if sha256_file(path) != self.digests["tables"].get(name):
                tr.count("tablebase.digest_mismatches")
                ok = False
            ok = ok and round_trip
        return ok

    def _verify(self, tr, name: str) -> int:
        table = self.store.tables[name]
        problems = tr.call("tablebase.verify", verify, table, self.store)
        tr.count("tablebase.verify.entries", table.partition.capacity)
        tr.count("tablebase.verify.violations", len(problems))
        return len(problems)

    def _evaluate(self, tr, tree: str, name: str) -> int:
        wrong = tr.call("mining.evaluate_tree", evaluate_tree,
                        REFERENCE_TREES[tree][0](), self.store.tables[name])
        tr.count("mining.evaluate_tree.misclassified", wrong)
        return wrong

    def _induce(self, tr, name: str) -> str:
        examples = tr.call("mining.partition_examples", partition_examples,
                           self.store.tables[name])
        tree = tr.call("mining.induce_tree", induce_tree, examples)
        return hashlib.sha256(format_tree(tree).encode()).hexdigest()

    def end_pass(self, results: list, verdicts: list) -> None:
        """The pinned 2-piece totals judge every 2-piece solve of a pass;
        then the pass's files go."""
        solves = [
            i for i, op in enumerate(self.ops)
            if op.kind == "solve_pair" and isinstance(results[i], list)
            and Partition.from_name(results[i][0][0]).piece_count == 2
        ]
        total = aggregate_stats([read_tablebase(path) for i in solves
                                 for _, path, _ in results[i]])
        got = (total.positions, total.wins, total.losses, total.draws,
               total.longest_plies)
        if got != TWO_PIECE_TOTALS:
            for i in solves:
                verdicts[i] = False
        shutil.rmtree(self.out_dir)


WORKLOADS = {
    "opening": (setup_opening, Opening),
    "endgame-query": (setup_endgame, EndgameQuery),
    "table-build": (setup_table_build, TableBuild),
}
