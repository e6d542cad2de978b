"""Command-line driver: flat key=value config plus operational subcommands.

Every subcommand prints stable tab-separated result rows to stdout; lines
starting with "# " are human annotations that machine consumers can skip.
Timing columns, when present, are last on their row.  Exit codes: 0 success,
2 usage or configuration error, 3 input parse error, 4 missing tablebase
dependency (including a rule-variant mismatch), 5 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from .mining import (
    FEATURE_NAMES,
    black_stronger_tree,
    classify,
    equal_material_tree,
    evaluate_tree,
    example_lines,
    extract_features,
    format_tree,
    induce_tree,
    lion_vs_elephant_tree,
    parse_tree,
    partition_examples,
)
from .rules import (
    MAX_PERFT_DEPTH,
    WHITE,
    InvalidPositionError,
    Outcome,
    Ruleset,
    initial_position,
    move_text,
    perft,
    position_from_text,
    terminal_state,
)
from .search import (
    DEFAULT_ZOBRIST_SEED,
    MAX_PLY,
    TranspositionTable,
    Zobrist,
    alphabeta,
    get_evaluator,
    minimax,
    probe_aware_search,
)
from .tablebase import (
    MissingPartitionError,
    Partition,
    TablebaseStore,
    Value,
    aggregate_stats,
    all_partitions,
    read_tablebase,
    solve_pair,
    stats,
    verify,
    write_tablebase,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_MISSING = 4
EXIT_VERIFY = 5


class CommandError(Exception):
    """Failure with a chosen exit code; the message goes to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- configuration ----------------------------------------------------------

class ConfigError(ValueError):
    """Bad config file contents or --set override."""


@dataclass(frozen=True)
class Config:
    """Run-wide settings; file and --set keys match the field names.

    The three rat flags select the rule variant; its flag word is stamped
    into every tablebase file and must equal the active one before any
    probe.  ``threads`` is validated but the driver stays single-threaded,
    which keeps every output deterministic for a given config.
    """

    rat_capture_into_water: bool = True
    rat_capture_from_water_to_land: bool = True
    rat_from_water_captures_elephant: bool = False
    zobrist_seed: int = DEFAULT_ZOBRIST_SEED
    tt_size_log2: int = 20
    threads: int = 1
    tablebase_dir: str = "tables"

    def ruleset(self) -> Ruleset:
        return Ruleset(
            self.rat_capture_into_water,
            self.rat_capture_from_water_to_land,
            self.rat_from_water_captures_elephant,
        )

    def zobrist(self) -> Zobrist:
        return Zobrist(self.zobrist_seed)

    def new_table(self) -> TranspositionTable:
        return TranspositionTable(self.tt_size_log2)


_CONFIG_TYPES = {
    "rat_capture_into_water": bool,
    "rat_capture_from_water_to_land": bool,
    "rat_from_water_captures_elephant": bool,
    "zobrist_seed": int,
    "tt_size_log2": int,
    "threads": int,
    "tablebase_dir": str,
}

_BOOL_TEXT = {"true": True, "1": True, "false": False, "0": False}


def _parse_setting(key: str, text: str) -> object:
    kind = _CONFIG_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    if kind is bool:
        try:
            return _BOOL_TEXT[text.lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected true or false, got {text!r}") from None
    if kind is int:
        try:
            return int(text, 0)                   # accepts 0x... for the seed
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    if not text:
        raise ConfigError(f"{key}: empty value")
    return text


def parse_config_text(text: str, source: str = "config") -> dict:
    """Flat key=value lines; '#' comments and blank lines are skipped."""
    settings: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in settings:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        settings[key] = _parse_setting(key, value.strip())
    return settings


def load_config(path: str | None, overrides: list[str]) -> Config:
    """Defaults, then the config file, then --set overrides, in that order."""
    settings: dict = {}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file {path!r} not found")
        with open(path, encoding="utf-8") as fh:
            settings.update(parse_config_text(fh.read(), source=path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        settings[key.strip()] = _parse_setting(key.strip(), value.strip())
    config = Config(**settings)
    low, high = TranspositionTable.MIN_SIZE_LOG2, TranspositionTable.MAX_SIZE_LOG2
    if not low <= config.tt_size_log2 <= high:
        raise ConfigError(f"tt_size_log2 must be between {low} and {high}")
    if config.threads < 1:
        raise ConfigError("threads must be >= 1")
    if config.zobrist_seed < 0:
        raise ConfigError("zobrist_seed must be >= 0")
    if not config.tablebase_dir:
        raise ConfigError("tablebase_dir must not be empty")
    return config


# --- shared helpers ---------------------------------------------------------

def _emit(*cells) -> None:
    print("\t".join(str(c) for c in cells))


def _position_arg(text: str):
    if text == "initial":
        return initial_position()
    return position_from_text(text)


def _check_variant(store: TablebaseStore, config: Config) -> None:
    word = config.ruleset().flag_word
    for tb in store.all_tables():
        if tb.rules_word != word:
            raise CommandError(
                EXIT_MISSING,
                f"{tb.partition.name}: file built under rule-variant flag word "
                f"{tb.rules_word}, active config is {word}",
            )


def _load_store(config: Config) -> TablebaseStore:
    directory = config.tablebase_dir
    if not os.path.isdir(directory):
        raise CommandError(
            EXIT_MISSING,
            f"tablebase directory {directory!r} not found; run: doushouqi solve 2",
        )
    store = TablebaseStore.load_directory(directory)
    if not store.tables:
        raise CommandError(EXIT_MISSING, f"no .dsqt files under {directory!r}")
    _check_variant(store, config)
    return store


def _stats_row(name: str, s) -> None:
    _emit(name, s.positions, s.wins, s.losses, s.draws,
          s.longest_plies, s.longest_winner_moves)


def _select_tables(store: TablebaseStore, pieces: str | None) -> list:
    tables = store.all_tables()
    if pieces in (None, "all"):
        return tables
    if pieces in ("2", "3"):
        want = int(pieces)
        picked = [tb for tb in tables if tb.partition.piece_count == want]
        if not picked:
            raise CommandError(EXIT_MISSING, f"no {want}-piece tables are built")
        return picked
    try:
        partition = Partition.from_name(pieces)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, f"bad pieces argument {pieces!r}: {exc}")
    tb = store.tables.get(partition.name)
    if tb is None:
        raise CommandError(EXIT_MISSING, f"partition {partition.name} is not built")
    return [tb]


# --- subcommands ------------------------------------------------------------

def cmd_perft(args, config: Config) -> int:
    if not 0 <= args.depth <= MAX_PERFT_DEPTH:
        raise CommandError(
            EXIT_USAGE, f"depth {args.depth} is outside 0..{MAX_PERFT_DEPTH}"
        )
    position = _position_arg(args.position)
    rules = config.ruleset()
    depths = [0] if args.depth == 0 else range(1, args.depth + 1)
    for depth in depths:
        started = time.perf_counter()
        count = perft(position, depth, rules)
        _emit(depth, count, f"{time.perf_counter() - started:.3f}")
    return EXIT_OK


def cmd_search(args, config: Config) -> int:
    if not 0 <= args.depth <= MAX_PLY:
        raise CommandError(EXIT_USAGE, f"depth {args.depth} is outside 0..{MAX_PLY}")
    try:
        get_evaluator(args.evaluator)
    except KeyError as exc:
        raise CommandError(EXIT_USAGE, exc.args[0])
    position = _position_arg(args.position)
    rules = config.ruleset()
    started = time.perf_counter()
    if args.algorithm == "minimax":
        result = minimax(position, args.depth, rules, args.evaluator)
    else:
        table = None if args.no_table else config.new_table()
        if args.probe:
            store = _load_store(config)
            result = probe_aware_search(
                position, args.depth, store, table, rules,
                args.evaluator, config.zobrist(),
            )
        else:
            result = alphabeta(
                position, args.depth, table, rules,
                args.evaluator, config.zobrist(),
            )
    elapsed = time.perf_counter() - started
    move = move_text(position, result.best_move) if result.best_move else "-"
    _emit(result.score, move, result.nodes, result.leaves, f"{elapsed:.3f}")
    return EXIT_OK


def _write_all(tables, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for tb in tables:
        write_tablebase(tb, directory)


def _ensure_two_piece(config: Config, rules: Ruleset) -> TablebaseStore:
    directory = config.tablebase_dir
    if os.path.isdir(directory):
        store = TablebaseStore.load_directory(directory)
        _check_variant(store, config)
    else:
        store = TablebaseStore()
    fresh = []
    for partition in all_partitions(2):
        if partition.name in store.tables:
            continue
        own, twin = solve_pair(partition, None, rules)
        store.add(own)
        fresh.append(own)
        if twin is not own:
            store.add(twin)
            fresh.append(twin)
    if fresh:
        _write_all(fresh, directory)
    return store


def _solve_three_piece(config: Config, rules: Ruleset,
                       store: TablebaseStore) -> list:
    # Resumable: partitions already on disk are kept, the rest are built.
    directory = config.tablebase_dir
    built: dict = {}
    for partition in all_partitions(3):
        if partition.name in built:
            continue
        tb = store.tables.get(partition.name)
        if tb is None:
            own, twin = solve_pair(partition, store, rules)
            store.add(own)
            built[own.partition.name] = own
            pair = [own]
            if twin is not own:
                store.add(twin)
                built[twin.partition.name] = twin
                pair.append(twin)
            _write_all(pair, directory)
        else:
            built[partition.name] = tb
    return [built[name] for name in sorted(built)]


def _required_subgames(partition: Partition) -> list[str]:
    if len(partition.white) == 2:
        pair, lone = partition.white, partition.black[0]
    else:
        pair, lone = partition.black, partition.white[0]
    return sorted({Partition.of_kinds([k], [lone]).name for k in pair})


def _solve_named(pieces: str, config: Config, rules: Ruleset) -> list:
    try:
        partition = Partition.from_name(pieces)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, f"bad pieces argument {pieces!r}: {exc}")
    if partition.piece_count == 2:
        own, twin = solve_pair(partition, None, rules)
    elif partition.piece_count == 3:
        directory = config.tablebase_dir
        if os.path.isdir(directory):
            store = TablebaseStore.load_directory(directory)
            _check_variant(store, config)
        else:
            store = TablebaseStore()
        missing = [
            name for name in _required_subgames(partition)
            if name not in store.tables
        ]
        if missing:
            raise CommandError(
                EXIT_MISSING,
                f"missing subgame tables: {', '.join(missing)}; "
                "run: doushouqi solve 2",
            )
        own, twin = solve_pair(partition, store, rules)
    else:
        raise CommandError(EXIT_USAGE, "solve supports 2- and 3-piece partitions")
    tables = [own] if twin is own else sorted(
        (own, twin), key=lambda tb: tb.partition.name
    )
    _write_all(tables, config.tablebase_dir)
    return tables


def cmd_solve(args, config: Config) -> int:
    rules = config.ruleset()
    started = time.perf_counter()
    if args.pieces == "2":
        tables = TablebaseStore.build_two_piece(rules).all_tables()
        _write_all(tables, config.tablebase_dir)
    elif args.pieces == "3":
        store = _ensure_two_piece(config, rules)
        tables = _solve_three_piece(config, rules, store)
    else:
        tables = _solve_named(args.pieces, config, rules)
    for tb in tables:
        _stats_row(tb.partition.name, stats(tb))
    total = aggregate_stats(tables)
    elapsed = time.perf_counter() - started
    _emit("TOTAL", total.positions, total.wins, total.losses, total.draws,
          total.longest_plies, total.longest_winner_moves, f"{elapsed:.3f}")
    return EXIT_OK


def cmd_stats(args, config: Config) -> int:
    store = _load_store(config)
    tables = _select_tables(store, args.pieces)
    for tb in tables:
        _stats_row(tb.partition.name, stats(tb))
    total = aggregate_stats(tables)
    _emit("TOTAL", total.positions, total.wins, total.losses, total.draws,
          total.longest_plies, total.longest_winner_moves)
    return EXIT_OK


def cmd_probe(args, config: Config) -> int:
    position = _position_arg(args.position)
    rules = config.ruleset()
    outcome = terminal_state(position, rules)
    if outcome is not Outcome.ONGOING:
        raise CommandError(
            EXIT_PARSE, f"terminal position ({outcome.value}); nothing to probe"
        )
    store = _load_store(config)
    value, dtm, move = store.probe(position)
    move_str = move_text(position, move) if move is not None else "-"
    side = "White" if position.stm == WHITE else "Black"
    if value is Value.WIN:
        print(f"# {side} to move wins in {dtm} plies, best {move_str}")
    elif value is Value.LOSS:
        print(f"# {side} to move loses in {dtm} plies, best {move_str}")
    else:
        print(f"# {side} to move draws, best {move_str}")
    _emit(value.name, dtm, move_str)
    return EXIT_OK


def cmd_verify(args, config: Config) -> int:
    store = _load_store(config)
    tables = _select_tables(store, args.pieces)
    rules = config.ruleset()
    total = 0
    for tb in tables:
        problems = verify(tb, subgames=store, rules=rules)
        for line in problems:
            print(f"# {tb.partition.name}: {line}", file=sys.stderr)
        total += len(problems)
        _emit(tb.partition.name, len(problems))
    _emit("TOTAL", total)
    return EXIT_VERIFY if total else EXIT_OK


def _two_piece_partition(name: str) -> Partition:
    try:
        partition = Partition.from_name(name)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, f"bad partition name {name!r}: {exc}")
    if partition.piece_count != 2:
        raise CommandError(
            EXIT_USAGE,
            "feature extraction is defined for one-piece-per-side partitions",
        )
    return partition


def _mining_table(partition: Partition, config: Config, rules: Ruleset):
    # Use the built file when present, otherwise solve transiently.
    path = os.path.join(config.tablebase_dir, partition.filename)
    if os.path.isfile(path):
        tb = read_tablebase(path)
        if tb.rules_word != rules.flag_word:
            raise CommandError(
                EXIT_MISSING,
                f"{partition.name}: file built under rule-variant flag word "
                f"{tb.rules_word}, active config is {rules.flag_word}",
            )
        return tb
    return solve_pair(partition, None, rules)[0]


def cmd_features(args, config: Config) -> int:
    partition = _two_piece_partition(args.partition)
    table = _mining_table(partition, config, config.ruleset())
    for line in example_lines(table):
        print(line)
    return EXIT_OK


_FIXTURES = {
    "equal": equal_material_tree,
    "black-stronger": black_stronger_tree,
    "lion": lion_vs_elephant_tree,
}


def cmd_mine(args, config: Config) -> int:
    partition = _two_piece_partition(args.partition)
    if args.fixture and args.features:
        raise CommandError(EXIT_USAGE, "--fixture and --features are mutually exclusive")
    features = FEATURE_NAMES
    if args.features:
        features = tuple(
            name.strip() for name in args.features.split(",") if name.strip()
        )
        if not features:
            raise CommandError(EXIT_USAGE, "--features lists no feature names")
        unknown = [name for name in features if name not in FEATURE_NAMES]
        if unknown:
            raise CommandError(EXIT_USAGE, f"unknown features: {', '.join(unknown)}")
    table = _mining_table(partition, config, config.ruleset())
    examples = partition_examples(table)
    if args.fixture:
        tree = _FIXTURES[args.fixture]()
    else:
        tree = induce_tree(examples, features=features)
    misclassified = evaluate_tree(tree, table)
    os.makedirs(args.out_dir, exist_ok=True)
    examples_path = os.path.join(args.out_dir, f"{partition.name}.examples.tsv")
    with open(examples_path, "w", encoding="utf-8") as fh:
        for line in example_lines(table):
            fh.write(line + "\n")
    tree_path = os.path.join(args.out_dir, f"{partition.name}.tree.txt")
    with open(tree_path, "w", encoding="utf-8") as fh:
        fh.write(format_tree(tree) + "\n")
    _emit(partition.name, len(examples), misclassified, examples_path, tree_path)
    return EXIT_OK


def cmd_classify(args, config: Config) -> int:
    try:
        with open(args.tree, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CommandError(EXIT_MISSING, f"cannot read tree file: {exc}")
    try:
        tree = parse_tree(text)
    except ValueError as exc:
        raise CommandError(EXIT_PARSE, f"tree parse error: {exc}")
    position = _position_arg(args.position)
    try:
        features = extract_features(position)
    except ValueError as exc:
        raise CommandError(EXIT_PARSE, str(exc))
    try:
        label = classify(tree, features)
    except LookupError as exc:
        raise CommandError(
            EXIT_PARSE, f"tree does not cover this feature vector: {exc}"
        )
    _emit(label)
    return EXIT_OK


# --- entry point ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doushouqi",
        description="Dou Shou Qi rules, search, endgame tables, and mining.",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value settings file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("perft", help="legal-move path counts per depth")
    sp.add_argument("position", help="board text, or the word 'initial'")
    sp.add_argument("depth", type=int)
    sp.set_defaults(func=cmd_perft)

    sp = sub.add_parser("search", help="fixed-depth game-tree search")
    sp.add_argument("position")
    sp.add_argument("depth", type=int)
    sp.add_argument("--algorithm", choices=("alphabeta", "minimax"),
                    default="alphabeta")
    sp.add_argument("--evaluator", default="material-den")
    sp.add_argument("--no-table", action="store_true",
                    help="disable the transposition table")
    sp.add_argument("--probe", action="store_true",
                    help="score covered nodes from built tablebases")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("solve", help="build endgame tables")
    sp.add_argument("pieces", help="'2', '3', or a partition name like T_l")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("stats", help="value counts for built tables")
    sp.add_argument("pieces", nargs="?",
                    help="'2', '3', or a partition name; default all")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("probe", help="look a position up in the tables")
    sp.add_argument("position")
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("verify", help="audit built tables for consistency")
    sp.add_argument("pieces", nargs="?")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("features",
                        help="print labeled feature rows for a partition")
    sp.add_argument("partition")
    sp.set_defaults(func=cmd_features)

    sp = sub.add_parser("mine",
                        help="induce or evaluate a decision tree for a partition")
    sp.add_argument("partition")
    sp.add_argument("--fixture", choices=sorted(_FIXTURES))
    sp.add_argument("--features", metavar="LIST",
                    help="comma-separated feature subset")
    sp.add_argument("--out-dir", default=".",
                    help="where the example and tree files go")
    sp.set_defaults(func=cmd_mine)

    sp = sub.add_parser("classify", help="run a position through a stored tree")
    sp.add_argument("position")
    sp.add_argument("--tree", required=True, metavar="FILE")
    sp.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        config = load_config(args.config, args.overrides)
        return args.func(args, config)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. head); not a failure of ours.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidPositionError as exc:
        where = f" at offset {exc.offset}" if exc.offset is not None else ""
        print(f"parse error{where}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MissingPartitionError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    raise SystemExit(main())
