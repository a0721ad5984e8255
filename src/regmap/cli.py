"""Command-line entry point.

Subcommands: gen, overlap, mine, search, sqlgen, bench. Exit codes are
0 for success, 1 for runtime or data errors, 2 for usage errors. An
optional ``key = value`` config file supplies flag defaults; explicit
flags win over the file, the file wins over built-in defaults.

``mine`` builds no RegionStore: a dataset with a same-assembly partner
becomes ``columns.RegionColumns`` as soon as its file is parsed, and
the file's records are released before the next one is read; each
report row is written as ``joins.mining_report`` yields it. numpy is
imported only inside the commands that use it, so importing this module
and ``sqlgen`` never load it; ``search`` builds no index, because one
probe is a scan, so it loads numpy only once its files' parse reaches
``bedio._NUMPY_AFTER`` bytes (2 MiB). ``main`` runs every command with
one OpenBLAS thread when numpy is not loaded yet and the caller has not
set ``OPENBLAS_NUM_THREADS``: regmap calls no BLAS routine, and
OpenBLAS's worker pool costs about half of numpy's import time. The
variable is removed again afterwards, and library use keeps numpy's
defaults. Likewise the store, ``sqlgen`` and ``dbadapter`` load only in
the commands that use them, so ``overlap`` and ``mine`` start without
them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .bedio import load_catalog_file, parse_bed_file, write_bed, write_lines
from .joins import (
    JoinFilter,
    mining_report,
    nested_loop_join,
    paired_datasets,
    write_mining_tsv,
    write_pairs_tsv,
)

SEARCH_TSV_HEADER = ("id", "dataset", "chrom", "start", "end")


def _sink(path: str | None):
    """Where a writer sends its output: the path, or stdout for none or ``-``."""
    return sys.stdout if path is None or path == "-" else path


def _join_filter(args) -> JoinFilter:
    return JoinFilter(min_bp=args.min_bp, max_centre_distance=args.max_centre_distance)


def cmd_gen(args) -> int:
    from . import bench

    config = bench.GenConfig(
        seed=args.seed,
        count=args.count,
        chromosomes=tuple(args.chromosomes.split(",")) if args.chromosomes else bench.DEFAULT_CHROMOSOMES,
        coord_lower=args.coord_lower,
        coord_upper=args.coord_upper,
        max_size=args.max_size,
        fixed_size=args.fixed_size,
    )
    write_bed(bench.generate_regions(config), _sink(args.out))
    return 0


def cmd_overlap(args) -> int:
    from .columns import read_bed_columns, window_join

    a = read_bed_columns(args.a, first_id=1)
    b = read_bed_columns(args.b, first_id=len(a) + 1)
    flt = _join_filter(args)
    if args.algorithm == "sweep":
        pairs = window_join(a, b, flt)
    else:
        pairs = nested_loop_join(a.to_id_regions(), b.to_id_regions(), flt)
    write_pairs_tsv(pairs, _sink(args.out))
    return 0


def cmd_mine(args) -> int:
    from .columns import RegionColumns

    catalog_path = Path(args.catalog)
    catalog = load_catalog_file(catalog_path)
    flt = _join_filter(args)
    paired = set(paired_datasets(catalog))
    columns = {}
    for entry in catalog:
        # "/" keeps an absolute entry path as it is
        regions, _ = parse_bed_file(catalog_path.parent / entry.path, mode="permissive")
        if entry.name in paired:
            columns[entry.name] = RegionColumns.from_records(regions)
        del regions  # each file's records are released before the next is read
    write_mining_tsv(mining_report(catalog, columns, flt), _sink(args.out))
    return 0


def _parse_locus(text: str) -> tuple[str, int]:
    chrom, _, pos = text.rpartition(":")
    if not chrom or not (pos.isascii() and pos.isdigit()):
        raise ValueError(f"expected CHROM:POS, got {text!r}")
    return chrom, int(pos)


def _dataset_names(paths) -> list[str]:
    """Dataset names for ``search --store-from``: each file's stem
    (``ds<N>`` for a file without one, N its position). A name an
    earlier file already took becomes the first free ``<name>-<k>``,
    k = 2, 3, ..."""
    names: list[str] = []
    for i, path in enumerate(paths, 1):
        base = Path(path).stem or f"ds{i}"
        name, k = base, 1
        while name in names:
            k += 1
            name = f"{base}-{k}"
        names.append(name)
    return names


def cmd_search(args) -> int:
    from .store import RegionStore

    store = RegionStore()
    for name, path in zip(_dataset_names(args.store_from), args.store_from):
        regions, _ = parse_bed_file(path, mode="permissive")
        store.import_dataset(name, regions)
    if args.invalid:
        hits = store.find_invalid()
    else:
        chrom, position = _parse_locus(args.near)
        # One probe: a scan costs less than building the index, and
        # needs no numpy.
        hits = store.proximity_search(chrom, position, args.window)
    lines = ["\t".join(SEARCH_TSV_HEADER) + "\n"]
    for row in hits:
        r = row.region
        lines.append(f"{row.id}\t{row.dataset}\t{r.chrom}\t{r.start}\t{r.end}\n")
    write_lines(lines, _sink(args.out))
    return 0


def cmd_sqlgen(args) -> int:
    from . import sqlgen

    dialects = (
        list(sqlgen.SqlDialect)
        if args.dialect == "all"
        else [sqlgen.SqlDialect(args.dialect)]
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for dialect in dialects:
        for script in sqlgen.emit_all(dialect):
            if args.kind != "all" and script.kind.value != args.kind:
                continue
            target = out_dir / script.filename
            write_lines((script.text,), target)
            written.append(target)
    for path in written:
        print(path)
    return 0


def cmd_bench(args) -> int:
    from . import bench, dbadapter

    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else [5000]
    backends = dbadapter.backends_from_env()
    if args.scenario == "insertion":
        report = bench.run_insertion_bench(sizes, reps=args.reps, backends=backends, seed=args.seed)
    elif args.scenario == "import":
        if not args.files:
            print("bench --scenario import requires --files", file=sys.stderr)
            return 2
        report = bench.run_import_bench(args.files, reps=args.reps, backends=backends)
    elif args.scenario == "overlap":
        report = bench.run_overlap_bench(sizes, reps=args.reps, backends=backends, seed=args.seed)
    else:
        report = bench.run_search_bench(sizes, reps=args.reps, backends=backends, seed=args.seed)
        bench.add_search_writes(report, sizes, seed=args.seed)
    bench.write_report(report, fmt=args.format, sink=_sink(args.report))
    return 0


class _SqlgenChoices:
    """argparse choices: the values of one ``sqlgen`` enum, then ``all``,
    importing sqlgen when first read."""

    def __init__(self, enum_name: str):
        self.enum_name = enum_name

    def __iter__(self):
        from . import sqlgen

        return iter([m.value for m in getattr(sqlgen, self.enum_name)] + ["all"])

    def __contains__(self, value) -> bool:
        return value in list(self)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmap",
        description="Genomic region mapping: overlap joins, searches, SQL emission, benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", metavar="FILE", help="key = value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate seeded random regions as BED")
    p.add_argument("--count", type=int, default=1000, help="number of regions")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--max-size", type=int, default=500, help="maximum region length")
    p.add_argument("--fixed-size", action="store_true", help="every region exactly max-size long")
    p.add_argument("--chromosomes", help="comma-separated chromosome names")
    p.add_argument("--coord-lower", type=int, default=0, help="lowest start coordinate")
    p.add_argument("--coord-upper", type=int, default=200_000_000, help="coordinate upper bound")
    p.add_argument("--out", help="output BED file (default stdout)")
    p.set_defaults(func=cmd_gen)

    # the join filter's flags, read by _join_filter
    join_filter = argparse.ArgumentParser(add_help=False)
    join_filter.add_argument("--min-bp", type=int, default=1, help="minimum bp overlap to emit a pair")
    join_filter.add_argument(
        "--max-centre-distance",
        type=float,
        default=None,
        help="emit only pairs with centre distance strictly below this",
    )

    p = sub.add_parser("overlap", parents=[join_filter], help="overlap-join two BED files")
    p.add_argument("--a", required=True, metavar="FILE", help="query regions (BED)")
    p.add_argument("--b", required=True, metavar="FILE", help="reference regions (BED)")
    p.add_argument("--algorithm", choices=("nested", "sweep"), default="sweep")
    p.add_argument("--out", help="output TSV file (default stdout)")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("mine", parents=[join_filter], help="pairwise overlap report over a dataset catalog")
    p.add_argument("--catalog", required=True, metavar="FILE", help="catalog TSV")
    p.add_argument("--out", help="output TSV file (default stdout)")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("search", help="find invalid regions or regions near a locus")
    p.add_argument(
        "--store-from",
        required=True,
        nargs="+",
        metavar="FILE",
        help="BED files to load, one dataset each, named after the file's stem; "
        "a stem an earlier file already used becomes STEM-2, STEM-3, ... "
        "(the first name still free)",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--invalid", action="store_true", help="list malformed regions")
    mode.add_argument("--near", metavar="CHROM:POS", help="regions near this locus")
    p.add_argument("--window", type=int, default=100_000, help="half-window in bp for --near")
    p.add_argument("--out", help="output TSV file (default stdout)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sqlgen", help="emit SQL scripts per dialect")
    # Set after add_argument, which lists an option's choices at once:
    # they are read only when this command's options are checked or shown.
    p.add_argument("--dialect", default="all").choices = _SqlgenChoices("SqlDialect")
    p.add_argument("--kind", default="all").choices = _SqlgenChoices("ScriptKind")
    p.add_argument("--out-dir", required=True, help="directory for the .sql files")
    p.set_defaults(func=cmd_sqlgen)

    p = sub.add_parser("bench", help="run a benchmark scenario")
    p.add_argument(
        "--scenario", required=True, choices=("insertion", "import", "overlap", "search")
    )
    p.add_argument("--sizes", help="comma-separated sizes (default 5000)")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--files", nargs="+", metavar="FILE", help="BED files for --scenario import")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--report", help="report file (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _apply_config(parser: argparse.ArgumentParser, values: dict[str, str]) -> list:
    """Install config values as defaults on every subparser that has a
    matching destination. Types go through each action's converter; a
    list option's value is split on whitespace, a flag takes only the
    spellings in ``_BOOLEANS``, a value must be one of the option's
    choices, and a supplied option is no longer required. A bad value
    raises ValueError.

    A value for a member of a mutually exclusive group satisfies the
    group but is no default: it is returned as ``(command, members,
    dest, value)`` for ``main`` to set only when the command line gives
    no member of the group, so an explicit member wins. Values for two
    members of one group raise ValueError."""
    subparsers = [
        sp
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for sp in action.choices.values()
    ]
    deferred = []
    for sp in subparsers:
        defaults = {}
        groups = {a: g for g in sp._mutually_exclusive_groups for a in g._group_actions}
        taken = {}  # group -> the dest the config set in it
        for action in sp._actions:
            if action.dest not in values:
                continue
            raw = values[action.dest]
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                if raw.lower() not in _BOOLEANS:
                    raise ValueError(
                        f"{action.dest} = {raw!r}: expected one of {', '.join(_BOOLEANS)}"
                    )
                value = _BOOLEANS[raw.lower()]
            else:
                convert = action.type or str
                listed = action.nargs in ("+", "*")
                items = [convert(item) for item in (raw.split() if listed else [raw])]
                if action.choices is not None and any(item not in action.choices for item in items):
                    allowed = ", ".join(map(str, action.choices))
                    raise ValueError(f"{action.dest} = {raw!r}: expected one of {allowed}")
                value = items if listed else items[0]
            group = groups.get(action)
            if group is None:
                defaults[action.dest] = value
                action.required = False  # the config supplies it; a flag still wins
                continue
            if group in taken:
                raise ValueError(f"{taken[group]} and {action.dest} exclude each other")
            taken[group] = action.dest
            group.required = False
            deferred.append((sp.get_default("func"), group._group_actions, action.dest, value))
        if defaults:
            sp.set_defaults(**defaults)
    return deferred


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # Pre-scan for --config so its values become defaults before the
    # real parse; explicit flags then override them.
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    deferred = []
    if known.config:
        try:
            deferred = _apply_config(parser, _read_config(known.config))
        except (OSError, ValueError) as exc:
            print(f"regmap: config error: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    for command, members, dest, value in deferred:
        if args.func is command and all(getattr(args, a.dest) == a.default for a in members):
            setattr(args, dest, value)
    # One OpenBLAS thread for a numpy this command loads, set only for
    # the command, so os.environ ends as it began; a caller's value and
    # an already loaded numpy's pool are kept.
    one_thread = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, AssertionError) as exc:
        print(f"regmap: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]


if __name__ == "__main__":
    sys.exit(main())
