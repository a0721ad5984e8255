"""RegMap: genomic region mapping, SQL emission and database benchmarks.

The package computes signed base-pair overlap and centre distance for
genomic region pairs, joins whole datasets on those metrics, stores and
searches millions of regions in memory, emits equivalent SQL for
PostgreSQL and MySQL, and times the standard workloads across engines.

The names below are re-exported lazily: ``import regmap`` loads no
submodule, and the first use of a name imports the module defining it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "intervals": (
        "RawRegion",
        "GenomicRegion",
        "RelativePosition",
        "OverlapMetrics",
        "overlap_metrics",
        "bp_overlap",
        "bp_overlap_case",
        "classify",
        "centre_distance",
        "centre_distance_sql_compat",
        "overlaps",
        "geo_intersects",
        "region_length",
    ),
    "bedio": (
        "BedParseError",
        "ParseReport",
        "CatalogEntry",
        "parse_bed",
        "parse_bed_file",
        "write_bed",
        "load_catalog",
        "load_catalog_file",
    ),
    "store": ("RegionStore", "StoredRegion"),
    "joins": (
        "JoinFilter",
        "OverlapPair",
        "MiningRow",
        "nested_loop_join",
        "sweep_join",
        "count_overlapping",
        "pairwise_mining",
        "overlap_percentage",
        "write_pairs_tsv",
        "write_mining_tsv",
    ),
    "sqlgen": ("SqlDialect", "ScriptKind", "SqlScript"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
