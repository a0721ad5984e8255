"""RegMap benchmark: three closed-loop workloads, one client, from a seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the
``regmap`` package in ``src/``. Workloads (see perfbench/README.md):

- ``overlap-narrow``: ``regmap overlap`` of two narrow-peak BED files;
- ``mine-catalog``: ``regmap mine`` over a catalog, plus ``--min-bp 0``
  over a small sub-catalog;
- ``store-mixed``: one long-lived RegionStore serving probes, writes
  and invalid-row scans.

Inputs come from ``gen`` (numpy, seeded) and every output is checked
against ``oracle`` outside the timed region. With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of traced runs (``spans``). A table with every
metric, its unit and its sample count is printed above it. A failed
operation or check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable

# Children are killed DEADLINE_MARGIN_S after --seconds: at --seconds 20
# the whole run, set-up included, ends well before 180 s.
DEADLINE_MARGIN_S = 145
# setup_s of the CLI workloads: import samples before the loop and after
# each iteration, so the median spans the run's speed phases.
SETUP_FIRST, SETUP_PER_ITERATION = 6, 5
SCALE = 1.0  # input size factor; the self-check shrinks it

OVERLAP_REGIONS = 200_000
TF_REGIONS, BROAD_REGIONS, MOUSE_REGIONS, SUB_REGIONS = 20_000, 8_000, 2_000, 4_000
BROAD_DOMAINS = 5
STORE_FILES, STORE_FILE_REGIONS, STORE_BROAD_REGIONS, WRITE_REGIONS = 10, 30_000, 20_000, 20_000
WINDOW = 100_000
PROBES_PER_ROUND = 200
ABSENT_CHROM = "chrY"  # no dataset has it; 5% of probes ask for it
ROUNDS_PER_CHILD = 6
MIN_STORE_CHILDREN = 3  # setup_s is their median

END_TO_END = ("wall_s", "query_p50_ms", "peak_rss_mb", "setup_s")


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


class Bench:
    """One run: its work directory, deadline, child environment and tally."""

    def __init__(self, work: Path, seed: int, seconds: float):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + max(0.0, seconds) + DEADLINE_MARGIN_S
        self.tally = Tally()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.inputs: dict = {"seed": seed}

    def n(self, count: int) -> int:
        return max(10, round(count * SCALE))

    def child(self, argv: list[str], stdout: Path | None = None):
        """Run one child to completion: (exit code, wall s, max RSS MB, stderr tail).

        The wall runs from spawn to reap. A child that outlives the run's
        deadline is killed and reported as failed.
        """
        err_path = self.work / "child.err"
        with open(err_path, "wb") as err, open(stdout or os.devnull, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, max(0.1, self.deadline - time.monotonic()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(errors="replace")[-400:]
        return proc.returncode, wall, usage.ru_maxrss / 1024, tail

    def time_left(self, started: float, done: int) -> bool:
        """Closed loop: start another iteration until --seconds have passed."""
        return done == 0 or time.perf_counter() - started < self.seconds

    def import_setup(self, samples: list[float], count: int) -> None:
        """setup_s of the CLI workloads: ``import regmap.cli`` in fresh children."""
        code = "import time;t=time.perf_counter();import regmap.cli;print(time.perf_counter()-t)"
        out = self.work / "setup.out"
        for _ in range(count):
            rc, _, _, err = self.child([PY, "-c", code], stdout=out)
            if self.tally.record(rc == 0, f"import regmap.cli exited {rc}: {err}"):
                samples.append(float(out.read_text()))

    def write_dataset(self, name: str, ds: gen.Dataset, rng, record: str) -> Path:
        path = self.work / f"{name}.bed"
        size = gen.write_bed(path, ds, rng)
        entry = self.inputs.setdefault(record, {"files": 0, "regions": 0, "bytes": 0, "malformed": 0, "invalid": 0})
        entry["files"] += 1
        entry["regions"] += len(ds)
        entry["bytes"] += size
        entry["malformed"] += len(ds.malformed)
        entry["invalid"] += int((~ds.valid).sum())
        return path


def median(values) -> float:
    """The median, or NaN (which marks the run incorrect) when no sample exists."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def nearest_rank(sorted_samples: list[float], p: float) -> float:
    if not sorted_samples:
        return math.nan
    return sorted_samples[max(0, math.ceil(p / 100 * len(sorted_samples)) - 1)]


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest of p99.9/p99/p95/p90 with >= 10 samples beyond it, else the maximum."""
    ordered = sorted(samples)
    if not ordered:
        return "none", math.nan
    for p in (99.9, 99, 95, 90):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p:g}", nearest_rank(ordered, p)
    return "max", ordered[-1]


def first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g != w:
            return f"line {i}: got {g[:120]!r}, want {w[:120]!r}"
    return f"{len(got_lines)} lines, want {len(want_lines)}"


def check_output(bench: Bench, rc: int, err: str, got: Path, want: bytes, what: str) -> bool:
    if rc != 0:
        return bench.tally.record(False, f"{what}: exit {rc}: {err}")
    data = got.read_bytes() if got.exists() else b""
    return bench.tally.record(data == want, f"{what}: output differs from oracle, {first_difference(data, want)}")


# ---------------------------------------------------------------- CLI workloads


class CliWorkload:
    """An iteration is a fixed list of ``regmap`` invocations, each checked
    byte for byte against the oracle's expected TSV."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.calls: list[tuple[str, list[str], bytes]] = []  # (label, regmap args, expected)
        self.regions = 0  # input regions one iteration reads
        self.malformed = 0  # lines one iteration's parses must reject

    def iteration(self, traced: bool, tag: str):
        """Run every invocation once: (wall s, peak RSS MB, query wall s, outputs, dumps)."""
        bench = self.bench
        wall, rss, query, outputs, dumps = 0.0, 0.0, None, [], []
        for label, args, expected in self.calls:
            out = bench.work / f"{label}.{tag}.tsv"
            out.unlink(missing_ok=True)
            argv = [PY, "-m", "regmap.cli", *args, "--out", str(out)]
            if traced:
                dump = bench.work / f"{label}.spans.json"
                dump.unlink(missing_ok=True)
                argv = [PY, str(HERE / "traced_cli.py"), str(dump), *args, "--out", str(out)]
            rc, w, r, err = bench.child(argv)
            ok = check_output(bench, rc, err, out, expected, f"{label}{' (traced)' if traced else ''}")
            wall += w
            rss = max(rss, r)
            query = w if query is None else query
            outputs.append(out.read_bytes() if ok else None)
            if traced and ok:
                dumps.append(json.loads(dump.read_text()))
        return wall, rss, query, outputs, dumps

    def measure(self) -> list[tuple]:
        bench = self.bench
        setup, walls, rss, queries = [], [], [], []
        bench.import_setup(setup, SETUP_FIRST)
        started = time.perf_counter()
        while bench.time_left(started, len(walls)):
            wall, peak, query, _, _ = self.iteration(False, "run")
            walls.append(wall)
            rss.append(peak)
            queries.append(query)
            bench.import_setup(setup, SETUP_PER_ITERATION)
        label, value = tail(queries)
        wall_label, wall_tail = tail(walls)
        rate = [self.regions / w for w in walls]
        return [
            ("wall_s", median(walls), "s", len(walls), f"median; {wall_label} {wall_tail:.4f}"),
            ("query_p50_ms", 1000 * median(queries), "ms", len(queries), f"`{self.calls[0][0]}` child"),
            ("query_tail_ms", 1000 * value, "ms", len(queries), label),
            ("peak_rss_mb", median(rss), "MB", len(rss), "median over iterations of the largest child"),
            ("setup_s", median(setup), "s", len(setup), "import regmap.cli"),
            ("regions_per_s", median(rate), "1/s", len(rate), f"{self.regions} input regions / wall_s"),
        ]

    def trace(self) -> list[tuple]:
        """Alternate untraced and traced iterations; per-layer medians."""
        bench = self.bench
        layers, overheads = [], []
        started = time.perf_counter()
        while bench.time_left(started, len(overheads)):
            plain_wall, _, _, plain_out, _ = self.iteration(False, "plain")
            traced_wall, _, _, traced_out, dumps = self.iteration(True, "traced")
            bench.tally.record(
                plain_out == traced_out and None not in traced_out,
                "traced CLI output differs from the untraced output",
            )
            overheads.append(traced_wall - plain_wall)
            if len(dumps) == len(self.calls):
                metrics = spans.layer_metrics(merge_dumps(dumps))
                bench.tally.record(
                    metrics["bedio.lines_rejected"] == self.malformed,
                    f"bedio.lines_rejected {metrics['bedio.lines_rejected']}, injected {self.malformed}",
                )
                layers.append(metrics)
        return layer_rows(layers, overheads)


def merge_dumps(dumps: list[dict]) -> dict:
    merged = {"spans": [], "counts": {}}
    for dump in dumps:
        offset = len(merged["spans"])
        for name, start, end, parent in dump["spans"]:
            merged["spans"].append([name, start, end, None if parent is None else parent + offset])
        for key, value in dump["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
    return merged


def layer_rows(layers: list[dict], overheads: list[float]) -> list[tuple]:
    rows = []
    if layers:
        for name in layers[0]:
            values = [m[name] for m in layers]
            unit = spans.unit(name)
            rows.append((name, median(values), unit, len(values), "median per traced iteration"))
    rows.append(("trace.overhead_s", median(overheads), "s", len(overheads), "traced wall - untraced wall"))
    return rows


def overlap_narrow(bench: Bench) -> CliWorkload:
    n = bench.n(OVERLAP_REGIONS)
    rng = gen.rng_for(bench.seed, "overlap-narrow/files")
    a = gen.narrow(gen.rng_for(bench.seed, "overlap-narrow/A"), n)
    b = gen.narrow(gen.rng_for(bench.seed, "overlap-narrow/B"), n)
    path_a = bench.write_dataset("A", a, rng, "overlap")
    path_b = bench.write_dataset("B", b, rng, "overlap")
    expected = oracle.pairs_tsv(a, b)
    bench.inputs["expected_pairs"] = expected.count(b"\n") - 1
    work = CliWorkload(bench)
    work.calls.append(("regmap overlap", ["overlap", "--a", str(path_a), "--b", str(path_b)], expected))
    work.regions = 2 * n
    return work


# (name, factor, cell line, treatment, assembly, kind, regions at scale 1)
CATALOG = (
    ("ctcf_hepg2", "CTCF", "HepG2", "", "hg38", "narrow", TF_REGIONS),
    ("rad21_hepg2", "RAD21", "HepG2", "", "hg38", "narrow", TF_REGIONS),
    ("foxa2_hepg2", "FOXA2", "HepG2", "", "hg38", "narrow", TF_REGIONS),
    ("nr3c1_a549_dex", "NR3C1", "A549", "dexamethasone", "hg38", "narrow", TF_REGIONS),
    ("cebpb_a549_dex", "CEBPB", "A549", "dexamethasone", "hg38", "narrow", TF_REGIONS),
    ("gata1_k562", "GATA1", "K562", "", "hg38", "narrow", TF_REGIONS),
    ("h3k27me3_hepg2", "H3K27me3", "HepG2", "", "hg38", "broad", BROAD_REGIONS),
    ("h3k9me3_k562", "H3K9me3", "K562", "", "hg38", "broad", BROAD_REGIONS),
    ("ctcf_mel", "CTCF", "MEL", "", "mm10", "mouse", MOUSE_REGIONS),
    ("gata1_mel", "GATA1", "MEL", "", "mm10", "mouse", MOUSE_REGIONS),
)
SUB_CATALOG = tuple((f"yy1_k562_rep{i}", "YY1", "K562", "", "hg38", "narrow", SUB_REGIONS) for i in (1, 2, 3))


def write_catalog(bench: Bench, label: str, specs) -> tuple[Path, dict[str, gen.Dataset]]:
    datasets = {}
    lines = ["name\tfactor\tcell_line\ttreatment\tassembly\tpath\n"]
    for name, factor, cell, treatment, assembly, kind, count in specs:
        rng = gen.rng_for(bench.seed, f"mine-catalog/{name}")
        n = bench.n(count)
        if kind == "broad":
            ds = gen.broad(rng, n, BROAD_DOMAINS)
        else:
            ds = gen.narrow(rng, n, gen.MOUSE if kind == "mouse" else gen.HUMAN)
        gen.inject_invalid(rng, ds, max(2, n // 2000))
        gen.inject_malformed(rng, ds, max(1, n // 500))
        bench.write_dataset(name, ds, rng, "mine")
        datasets[name] = ds
        lines.append(f"{name}\t{factor}\t{cell}\t{treatment}\t{assembly}\t{name}.bed\n")
    path = bench.work / f"{label}.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    return path, datasets


def mine_catalog(bench: Bench) -> CliWorkload:
    work = CliWorkload(bench)
    for label, specs, min_bp in (("catalog", CATALOG, 1), ("sub-catalog", SUB_CATALOG, 0)):
        path, datasets = write_catalog(bench, label, specs)
        expected, rows = oracle.mining_tsv([s[:5] for s in specs], datasets, min_bp)
        bench.inputs[f"expected_rows_{label}"] = rows
        args = ["mine", "--catalog", str(path)] + (["--min-bp", str(min_bp)] if min_bp != 1 else [])
        work.calls.append((f"regmap mine {label}", args, expected))
        work.regions += sum(len(d) for d in datasets.values())
        work.malformed += sum(len(d.malformed) for d in datasets.values())
    return work


# ---------------------------------------------------------------- store-mixed


class StoreWorkload:
    """Children each load the base files, build the index, then serve
    ROUNDS_PER_CHILD rounds of one write, one scan and PROBES_PER_ROUND
    probes in seeded order. Every child does the same work, so its peak
    RSS does not depend on speed. The parent replays the plan on an
    array model to check every result."""

    def __init__(self, bench: Bench):
        self.bench = bench
        model = oracle.StoreModel()
        base = []
        for i in range(STORE_FILES):
            name = f"base{i:02d}"
            rng = gen.rng_for(bench.seed, f"store-mixed/{name}")
            if i == STORE_FILES - 1:
                ds = gen.broad(rng, bench.n(STORE_BROAD_REGIONS), BROAD_DOMAINS)
            else:
                ds = gen.narrow(rng, bench.n(STORE_FILE_REGIONS))
            gen.inject_invalid(rng, ds, max(2, len(ds) // 1000))
            base.append([name, str(bench.write_dataset(name, ds, rng, "store_base"))])
            model.add(ds)
        self.base_rows = model.size
        writes, self.write_sizes = [], []
        for r in range(ROUNDS_PER_CHILD):
            name = f"write{r:02d}"
            ds = gen.narrow(gen.rng_for(bench.seed, f"store-mixed/{name}"), bench.n(WRITE_REGIONS))
            writes.append([name, str(bench.write_dataset(name, ds, None, "store_writes"))])
            self.write_sizes.append(len(ds))
            model.add(ds)
        self.model = model
        rng = gen.rng_for(bench.seed, "store-mixed/ops")
        names = np.array(gen.HUMAN + (ABSENT_CHROM,))
        weights = np.full(len(names), 0.95 / len(gen.HUMAN))
        weights[-1] = 0.05
        rounds = []
        for _ in range(ROUNDS_PER_CHILD):
            chrom = rng.choice(names, PROBES_PER_ROUND, p=weights).tolist()
            pos = rng.integers(0, gen.SPAN, PROBES_PER_ROUND).tolist()
            ops = [["write"], ["scan"]] + [["probe", c, p] for c, p in zip(chrom, pos)]
            rounds.append([ops[i] for i in rng.permutation(len(ops))])
        self.plan = {"base": base, "writes": writes, "rounds": rounds, "window": WINDOW}
        self.expected: dict[tuple[int, int], object] = {}

    def child(self, tag: str, traced: bool):
        bench = self.bench
        plan_path, out = bench.work / f"plan.{tag}.json", bench.work / f"store.{tag}.json"
        dump = bench.work / f"store.{tag}.spans.json"
        for path in (out, dump):
            path.unlink(missing_ok=True)
        plan = dict(self.plan, trace=traced, spans=str(dump), out=str(out))
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        rc, wall, rss, err = bench.child([PY, str(HERE / "store_child.py"), str(plan_path)])
        if not bench.tally.record(rc == 0 and out.exists(), f"store child exited {rc}: {err}"):
            return None
        result = json.loads(out.read_text())
        result.update(wall=wall, rss=rss, rounds=self.check(result["ops"]))
        if traced:
            result["layers"] = spans.layer_metrics(json.loads(dump.read_text()))
        return result

    def want(self, r: int, i: int, op: list, visible: int):
        key = (r, i)
        if key not in self.expected:
            if op[0] == "probe":
                self.expected[key] = self.model.near(op[1], op[2], WINDOW, visible)
            elif op[0] == "scan":
                self.expected[key] = self.model.invalid(visible)
            else:
                self.expected[key] = self.write_sizes[r]
        return self.expected[key]

    def check(self, ops: list) -> list[float]:
        """Tally every operation against the model; return each full round's time."""
        tally, rounds, at = self.bench.tally, [], 0
        visible = self.base_rows
        for r, planned in enumerate(self.plan["rounds"]):
            done = ops[at : at + len(planned)]
            if not done:
                break
            at += len(planned)
            for i, (op, (kind, _, got, error)) in enumerate(zip(planned, done)):
                want = self.want(r, i, op, visible)
                if op[0] == "write":
                    visible += self.write_sizes[r]
                tally.record(error is None and got == want, f"round {r} {op}: {error or 'wrong result'}")
            rounds.append(sum(latency for _, latency, _, _ in done))
        return rounds

    def measure(self) -> list[tuple]:
        results = []
        started = time.perf_counter()
        while len(results) < MIN_STORE_CHILDREN or self.bench.time_left(started, len(results)):
            results.append(self.child("run", False))
        results = [r for r in results if r is not None]
        if not results:
            return []
        ops = [op for r in results for op in r["ops"] if op[3] is None]
        latency = {kind: [op[1] for op in ops if op[0] == kind] for kind in ("probe", "write", "scan")}
        rounds = [t for r in results for t in r["rounds"]]
        label, value = tail(latency["probe"])
        rounds_label, rounds_tail = tail(rounds)
        op_time = sum(op[1] for op in ops)
        return [
            ("wall_s", median(rounds), "s", len(rounds), f"round of 1 write, 1 scan, 200 probes: median; {rounds_label} {rounds_tail:.4f}"),
            ("query_p50_ms", 1000 * median(latency["probe"]), "ms", len(latency["probe"]), "probe_p50_ms"),
            ("query_tail_ms", 1000 * value, "ms", len(latency["probe"]), f"probe {label}"),
            ("peak_rss_mb", median(r["rss"] for r in results), "MB", len(results), "median over children"),
            ("setup_s", median(r["setup_s"] for r in results), "s", len(results), "load + build_index"),
            ("probe_p50_ms", 1000 * median(latency["probe"]), "ms", len(latency["probe"]), "= query_p50_ms"),
            ("probe_p99_ms", 1000 * nearest_rank(sorted(latency["probe"]), 99), "ms", len(latency["probe"]), "proximity_search"),
            ("write_p50_ms", 1000 * median(latency["write"]), "ms", len(latency["write"]), "parse + import + build_index"),
            ("scan_p50_ms", 1000 * median(latency["scan"]), "ms", len(latency["scan"]), "find_invalid"),
            ("ops_per_s", len(ops) / op_time if op_time else math.nan, "1/s", len(ops), "operations / their summed time"),
        ]

    def trace(self) -> list[tuple]:
        layers, overheads = [], []
        started = time.perf_counter()
        while self.bench.time_left(started, len(overheads)):
            plain = self.child("plain", False)
            traced = self.child("traced", True)
            if plain is None or traced is None:
                break
            overheads.append(traced["wall"] - plain["wall"])
            layers.append(traced["layers"])
            rejected = traced["layers"]["bedio.lines_rejected"]
            self.bench.tally.record(rejected == 0, f"bedio.lines_rejected {rejected}, injected 0")
        return layer_rows(layers, overheads)


WORKLOADS = {
    "overlap-narrow": overlap_narrow,
    "mine-catalog": mine_catalog,
    "store-mixed": StoreWorkload,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="closed-loop measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regmap" / "cli.py").is_file():
        print(f"run.py: no regmap package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(work, args.seed, args.seconds)
        workload = WORKLOADS[args.workload](bench)
        print("inputs:", json.dumps(bench.inputs, sort_keys=True))
        rows = workload.trace() if args.trace else workload.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    rows.append(("error_rate", tally.failed / max(1, tally.attempted), "1", tally.attempted, "failed / attempted"))
    print(f"{'metric':<30} {'value':>16} {'unit':<6} {'n':>6}  note")
    for name, value, unit, n, note in rows:
        print(f"{name:<30} {value:>16.6f} {unit:<6} {n:>6}  {note}")
    for problem in tally.problems:
        print("FAILED:", problem)
    wanted = set(spans_metric_names()) if args.trace else set(END_TO_END)
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows if name in wanted}
    correct = tally.failed == 0 and set(metrics) == wanted and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def spans_metric_names() -> list[str]:
    empty = {"spans": [], "counts": {}}
    return list(spans.layer_metrics(empty)) + ["trace.overhead_s"]


if __name__ == "__main__":
    sys.exit(main())
