"""Fast self-check of the benchmark at tiny input sizes (under a minute).

    python3 perfbench/selfcheck.py

Asserts, for every workload:

- untraced and traced runs pass, and their last line carries exactly
  the metrics BENCHMARK.json names, with its units;
- every metric is also printed in the table with a unit and a sample
  count, including the names that are not in the JSON line;
- a deliberately corrupted expected output is reported as a failure
  (exit 1, ``correct`` false), not as a time.

It also asserts that run.py exits nonzero, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import oracle
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "1"]

TABLE_ONLY = {
    "overlap-narrow": ["regions_per_s", "error_rate"],
    "mine-catalog": ["regions_per_s", "error_rate"],
    "store-mixed": ["probe_p50_ms", "probe_p99_ms", "write_p50_ms", "scan_p50_ms", "ops_per_s", "error_rate"],
}


def invoke(workload: str, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--trace", str(trace), *TINY])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def table(lines: list[str]) -> dict[str, list[str]]:
    rows = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4 and fields[0] != "metric" and fields[3].isdigit():
            rows[fields[0]] = fields
    return rows


def check_run(workload: str, trace: int) -> None:
    code, lines, result = invoke(workload, trace)
    where = f"{workload} --trace {trace}"
    assert code == 0 and result["correct"] and result["failed"] == 0, f"{where}: {lines[-25:]}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == spec, f"{where}: JSON metrics {got} differ from BENCHMARK.json {spec}"
    rows = table(lines)
    for name in list(spec) + ([] if trace else TABLE_ONLY[workload]):
        assert name in rows, f"{where}: {name} missing from the table"
        _, value, unit, n = rows[name][:4]
        float(value)
        assert unit and int(n) >= 1, f"{where}: {name} printed without unit or sample count"
        if name in spec:
            assert unit == spec[name], f"{where}: {name} unit {unit}, BENCHMARK.json says {spec[name]}"


def corrupt(data: bytes) -> bytes:
    """Change the last digit of the expected output."""
    i = max(data.rfind(bytes([d])) for d in b"0123456789")
    return data[:i] + (b"1" if data[i : i + 1] != b"1" else b"2") + data[i + 1 :]


def check_corruption(workload: str, trace: int = 0) -> None:
    originals = (oracle.pairs_tsv, oracle.mining_tsv, oracle.StoreModel.near)
    oracle.pairs_tsv = lambda a, b: corrupt(originals[0](a, b))
    oracle.mining_tsv = lambda *args: (corrupt(originals[1](*args)[0]), originals[1](*args)[1])
    oracle.StoreModel.near = lambda self, *args: originals[2](self, *args)[1:] or [0]
    try:
        code, lines, result = invoke(workload, trace)
    finally:
        oracle.pairs_tsv, oracle.mining_tsv, oracle.StoreModel.near = originals
    where = f"{workload} with a corrupted expected output"
    assert code == 1 and not result["correct"] and result["failed"] > 0, f"{where}: {lines[-5:]}"
    assert any(line.startswith("FAILED:") for line in lines), f"{where}: no failure reported"


def check_bare_directory() -> None:
    bare = run.ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), f"bare directory: {proc.returncode} {proc.stdout!r}"


def main() -> int:
    run.SCALE = 0.01
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
        check_corruption(workload)
        print(f"ok {workload}")
    check_corruption("overlap-narrow", trace=1)
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
