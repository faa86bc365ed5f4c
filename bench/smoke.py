"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json with `--size tiny` (one-epoch training
runs, a 10-identity gallery), untraced and traced. Each run must exit 0 and
end with a result line that names exactly the benchmark's end-to-end (or
per-layer) metrics with their units, and its result record must show every
output check run and passed; a traced run must also leave its span dump and
self-time table. Finally the benchmark is started in a directory holding
only BENCHMARK.json and the benchmark's files, where it must fail without
printing a result. Exits 1 on the first failed expectation.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHECKS = {"trace_identical", "checkpoint_reload", "ranking_oracle"}
TIMEOUT_S = 300


def fail(message: str) -> None:
    sys.exit(f"smoke: FAIL: {message}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"{where}: missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"{where}: metric {name} = {got[name]}")
    out_dir = BENCH_DIR / "out" / workload / f"trace{trace}"
    record = json.loads((out_dir / "result.json").read_text())
    if set(record["checks"]) != CHECKS:
        fail(f"{where}: checks run {sorted(record['checks'])}, expected {sorted(CHECKS)}")
    if not all(c["passed"] for c in record["checks"].values()):
        fail(f"{where}: failed checks {record['checks']}")
    if trace:
        for name in ("spans.csv", "self_time.txt"):
            if len((out_dir / name).read_text().splitlines()) < 2:
                fail(f"{where}: {name} is empty")
    print(f"smoke: ok {where}: {len(got)} metrics, checks {sorted(record['checks'])}",
          flush=True)


def check_fails_without_sources() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "desk", 0)
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail(f"benchmark without sources exited {proc.returncode}, printed {lines[-1:]}")
    print(f"smoke: ok without sources: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_fails_without_sources()
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
