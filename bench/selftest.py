"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. A deliberately wrong expectation (a fault op expected to pass) and an
   op that raises must each count as one failed op, so ``error_rate``
   can leave 0.
2. A tiny-size smoke run of every workload, plain and traced, must print
   every metric named in BENCHMARK.json with its unit and fail no op.
3. Run from a directory holding only BENCHMARK.json and bench/, the
   benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import Ledger, Op, fault_pairs, load_autcert


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: {message}")


def wrong_expectation() -> None:
    pipeline = load_autcert(run.SRC)
    ledger = Ledger()
    ledger.run(pipeline, Op(corrupt_pair=fault_pairs()[0], expect="pass"))
    expect(ledger.failed == 1, "a fault op expected to pass was not counted as failed")
    ledger.run(pipeline, Op(corrupt_pair=("no-such-curve", "E1")))
    expect(ledger.failed == 2, "an op that raised was not counted as failed")
    expect(ledger.failed / ledger.attempted > 0, "error_rate stayed 0")
    print(f"wrong expectation: {ledger.failed} failed of {ledger.attempted} attempted, as intended")


def smoke() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group, units in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        expect(wanted == units, f"BENCHMARK.json {group} differs from what bench/run.py reports")
        for workload in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, run.__file__, "--workload", workload["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result["correct"] and result["failed"] == 0, f"{workload['name']}: failed ops")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload['name']} trace {trace}: metrics {sorted(got)}")
            printed = {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}
            for name, unit in {**wanted, "error_rate": "ratio"}.items():
                expect(printed.get(name) == unit, f"{workload['name']}: {name} not printed with {unit}")
            print(f"smoke {workload['name']} trace {trace}: {len(printed)} metrics printed")


def bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "the benchmark succeeded without the program's sources")
    expect('"correct"' not in proc.stdout, "the benchmark printed a result without the sources")
    print(f"bare directory: exit {proc.returncode}, no result")


if __name__ == "__main__":
    wrong_expectation()
    smoke()
    bare_directory()
    print("selftest: PASS")
