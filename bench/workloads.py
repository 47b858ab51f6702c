"""Workload inputs, the op runner and the per-op output checks.

An op is one call a user of autcert makes: build a certificate with
given options and serialize it, as ``autcert all --out`` or
``autcert nonfg --out`` does.  The workload seed chooses the inputs; the
program only ever sees the resulting ``PipelineOptions``.
"""

from __future__ import annotations

import hashlib
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

WORKLOADS = ("certify_default", "nonfg_deep", "seed_fault_mix")
DEEP_K = 80
TINY_DEEP_K = 8
# seed_fault_mix cycles through pipeline seeds 0..11, about three times
# in a 30 s run, so repeated reports can be compared
FAULT_MIX_SPECS = 12


@dataclass(frozen=True)
class Op:
    """One op: ``run_all`` (stage None) or ``run_stage(stage)``, then ``to_json``."""

    stage: str | None = None
    max_gens: int = 5
    seed: int = 0
    corrupt_pair: tuple[str, str] | None = None
    expect: str = "pass"

    def describe(self) -> dict:
        return {
            "run": "all" if self.stage is None else self.stage,
            "max_gens": self.max_gens,
            "seed": self.seed,
            "corrupt_pair": list(self.corrupt_pair) if self.corrupt_pair else None,
            "expect": self.expect,
        }


def load_autcert(src: Path):
    """Import the pipeline from ``src`` and refuse any other copy of autcert."""
    if not (src / "autcert" / "pipeline.py").is_file():
        raise SystemExit(f"bench: no autcert sources under {src}")
    sys.path.insert(0, str(src))
    from autcert import pipeline

    if src.resolve() not in Path(pipeline.__file__).resolve().parents:
        raise SystemExit(f"bench: imported autcert from {pipeline.__file__}, not {src}")
    return pipeline


def fault_pairs() -> list[tuple[str, str]]:
    """The nonzero off-diagonal entries of the 28-curve Gram matrix."""
    from autcert.surface import build_double_kummer, extend_with_conics

    x = extend_with_conics(build_double_kummer())
    n = len(x.labels)
    return [
        (x.labels[i], x.labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if x.gram[i][j]
    ]


def make_ops(workload: str, seed: int, pairs, tiny: bool = False) -> list[Op]:
    """The op cycle of a workload; runs repeat it from the start."""
    if workload == "certify_default":
        return [Op()]
    if workload == "nonfg_deep":
        return [Op("nonfg", max_gens=TINY_DEEP_K if tiny else DEEP_K)]
    if workload == "seed_fault_mix":
        # Every run covers the same pipeline seeds, whose search costs
        # differ by 2x; a run is too short to average a fresh draw of them.
        # The workload seed orders them and picks the faults.
        rng = random.Random(seed)
        ops = []
        for i, pipeline_seed in enumerate(rng.sample(range(FAULT_MIX_SPECS), FAULT_MIX_SPECS)):
            if i % 4 == 3:
                ops.append(Op(seed=pipeline_seed, corrupt_pair=rng.choice(pairs), expect="fail"))
            else:
                ops.append(Op(seed=pipeline_seed))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class OpResult:
    op: Op
    seconds: float | None  # None when the op raised
    nbytes: int = 0
    sha256: str = ""
    problem: str | None = None
    calibration_s: float = 0.0  # machine-speed sample taken just before the op


def execute(pipeline, op: Op):
    """Run one op; only the call and the serialization are timed."""
    options = pipeline.PipelineOptions(
        max_gens=op.max_gens, seed=op.seed, corrupt_pair=op.corrupt_pair
    )
    start = perf_counter()
    if op.stage is None:
        report = pipeline.run_all(options)
    else:
        stage = pipeline.run_stage(op.stage, options)
        verdict = "pass" if stage.status != "fail" else "fail"
        report = pipeline.CertificateReport(pipeline.__version__, options, (stage,), verdict)
    text = report.to_json()
    return perf_counter() - start, report, text


def check(op: Op, report) -> str | None:
    """What is wrong with an op's report, or None."""
    if report.verdict != op.expect:
        return f"verdict {report.verdict}, expected {op.expect}"
    if op.stage == "nonfg":
        stages = report.stages[0].evidence["certificate"]["stages"]
        if len(stages) != op.max_gens:
            return f"{len(stages)} escape stages, expected {op.max_gens}"
        for st in stages:
            if st["refutation"]["member"] is not False or st["next_span"]["member"] is not True:
                return f"escape stage {st['k']} is not refuted then confirmed"
    return None


class Ledger:
    """Counts attempted and failed ops; remembers each spec's report digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[Op, str] = {}

    def run(self, pipeline, op: Op) -> OpResult:
        self.attempted += 1
        try:
            seconds, report, text = execute(pipeline, op)
            data = text.encode("utf-8")
            result = OpResult(op, seconds, len(data), hashlib.sha256(data).hexdigest())
            result.problem = check(op, report)
        except Exception:  # any exception is one failed op; the run goes on
            result = OpResult(op, None, problem=traceback.format_exc())
        if result.problem is None:
            first = self.digests.setdefault(op, result.sha256)
            if first != result.sha256:
                result.problem = "report bytes differ from an earlier op with the same options"
        if result.problem is not None:
            self.failed += 1
            self.problems.append(f"{op.describe()}: {result.problem}")
        return result
