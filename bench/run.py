"""autcert benchmark: end-to-end metrics, or a traced run for per-layer ones.

    python3 bench/run.py --workload certify_default --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30       # every workload, each in a fresh process

Each run is one process, single-threaded, closed-loop with one client:
the next op starts when the previous one has returned and been checked.
Workloads and metrics are listed in BENCHMARK.json at the repository
root; bench/README.md says what each one is for.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (context,
inputs, every op) and, for traced runs, every span are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, Ledger, Op, fault_pairs, load_autcert, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Median seconds of calibrate() on the machine the benchmark was defined
# on (2-vCPU Intel Xeon VM, Python 3.11.7) when it is quiet.  See
# reference_s() and bench/README.md.
CAL_REF_S = 0.025
SETUP_REPEATS = 15
SWEEP_K = (20, 40, 80)
TINY_SWEEP_K = (2, 4, 8)
SWEEP_REPEATS = (5, 3, 1)
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "report_bytes": "bytes",
    "peak_rss_mib": "MiB",
}

# Per-op span figures: the suffix says which total of the span it is.
SPAN_METRICS = (
    [f"pipeline.stage.{name}.s" for name in (
        "config", "cremona", "quotient", "fibrations", "lattice",
        "heights", "canonical", "dynamics", "nonfg",
    )]
    + [
        "pipeline.to_json.s",
        "scalars.poly_gcd.calls",
        "scalars.poly_gcd.self_s",
        "scalars.RatFunc.init.calls",
        "scalars.MultiPoly.mul.calls",
        "scalars.MultiPoly.mul.self_s",
        "scalars.MultiPoly.substitute.self_s",
        "scalars.matrix_rank_det.calls",
        "scalars.matrix_rank_det.self_s",
        "lattice.hnf.calls",
        "lattice.hnf.self_s",
        "lattice.z_span_membership.self_s",
        "lattice.gram_rank.self_s",
        "lattice.signature.self_s",
        "surface.build.self_s",
        "surface.verify_isometry.self_s",
        "surface.quotient_pushforward.self_s",
        "surface.with_intersection.calls",
        "fibration.validate_fiber.self_s",
        "fibration.classify_kodaira.self_s",
        "mwl.section_from_config.self_s",
        "mwl.height.self_s",
        "cremona.verify_pij_swap.calls",
        "cremona.verify_pij_swap.self_s",
        "cremona.cremona_map.calls",
        "cremona.conjugate_translation.self_s",
        "fingen.membership.calls",
        "fingen.membership.self_s",
        "fingen.certify_nonfg.s",
    ]
)
PER_LAYER = {
    **{name: ("count/op" if name.endswith(".calls") else "s/op") for name in SPAN_METRICS},
    "lattice.hnf.cells": "count/op",
    "scalars.poly_gcd.trivial_ratio": "ratio",
    "cremona.swap_accept_ratio": "ratio",
    "fingen.nonfg.time_exponent": "1",
    "fingen.nonfg.bytes_exponent": "1",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


# -- machine speed ----------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel shaped like autcert's hottest
    loop, ``MultiPoly.__mul__``: the product of two dense 3-variable
    polynomials held as dicts from exponent tuples to Fractions."""
    start = perf_counter()
    a = {(i, j, k): Fraction(i + 2 * j + 1, k + 1) for i in range(6) for j in range(6) for k in range(3)}
    b = {(i, j, k): Fraction(3 * i - j, 2 * k + 1) for i in range(5) for j in range(4) for k in range(3)}
    out: dict[tuple, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return perf_counter() - start


def reference_s(seconds: float, calibration_s: float) -> float:
    """Measured seconds scaled to a machine where calibrate() takes CAL_REF_S.

    The host's speed drifts by 20% and more within seconds to minutes,
    and that moves identical ops as much as any code change would.
    ``calibration_s`` is the mean of the calibrate() times just before and
    just after the sample, so the ratio cancels the drift of that moment.
    """
    return seconds * CAL_REF_S / calibration_s


def calibrated(sample):
    """Call ``sample`` over and over; yield its result with the mean of the
    calibrate() times just before and just after that call."""
    before = calibrate()
    while True:
        value = sample()
        after = calibrate()
        yield value, (before + after) / 2
        before = after


# -- set-up time ------------------------------------------------------------------------

_SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import autcert.pipeline; "
    "print(time.perf_counter(), autcert.pipeline.__file__)"
)


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """(seconds, calibration) of fresh interpreter starts, each timed until
    the pipeline import returns.

    Both processes read the same monotonic clock.  One untimed start
    first leaves the bytecode cache as a repeated CLI call finds it.
    """
    def start() -> float:
        t0 = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
            check=True, capture_output=True, text=True,
        ).stdout.split()
        if SRC.resolve() not in Path(out[1]).resolve().parents:
            raise SystemExit(f"bench: set-up probe imported {out[1]}")
        return float(out[0]) - t0

    start()
    return list(itertools.islice(calibrated(start), repeats))


# -- op loops ---------------------------------------------------------------------------


def timed_loop(pipeline, ops, ledger, seconds, before=None, after=None, min_ops=1):
    """Run the op cycle from its start until ``seconds`` have passed and at
    least ``min_ops`` ops have run.  Each result carries its calibration."""
    results = []

    def one_op():
        gc.collect()
        if before:
            before()
        return ledger.run(pipeline, ops[len(results) % len(ops)])

    deadline = perf_counter() + seconds
    for result, cal in calibrated(one_op):
        result.calibration_s = cal
        results.append(result)
        if after:
            after(result)
        if len(results) >= min_ops and perf_counter() >= deadline:
            return results


def tail(times):
    """(value, percentile, samples beyond): the highest nearest-rank percentile
    with TAIL_BEYOND samples above it, but never below the median."""
    xs = sorted(times)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def loglog_slope(xs, ys) -> float:
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def time_figures(setup_times, op_times, completed) -> tuple[dict, str]:
    value, pct, beyond = tail(op_times)
    figures = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": statistics.median(op_times),
        "op_s.tail": value,
        "ops_per_s": completed / sum(op_times),
    }
    return figures, f"p{pct:.1f}, {beyond} of {len(op_times)} timed ops beyond it"


def plain_run(pipeline, ops, ledger, seconds, tiny):
    setup = measure_setup(2 if tiny else SETUP_REPEATS)
    ledger.run(pipeline, ops[0])  # warm-up: checked, not timed
    results = timed_loop(pipeline, ops, ledger, seconds)
    timed = [r for r in results if r.seconds is not None]
    if not timed:
        raise SystemExit("bench: every timed op raised")
    completed = sum(r.problem is None for r in results)
    measured, _ = time_figures(
        [t for t, _ in setup], [r.seconds for r in timed], completed)
    metrics, tail_note = time_figures(
        [reference_s(t, c) for t, c in setup],
        [reference_s(r.seconds, r.calibration_s) for r in timed],
        completed,
    )
    notes = {name: f"measured {v:.6g}" for name, v in measured.items()}
    notes["op_s.tail"] += "; " + tail_note
    metrics["report_bytes"] = statistics.fmean(r.nbytes for r in timed)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = {"calibration_s": statistics.median(r.calibration_s for r in timed), "setup": setup}
    return metrics, notes, results, None, speed


# -- traced run -------------------------------------------------------------------------


def install(tracer: Tracer, pipeline) -> None:
    """Wrap the public functions of every layer, at every binding."""
    from autcert import cremona, fibration, fingen, lattice, mwl, scalars, surface

    counts = tracer.counts

    def gcd_seen(args, result, top_level):
        if top_level:
            counts["gcd_top"] += 1
            counts["gcd_trivial"] += result.is_constant()

    def hnf_seen(args, result, top_level):
        rows = args[0]
        counts["hnf_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def swap_seen(args, result, top_level):
        counts["swap_passed"] += result.passed

    for name in pipeline.STAGE_ORDER:
        tracer.patch(pipeline._STAGE_FUNCS[name], f"pipeline.stage.{name}")
    targets = [
        (pipeline.CertificateReport.to_json, "pipeline.to_json", None),
        (scalars.poly_gcd, "scalars.poly_gcd", gcd_seen),
        (scalars.RatFunc.__init__, "scalars.RatFunc.init", None),
        (scalars.MultiPoly.__mul__, "scalars.MultiPoly.mul", None),
        (scalars.MultiPoly.substitute, "scalars.MultiPoly.substitute", None),
        (scalars.matrix_rank_det, "scalars.matrix_rank_det", None),
        (lattice.hnf, "lattice.hnf", hnf_seen),
        (lattice.z_span_membership, "lattice.z_span_membership", None),
        (lattice.gram_rank, "lattice.gram_rank", None),
        (lattice.signature, "lattice.signature", None),
        (surface.build_double_kummer, "surface.build", None),
        (surface.extend_with_conics, "surface.build", None),
        (surface.verify_isometry, "surface.verify_isometry", None),
        (surface.quotient_pushforward, "surface.quotient_pushforward", None),
        (surface.with_intersection, "surface.with_intersection", None),
        (fibration.validate_fiber, "fibration.validate_fiber", None),
        (fibration.classify_kodaira, "fibration.classify_kodaira", None),
        (mwl.section_from_config, "mwl.section_from_config", None),
        (mwl.height, "mwl.height", None),
        (cremona.verify_pij_swap, "cremona.verify_pij_swap", swap_seen),
        (cremona.cremona_map, "cremona.cremona_map", None),
        (cremona.conjugate_translation, "cremona.conjugate_translation", None),
        (fingen.membership, "fingen.membership", None),
        (fingen.certify_nonfg, "fingen.certify_nonfg", None),
    ]
    for fn, name, observe in targets:
        tracer.patch(fn, name, observe)


def k_sweep(pipeline, ledger, ks):
    """Median reference seconds and report bytes of the untraced nonfg op at each K."""
    rows = []
    for k, repeats in zip(ks, SWEEP_REPEATS):
        done = [r for r in timed_loop(pipeline, [Op("nonfg", max_gens=k)], ledger, 0, min_ops=repeats)
                if r.seconds is not None]
        if done:
            seconds = statistics.median(reference_s(r.seconds, r.calibration_s) for r in done)
            rows.append((k, seconds, done[0].nbytes))
    return rows


def traced_run(pipeline, ops, ledger, seconds, tiny, spans_path):
    sweep = k_sweep(pipeline, ledger, TINY_SWEEP_K if tiny else SWEEP_K)
    ledger.run(pipeline, ops[0])  # warm-up: checked, not timed
    plain = timed_loop(pipeline, ops, ledger, seconds / 2)
    reference = {ops[0]} | {r.op for r in plain}

    tracer = Tracer()
    per_op: list[dict] = []
    pooled = {"gcd_top": 0, "gcd_trivial": 0, "swap_calls": 0, "swap_passed": 0,
              "in_pipeline_s": 0.0, "op_s": 0.0}
    pipeline_spans = [f"pipeline.stage.{n}" for n in pipeline.STAGE_ORDER] + ["pipeline.to_json"]

    def collect(result):
        if result.seconds is None:
            return
        values = {}
        for name in SPAN_METRICS:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = tracer.calls[span]
            else:
                table = tracer.self_s if kind == "self_s" else tracer.total_s
                values[name] = reference_s(table[span], result.calibration_s)
        values["lattice.hnf.cells"] = tracer.counts["hnf_cells"]
        per_op.append(values)
        for key in ("gcd_top", "gcd_trivial", "swap_passed"):
            pooled[key] += tracer.counts[key]
        pooled["swap_calls"] += tracer.calls["cremona.verify_pij_swap"]
        pooled["in_pipeline_s"] += sum(tracer.total_s[n] for n in pipeline_spans)
        pooled["op_s"] += result.seconds

    install(tracer, pipeline)
    try:
        traced = timed_loop(pipeline, ops, ledger, seconds / 2,
                            before=tracer.start_op, after=collect)
    finally:
        tracer.unpatch()
    # every traced report must match an untraced one with the same options
    for op in sorted({r.op for r in traced} - reference, key=ops.index):
        ledger.run(pipeline, op)
    write_spans(tracer.spans, spans_path)

    if not per_op:
        raise SystemExit("bench: every traced op raised")
    # means, not medians: a mixed workload's rarer ops (the fault ops) must count
    metrics = {name: statistics.fmean(v[name] for v in per_op) for name in per_op[0]}
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    plain_times = [reference_s(r.seconds, r.calibration_s) for r in plain if r.seconds is not None]
    traced_times = [reference_s(r.seconds, r.calibration_s) for r in traced if r.seconds is not None]
    metrics.update({
        "scalars.poly_gcd.trivial_ratio": ratio(pooled["gcd_trivial"], pooled["gcd_top"]),
        "cremona.swap_accept_ratio": ratio(pooled["swap_passed"], pooled["swap_calls"]),
        "fingen.nonfg.time_exponent": loglog_slope([k for k, _, _ in sweep], [s for _, s, _ in sweep]),
        "fingen.nonfg.bytes_exponent": loglog_slope([k for k, _, _ in sweep], [b for _, _, b in sweep]),
        "trace.overhead_ratio": ratio(statistics.median(traced_times), statistics.median(plain_times))
        if plain_times else 0.0,
        "trace.coverage": ratio(pooled["in_pipeline_s"], pooled["op_s"]),
    })
    notes = {
        "scalars.poly_gcd.trivial_ratio": f"{pooled['gcd_trivial']} of {pooled['gcd_top']} top-level calls",
        "cremona.swap_accept_ratio": f"{pooled['swap_passed']} of {pooled['swap_calls']} swap checks",
        "fingen.nonfg.time_exponent": "K, median reference s: " + ", ".join(f"{k}: {s:.4f}" for k, s, _ in sweep),
        "fingen.nonfg.bytes_exponent": "K, bytes: " + ", ".join(f"{k}: {b}" for k, _, b in sweep),
        "trace.overhead_ratio": f"{len(traced_times)} traced ops, {len(plain_times)} untraced",
    }
    speed = {"calibration_s": statistics.median(r.calibration_s for r in traced if r.seconds is not None)}
    return metrics, notes, plain + traced, sweep, speed


def write_spans(spans, path: Path) -> None:
    """One JSON list per line: id, parent id, name, start and end in us, op index."""
    t0 = min((s[3] for s in spans), default=0.0)
    with path.open("w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, op in spans:
            us_start = round((start - t0) * 1e6)
            us_end = round((end - t0) * 1e6)
            fh.write(json.dumps([sid, parent, name, us_start, us_end, op]) + "\n")


# -- context and output -----------------------------------------------------------------


def run_context(workload, seed, ops, pairs) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": src_lines,
        "workload": workload,
        "seed": seed,
        "fault_pairs_available": len(pairs),
        "inputs": [op.describe() for op in ops],
    }


def emit(workload, args, metrics, units, notes, ledger, context, results, sweep) -> None:
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"context: python {context['python']}, nproc {context['nproc']}, "
          f"commit {context['commit']}, src {context['src_lines']} lines")
    speed = context["speed"]
    print(f"machine speed: median calibration {speed['calibration_s']:.6g} s; times are in "
          f"reference seconds, where calibration takes {CAL_REF_S} s")
    inputs = context["inputs"]
    print("inputs: K " + ", ".join(sorted({str(op["max_gens"]) for op in inputs}))
          + "; pipeline seeds " + " ".join(str(op["seed"]) for op in inputs)
          + "; fault pairs " + (" ".join(",".join(op["corrupt_pair"]) for op in inputs
                                         if op["corrupt_pair"]) or "none"))
    default = ledger.digests.get(Op())
    if default:
        print(f"default report sha256 (information, not a gate): {default}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metrics[name]:.6g} {unit}{note}")
    error_rate = ledger.failed / ledger.attempted
    print(f"metric error_rate = {error_rate:.6g} ratio  ({ledger.failed} failed of {ledger.attempted} attempted)")
    for problem in ledger.problems[:5]:
        print(f"failed op: {problem}")

    OUT.mkdir(exist_ok=True)
    record = {
        "context": context,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "notes": notes,
        "error_rate": error_rate,
        "problems": ledger.problems,
        "k_sweep": sweep,
        "ops": [{"op": inputs.index(r.op.describe()) if r.op.describe() in inputs else r.op.describe(),
                 "seconds": r.seconds, "calibration_s": r.calibration_s, "bytes": r.nbytes,
                 "sha256": r.sha256, "problem": r.problem}
                for r in results],
    }
    path = OUT / f"run-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))


def run_one(args) -> int:
    pipeline = load_autcert(SRC)
    pairs = fault_pairs()
    ops = make_ops(args.workload, args.seed, pairs, args.tiny)
    context = run_context(args.workload, args.seed, ops, pairs)
    ledger = Ledger()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, notes, results, sweep, speed = traced_run(
            pipeline, ops, ledger, args.seconds, args.tiny, spans_path)
        units = PER_LAYER
    else:
        metrics, notes, results, sweep, speed = plain_run(
            pipeline, ops, ledger, args.seconds, args.tiny)
        units = END_TO_END
    context["speed"] = speed
    emit(args.workload, args, metrics, units, notes, ledger, context, results, sweep)
    return 0


def run_every(args) -> int:
    """Each workload in its own fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            return proc.returncode
        last = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small K and few set-up starts, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_every(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
