"""
The full certificate: nine stages, one verdict
==============================================

The pipeline chains every check into a deterministic report.  Facts
imported from the literature appear as external inputs with citations,
so the verdict never overstates what was machine-checked.
"""

from autcert.pipeline import PipelineOptions, run_all, run_stage

# Run everything with the default options.
report = run_all(PipelineOptions(max_gens=5, seed=0))
for stage in report.stages:
    externals = len(stage.evidence.get("external_inputs", ()))
    print(f"{stage.name:<11} {stage.status:<6} external inputs: {externals}")
print("verdict:", report.verdict)

# A single stage can be run alone; results match the full run.
alone = run_stage("canonical")
coeffs = alone.evidence["checks"][0]["coefficients"]
print("2K coefficients:", coeffs)

# Fault injection: zeroing one intersection number flips the verdict
# and the report names the corrupted pair.
broken = run_all(PipelineOptions(corrupt_pair=("E2", "C32")))
print("corrupted verdict:", broken.verdict)
swap_check = next(
    c for c in broken.stages[0].evidence["checks"] if "no fixed curve" in c["claim"]
)
print("config witness:", swap_check["witness"])

# The JSON report is byte-for-byte reproducible for fixed options.
again = run_all(PipelineOptions(corrupt_pair=("E2", "C32")))
print("deterministic:", again.to_json() == broken.to_json())
