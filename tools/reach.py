"""List the ``src/autcert`` functions that no certificate run enters.

Runs, under one ``sys.settrace`` hook that records each function call:

* ``run_all`` at pipeline seeds 0-11, each report written as JSON;
* each stage alone with default options;
* each of the 52 corrupt-pair faults (every nonzero off-diagonal pair of
  the 28-curve Gram), as a whole run and with each stage alone;
* the ``nonfg`` stage alone at K = 20;
* the command line on each of its exit paths (0, 1 and 2).

It prints every function defined in ``src/autcert`` that none of these
runs entered, with its line count and, when it is on the reviewed
allowlist below, the reason it may stay unreached.  It exits 1 when an
unreached function is not on the allowlist, so code that only tests
reach cannot come back unnoticed, and when an allowlist entry is stale
(its function is now entered or no longer exists), so the list holds
only what it has to.

Run from the repository root: ``python3 tools/reach.py``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "autcert"

BENCH = "bound or called by bench/run.py install"
GUARD = "immutability guard"
DUNDER = "__hash__ or __repr__ of a value type"
ENTRY = "main_entry: the console script's wrapper around main"
RING = (
    "additive ring operation of MultiPoly, which the demos and tests build "
    "polynomials with; the cremona checks sum on term dicts, so no run adds two"
)
RATIONAL = (
    "one of RatFunc.__init__, poly_gcd and matrix_rank_det, which bench/run.py "
    "binds, or reached only through them (scale also through a product with a "
    "constant, which no run forms): no certificate run builds a rational "
    "function, takes a polynomial gcd or divides two polynomials"
)
GCD = (
    "SpanBasis.insert's extended-gcd branch for two generators sharing a pivot, "
    "which the escape chain never takes; general input to the bench-bound "
    "z_span_membership reaches it"
)

# function (module.qualname) -> why no certificate run needs to enter it
ALLOWED = {
    "__main__.main_entry": ENTRY,
    "lattice._combine": GCD,
    "lattice._xgcd": GCD,
    "lattice.gram_rank": BENCH,
    "lattice.z_span_membership": BENCH,
    "scalars.Frozen.__hash__": DUNDER,
    "scalars.Frozen.__repr__": DUNDER,
    "scalars.Frozen.__setattr__": GUARD,
    "scalars.MultiPoly.__add__": RING,
    "scalars.MultiPoly.__hash__": DUNDER,
    "scalars.MultiPoly.__neg__": RING,
    "scalars.MultiPoly.__repr__": DUNDER,
    "scalars.MultiPoly.__sub__": RING,
    "scalars.MultiPoly.is_constant": BENCH + " (its poly_gcd hook)",
    "scalars.MultiPoly.substitute": BENCH,
    "scalars.MultiPoly.divide_rem": RATIONAL,
    "scalars.MultiPoly.exact_div": RATIONAL,
    "scalars.MultiPoly.leading": RATIONAL,
    "scalars.MultiPoly.leading_coefficient": RATIONAL,
    "scalars.MultiPoly.scale": RATIONAL,
    "scalars.MultiPoly.zero": RATIONAL,
    "scalars.RatFunc.__init__": RATIONAL,
    "scalars.RatFunc.__repr__": DUNDER,
    "scalars.RatFunc.__str__": RATIONAL,
    "scalars.RatFunc.var": RATIONAL,
    "scalars._monomial_gcd": RATIONAL,
    "scalars._quotient": RATIONAL,
    "scalars._exact_quot": BENCH + " (matrix_rank_det's integer division)",
    "scalars.matrix_rank_det": BENCH,
    "scalars.poly_gcd": RATIONAL,
}


def defined_functions() -> dict[tuple[str, int, str], tuple[str, int]]:
    """(file, first line, name) of each function -> (module.qualname, line count).

    The first line is that of the first decorator, as in the compiled
    code object's ``co_firstlineno``.
    """
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = f"{prefix}{child.name}"
                    out[(str(path), first, child.name)] = (
                        f"{module}.{qualname}",
                        child.end_lineno - first + 1,
                    )
                    visit(child, f"{qualname}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def exercise() -> None:
    """Every certificate run listed in the module docstring."""
    from autcert import __version__
    from autcert.__main__ import main
    from autcert.pipeline import STAGE_ORDER, CertificateReport, PipelineOptions, run_all, run_stage
    from autcert.surface import build_double_kummer, extend_with_conics

    for seed in range(12):
        run_all(PipelineOptions(seed=seed)).to_json()
    for name in STAGE_ORDER:
        run_stage(name).to_json_dict()
    x = extend_with_conics(build_double_kummer())
    n = len(x.labels)
    pairs = [(x.labels[i], x.labels[j]) for i in range(n) for j in range(i + 1, n) if x.gram[i][j]]
    assert len(pairs) == 52, len(pairs)
    for pair in pairs:
        options = PipelineOptions(corrupt_pair=pair)
        run_all(options).to_json()
        for name in STAGE_ORDER:
            run_stage(name, options).to_json_dict()
    options = PipelineOptions(max_gens=20)
    CertificateReport(__version__, options, (run_stage("nonfg", options),), "pass").to_json()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [
            (["all", "--out", f"{tmp}/report.json"], 0),
            (["nonfg", "--max-gens", "3"], 0),
            (["--stage-list"], 0),
            (["--help"], 0),
            (["quotient", "--corrupt-pair", "E2,C32"], 1),
            (["config", "--corrupt-pair", "E2,C32"], 1),
            ([], 2),
            (["nosuchstage"], 2),
            (["config", "--corrupt-pair", "E2"], 2),
            (["config", "--corrupt-pair", "E2,Q9"], 2),
            (["config", "--corrupt-pair", "E1,F1"], 2),
            (["all", "--max-gens", "0"], 2),
            (["canonical", "--out", f"{tmp}/missing/report.json"], 2),
        ]
        for argv, expected in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code == expected, (argv, code, expected)


def main() -> int:
    start = time.perf_counter()
    functions = defined_functions()
    prefix = str(PACKAGE) + "/"
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.path.insert(0, str(SRC))
    sys.settrace(trace)
    try:
        exercise()
    finally:
        sys.settrace(None)
    import autcert

    if Path(autcert.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"reach: imported autcert from {autcert.__file__}, not {PACKAGE}")

    missed = sorted(functions[key] for key in functions.keys() - entered)
    refused = [name for name, _ in missed if name not in ALLOWED]
    for name, lines in missed:
        print(f"{name:<40} {lines:>4} lines  {ALLOWED.get(name, 'NOT ON THE ALLOWLIST')}")
    stale = sorted(set(ALLOWED) - {name for name, _ in missed})
    for name in stale:
        print(f"{name:<40} STALE: entered now or no longer defined")
    print(
        f"{len(missed)} of {len(functions)} functions ({sum(n for _, n in missed)} lines) "
        f"never entered, {len(refused)} not on the allowlist, {len(stale)} stale entries, "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if refused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
