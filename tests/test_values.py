"""The package's value types and records: immutable, slotted, and cheap to import.

Value types are ``scalars.Frozen`` subclasses and one-caller result
records are ``NamedTuple``s; neither needs ``dataclasses``, whose import
pulls in ``inspect`` and whose class building dominated the start-up of
a fresh ``autcert`` process.  The CLI's ``argparse`` stays out of the
pipeline's import tree too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from autcert.cremona import (
    QuadricForm,
    RationalMapP3,
    conjugate_translation,
    cremona_map,
    verify_pij_swap,
)
from autcert.fibration import FiberDivisor, KodairaType, classify_kodaira, validate_fiber
from autcert.fingen import certify_nonfg
from autcert.lattice import RootType
from autcert.mwl import ModInt, SectionData
from autcert.pipeline import PipelineOptions, _stringify, run_all, run_stage
from autcert.scalars import MultiPoly, RatFunc
from autcert.surface import (
    INFINITY,
    BlowupLedger,
    Configuration,
    build_double_kummer,
    epsilon_involution,
    extend_with_conics,
    quotient_pushforward,
    verify_isometry,
)

from conftest import shifts

SRC = Path(__file__).resolve().parent.parent / "src"


def test_pipeline_import_loads_no_dataclasses_inspect_or_argparse():
    # the CLI parser lives in autcert.__main__, so a library import of the
    # pipeline loads no argparse (nor the gettext it pulls in)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import autcert.pipeline; "
        "print(autcert.pipeline.__file__); "
        "print(sorted({'argparse', 'dataclasses', 'gettext', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)], check=True, capture_output=True, text=True
    ).stdout.splitlines()
    assert SRC in Path(out[0]).resolve().parents
    assert out[1] == "[]"


def test_no_run_builds_a_rational_function():
    # the marking coordinates are plain polynomials: a fresh interpreter whose
    # RatFunc, poly_gcd and polynomial division all raise still imports the
    # pipeline and finishes a clean run and a faulted one
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from autcert import scalars\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('a rational-function kernel ran')\n"
        "scalars.RatFunc.__init__ = scalars.poly_gcd = scalars.MultiPoly.divide_rem = refuse\n"
        "from autcert.pipeline import PipelineOptions, run_all\n"
        "print(run_all().verdict, run_all(PipelineOptions(corrupt_pair=('E2', 'C32'))).verdict)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)], check=True, capture_output=True, text=True
    ).stdout
    assert out == "pass fail\n"


def x_config():
    return extend_with_conics(build_double_kummer())


def z_config():
    x = x_config()
    eps = epsilon_involution(x)
    return quotient_pushforward(x, eps, verify_isometry(x, eps))


def kummer_copy():
    k = build_double_kummer()
    return Configuration(k.tag, k.labels, k.gram, k.markings)


def n1():
    return FiberDivisor.of(("E2", "C32", "F3", "C31", "E1", "C41", "F4", "C42"))


# each converted class: a factory of fresh instances, and whether they hash;
# an instance holding a dict is unhashable, as it was as a frozen dataclass.
# cremona_map(), QuadricForm.standard() and build_double_kummer() return one
# value built at import, so their factories build a new instance from its parts
VALUES = {
    "RationalMapP3": (lambda: RationalMapP3(cremona_map().components), True),
    "QuadricForm": (lambda: QuadricForm(QuadricForm.standard().poly), True),
    "SwapReport": (lambda: verify_pij_swap((9, 2, 2), cremona_map()), True),
    "AffineMap": (lambda: conjugate_translation({4: 1}), True),
    "ModInt": (lambda: ModInt(11, 8), True),
    "SectionData": (lambda: SectionData("P", 0, {"M2": ModInt(0, 3)}), False),
    "RootType": (lambda: RootType("A", 2), True),
    "EscapeStage": (lambda: certify_nonfg(shifts(2)).stages[1], False),
    "NonFGCertificate": (lambda: certify_nonfg(shifts(2)), False),
    "KodairaType": (lambda: KodairaType("IV*"), True),
    # a marking coordinate, as the construction table holds t
    "MultiPoly": (lambda: MultiPoly.var("t"), True),
    "FiberDivisor": (n1, False),
    "FiberReport": (lambda: validate_fiber(x_config(), n1()), False),
    "FiberClass": (lambda: classify_kodaira(x_config(), n1()), True),
    "Configuration": (kummer_copy, False),
    "IsometryPerm": (lambda: epsilon_involution(x_config()), False),
    "IsometryReport": (lambda: verify_isometry(x_config(), epsilon_involution(x_config())), True),
    "BlowupLedger": (lambda: BlowupLedger(z_config()), False),
    "PipelineOptions": (lambda: PipelineOptions(seed=3, corrupt_pair=("E2", "C32")), True),
    "StageResult": (lambda: run_stage("canonical"), False),
    "CertificateReport": (lambda: run_all(PipelineOptions(max_gens=1)), False),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_type_contract(name):
    build, hashable = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == b and a is not b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert not hasattr(a, "__dict__")
    field = (getattr(a, "_fields", None) or type(a).__slots__)[0]
    value = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = None
    assert getattr(a, field) is value and a == b


@pytest.mark.parametrize(
    "leaf", [ModInt(4, 8), KodairaType("I", 8), KodairaType("IV*"), RootType("A", 2)], ids=str
)
def test_leaf_values_are_written_by_their_str(leaf):
    assert not isinstance(leaf, tuple)
    assert _stringify(leaf) == str(leaf)
    assert _stringify({"x": [leaf, None]}) == {"x": [str(leaf), None]}


def test_rational_and_projective_values_compare_by_their_slots():
    # RatFunc takes equality and hash from Frozen's public slots
    t = MultiPoly.var("t")
    assert RatFunc(t) != t and RatFunc(t) != RatFunc(t, 2)
    # equal values from different spellings hash alike
    for a, b in (
        (RatFunc(t * t - t, t), RatFunc(t - 1)),
        (RatFunc(2 * t, 4 * t * t), RatFunc(1, 2 * t)),
        (MultiPoly.var("t"), MultiPoly(("t",), {(1,): 1})),
    ):
        assert a == b and a is not b and hash(a) == hash(b)
    # a point of a pencil's line is a polynomial or the one point at infinity,
    # which equals only itself and is written "inf"
    coords = [MultiPoly.const(0), MultiPoly.const(1), t, MultiPoly.var("s"), INFINITY]
    assert [a == b for a in coords for b in coords] == [
        i == j for i in range(5) for j in range(5)
    ]
    assert [str(c) for c in coords] == ["0", "1", "t", "s", "inf"] and repr(INFINITY) == "inf"
