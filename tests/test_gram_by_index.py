"""The Gram-index kernels against label-keyed reference copies.

``validate_fiber`` and the pushforward read Gram rows by index.  The
references below read every entry through ``Configuration.pairing`` and
``self_int``, one label pair at a time, and must give the same reports,
neighbour sets, Grams and errors.  The cycles ``classify_kodaira``
reads off the neighbour sets are checked through ``pairing`` too, and
each component's Gram index through the label tuple.
"""

import random

from autcert.fibration import FiberDivisor, FiberReport, classify_kodaira, validate_fiber
from autcert.lattice import is_connected
from autcert.surface import (
    Configuration,
    build_double_kummer,
    epsilon_involution,
    extend_with_conics,
    quotient_pushforward,
    verify_isometry,
    with_intersection,
)

from test_fibration import M1, M2, N1, N2


# -- label-keyed references ---------------------------------------------------------


def reference_validate(config, fiber):
    comps = fiber.components
    failures = []
    for lab in comps:
        if config.self_int(lab) != -2:
            failures.append(f"{lab} has self-intersection {config.self_int(lab)}")
    for lab in comps:
        against = sum(m * config.pairing(b, lab) for b, m in comps.items())
        if against != 0:
            failures.append(f"{lab} meets the fiber: {against}")
    square = sum(
        ma * mb * config.pairing(a, b) for a, ma in comps.items() for b, mb in comps.items()
    )
    if square != 0:
        failures.append(f"fiber square: {square}")
    adj = {a: {b for b in comps if b != a and config.pairing(a, b)} for a in comps}
    if not is_connected(adj):
        failures.append("support disconnected")
    indexed = {lab: (config.labels.index(lab), m) for lab, m in comps.items()}
    return FiberReport(not failures, tuple(failures), adj, indexed)


def orbit(name):
    """The two upstairs curves of a quotient class."""
    if name.startswith("H"):
        return (f"E{name[1]}", f"F{name[1]}")
    i, j = name[1], name[2]
    return (f"C{i}{i}", f"C{i}") if i == j else (f"C{i}{j}", f"C{j}{i}")


def orbit_sums(config, names):
    """The four upstairs pairings of each pair of orbits, summed."""
    return [
        [sum(config.pairing(a, b) for a in orbit(na) for b in orbit(nb)) for nb in names]
        for na in names
    ]


def outcome(func, *args):
    try:
        return func(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# -- fibers ------------------------------------------------------------------------------


X = extend_with_conics(build_double_kummer())
EPS = epsilon_involution(X)
Z = quotient_pushforward(X, EPS, verify_isometry(X, EPS))

NAMED = [(X, N1.components), (X, N2.components), (Z, M1.components), (Z, M2.components)]


def bent(config, rng):
    """The configuration with a few self-intersections and pairings redrawn."""
    gram = [list(row) for row in config.gram]
    n = len(gram)
    for _ in range(3):
        i = rng.randrange(n)
        gram[i][i] = rng.choice((-3, -1, 0))
        i, j = rng.sample(range(n), 2)
        gram[i][j] = gram[j][i] = rng.choice((0, 1, 2))
    return Configuration("Z_Enriques", config.labels, gram)


def random_fiber(config, rng):
    """A divisor over config: a named fiber nudged, or random curves."""
    named = [comps for c, comps in NAMED if c.labels == config.labels]
    if named and rng.random() < 0.4:
        comps = dict(rng.choice(named))
        if rng.random() < 0.5:
            comps[rng.choice(sorted(comps))] += 1
        if rng.random() < 0.3:
            del comps[rng.choice(sorted(comps))]
            comps = comps or {config.labels[0]: 1}
    else:
        picked = rng.sample(config.labels, rng.randint(1, 9))
        comps = {lab: rng.choice((1, 1, 1, 2, 3)) for lab in picked}
    return FiberDivisor(comps)


def assert_cycle_order(config, fiber, cycle):
    """cycle lists the fiber's components once each, consecutive ones
    meeting, from the least label and first to its smaller neighbour."""
    assert sorted(cycle) == sorted(fiber.components)
    n = len(cycle)
    assert all(config.pairing(cycle[k], cycle[(k + 1) % n]) > 0 for k in range(n))
    assert cycle[0] == min(cycle) and cycle[1] <= cycle[-1]


# the text that tells each of validate_fiber's four failures apart
SHAPES = ("has self-intersection", "meets the fiber", "fiber square", "support disconnected")


def test_index_kernels_match_label_keyed_references():
    rng = random.Random(20190420)
    configs = [X, Z, *(bent(c, rng) for c in (X, Z, Z))]
    seen = set()
    for config in configs:
        for _ in range(300):
            fiber = random_fiber(config, rng)
            expected = reference_validate(config, fiber)
            assert validate_fiber(config, fiber) == expected
            seen.update(shape for f in expected.failures for shape in SHAPES if shape in f)
            seen.add("pass" if expected.passed else "fail")
            if expected.passed and set(fiber.components.values()) == {1}:
                assert_cycle_order(config, fiber, classify_kodaira(config, fiber).cycle)
                seen.add("cycle")
    assert seen == {"pass", "fail", "cycle", *SHAPES}


# -- pushforward -------------------------------------------------------------------------


def test_pushforward_matches_label_keyed_reference_under_every_fault():
    n = len(X.labels)
    faults = [(X.labels[i], X.labels[j]) for i in range(n) for j in range(i + 1, n) if X.gram[i][j]]
    assert len(faults) == 52
    rng = random.Random(20190421)
    doubles = [rng.sample(faults, 2) for _ in range(40)]
    # a fault together with its image under the involution keeps it an isometry
    equivariant = [[pair, (EPS.apply(pair[0]), EPS.apply(pair[1]))] for pair in faults]
    pushed = 0
    for pairs in [[]] + [[pair] for pair in faults] + doubles + equivariant:
        config = X
        for pair in pairs:
            config = with_intersection(config, *pair, 0)
        report = verify_isometry(config, EPS)
        if not report.passed:
            witness = f"the involution fails the isometry check: {report.failures[0]}"
            expected = ("ValueError", witness)
            assert outcome(quotient_pushforward, config, EPS, report) == expected, pairs
            continue
        # for an isometric involution with orbits {a, a'} and {b, b'} the sum
        # is 2((a.b) + (a.b')), so the pushforward's halving is exact
        sums = orbit_sums(config, Z.labels)
        assert all(v % 2 == 0 for row in sums for v in row), pairs
        halved = tuple(tuple(v // 2 for v in row) for row in sums)
        assert quotient_pushforward(config, EPS, report).gram == halved, pairs
        pushed += 1
    # exactly the unfaulted Gram and the equivariant double faults pass:
    # the 52 built as such and the random doubles that happen to be one
    lucky = sum({EPS.apply(a) for a in p} == set(q) for p, q in doubles)
    assert lucky and pushed == 1 + 52 + lucky
