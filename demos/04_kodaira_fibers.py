"""
Kodaira fibers: validation and classification from dual graphs
==============================================================

A candidate fiber is a multiset of (-2)-curves with multiplicities.
Validation checks the numerical fiber axioms; classification validates,
then matches the weighted dual graph against the Kodaira types and,
for a cycle of type I_n, lists its components in cyclic order.
"""

from autcert.fibration import (
    FiberDivisor,
    classify_kodaira,
    euler_number,
    map_fiber,
    shioda_tate_rank,
    validate_fiber,
)
from autcert.surface import (
    build_double_kummer,
    epsilon_involution,
    extend_with_conics,
    quotient_pushforward,
    verify_isometry,
)

x = extend_with_conics(build_double_kummer())
eps = epsilon_involution(x)
z = quotient_pushforward(x, eps, verify_isometry(x, eps))

# The eight-curve cycle upstairs is an I8 fiber.
n1 = FiberDivisor.of(("E2", "C32", "F3", "C31", "E1", "C41", "F4", "C42"))
print("valid:", validate_fiber(x, n1).passed)
fc = classify_kodaira(x, n1)
print("N1 type:", fc.fiber_type, " euler:", euler_number(fc.fiber_type))

# The seven-curve star with center multiplicity 3 is a IV*.
n2 = FiberDivisor(
    {"E2": 1, "C32": 2, "E1": 1, "C31": 2, "E4": 1, "C34": 2, "F3": 3}
)
print("N2 type:", classify_kodaira(x, n2).fiber_type)

# The involution image classifies identically on disjoint support.
image = map_fiber(n1, eps.curve_map)
print("eps(N1):", tuple(image.labels()), "->", classify_kodaira(x, image).fiber_type)

# Downstairs the pushed-forward divisors have the same types.
m1 = FiberDivisor.of(("H2", "D32", "H3", "D31", "H1", "D41", "H4", "D42"))
m2 = FiberDivisor(
    {"H2": 1, "D32": 2, "H1": 1, "D31": 2, "H4": 1, "D43": 2, "H3": 3}
)
fm1 = classify_kodaira(z, m1)
print("M1 type:", fm1.fiber_type)
print("M2 type:", classify_kodaira(z, m2).fiber_type)
print("M1 cycle:", fm1.cycle)

# Shioda-Tate: Picard number 18 and two I8 fibers leave rank 2.
print("MW rank upstairs:", shioda_tate_rank(18, [classify_kodaira(x, n1).fiber_type] * 2))
