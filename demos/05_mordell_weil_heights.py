"""
Mordell-Weil heights: torsion sections and the narrow lattice
=============================================================

Heights come from the defining formula 2*chi + 2*(P.O) minus local
correction terms read off the fiber component a section meets.  All
section data here is extracted from the exact intersection table.
"""

from autcert.cremona import scaling
from autcert.fibration import FiberDivisor, KodairaType, classify_kodaira, map_fiber
from autcert.mwl import ModInt, SectionData, height, section_from_config
from autcert.scalars import laurent_text
from autcert.surface import build_double_kummer, epsilon_involution, extend_with_conics

x = extend_with_conics(build_double_kummer())
eps = epsilon_involution(x)

n1 = FiberDivisor.of(("E2", "C32", "F3", "C31", "E1", "C41", "F4", "C42"))
n1eps = map_fiber(n1, eps.curve_map)
# each I8 fiber enters as its component cycle, oriented canonically
cycles = [("N1", classify_kodaira(x, n1).cycle), ("N1eps", classify_kodaira(x, n1eps).cycle)]
# the two I8 fibers of an elliptic K3 surface, chi = 2
i8 = KodairaType("I", 8)
fibers = (("N1", i8), ("N1eps", i8))

# C12 against the zero section C21: height 0, hence torsion.
c12 = section_from_config(x, cycles, "C12", "C21")
print("C12 components:", {k: str(v) for k, v in c12.components.items()})
print("height(C12) =", height(2, fibers, c12), " torsion:", height(2, fibers, c12) == 0)

# C11 has height 2; its component index in the 8-cycle is 0.
c11 = section_from_config(x, cycles, "C11", "C21")
print("height(C11) =", height(2, fibers, c11))

# The index sum of C11 and C2 in the cycle is 4 mod 8.
idx_c11 = section_from_config(x, cycles[:1], "C11", "C21").components["N1"]
idx_c2 = section_from_config(x, cycles[:1], "C2", "C21").components["N1"]
print("index sum:", idx_c11 + idx_c2)

# A narrow section of a IV* fibration on a rational surface meets the
# identity component, 0 in the component group Z/3: height 2.
# The rational surface has chi = 1.
narrow = SectionData("P", 0, {"M2": ModInt(0, 3)})
print("narrow height:", height(1, (("M2", KodairaType("IV*")),), narrow))

# The induced smooth-locus action (x, m) -> (t x, m + 4): its square
# scales by t^2 and shifts by 4 + 4 = 0 mod 8.
t = scaling({1: 1})
shift = ModInt(4, 8)
print("square:", laurent_text(dict([t.compose(t).scale])), ",", shift + shift)
