"""The series-powers coalgebra on Z words and what it computes."""

from hopftower import crn_invariant, cumulant_series, z
from hopftower.algebroid import right_unit_functional
from hopftower.diffeo import bfk_abelianize, bfk_antipode, bfk_coproduct
from hopftower.nsym import antipode as binomial_antipode

print("== one algebra, two coalgebras ==")
print("binomial antipode:      S(Z[3]) =", binomial_antipode(z(3)))
print("series-powers antipode: S(Z[3]) =", bfk_antipode(z(3)))

print()
print("== the series-powers coproduct is not cocommutative ==")
d3 = bfk_coproduct(z(3))
print("coproduct of Z[3]:")
print("  ", d3)
print("swapped copy differs:", d3.swap_slots(0, 1) != d3)

print()
print("== it abelianizes onto the diffeomorphism antipode ==")
for n in (2, 3, 4):
    print("  S(Z[%d]) |-> %s" % (n, bfk_abelianize(bfk_antipode(z(n)))))

print()
print("== curried coproduct: pairing away the right leg ==")
print("right leg M[1] of coproduct Z[2]:", right_unit_functional(z(2), (1,)))
print("right leg M[1] of coproduct Z[3]:", right_unit_functional(z(3), (1,)))
print("right leg M[2] of coproduct Z[3]:", right_unit_functional(z(3), (2,)))

print()
print("== cumulants and the composition-sum invariant ==")
print("cumulant series:", cumulant_series(4))
for k in (1, 2, 3, 4):
    inv = crn_invariant(k)
    print("weight %d invariant has %2d unit terms: %s"
          % (k, len(inv.terms), inv if k < 4 else "..."))
