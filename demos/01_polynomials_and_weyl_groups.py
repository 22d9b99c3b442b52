"""Exact polynomial arithmetic and Weyl-group combinatorics.

Everything in this package runs over exact rationals: polynomials are
sparse maps from exponent vectors to fractions, and Weyl group elements
are permutations (type A) or root-list permutations (B2, G2).
"""

from gkmcalc import (
    Polynomial,
    divides,
    exact_divide,
    parse_permutation,
    poly_divided_difference,
    root_system,
    to_string,
    type_a,
)

t1, t2, t3 = (Polynomial.variable(3, i) for i in (1, 2, 3))

print("== exact polynomial arithmetic ==")
p = (t1 - t2) * (t1 - t3)
print(f"(t1 - t2)(t1 - t3) = {p}")
print(f"divisible by t1 - t2? {divides(t1 - t2, p)}")
print(f"quotient: {exact_divide(p, t1 - t2)}")
print(f"divided difference of t1*t2 in direction 1: {poly_divided_difference(t1 * t2, 1)}")

print()
print("== permutations and inversion sets ==")
rs = type_a(3)
for name in ("213", "231", "321"):
    w = parse_permutation(name)
    forms = sorted(to_string(rs.root_form(r)) for r in rs.inversions(w))
    print(
        f"w = {name} {w.cycle_str():>6}: length {rs.length(w)}, "
        f"reduced word {rs.reduced_word(w)}, inversions {forms}"
    )

print()
print("== root systems ==")
for label in ("A:3", "B2", "G2"):
    rs = root_system(label)
    print(
        f"{label}: rank {rs.rank}, Weyl order {len(rs.elements())}, "
        f"positive roots {[list(r) for r in rs.positive_roots]}"
    )
    a1, a2 = rs.simple_roots[:2]
    print(f"   s_[alpha1](alpha2) = {list(rs.reflect(a1, a2))}")

rs = type_a(3)
w0 = rs.longest_element()
print(f"\nlongest element of S_3: {rs.element_str(w0)}, word {rs.reduced_word(w0)}")
print(f"lower Bruhat interval of 231: "
      f"{sorted(rs.element_str(v) for v in rs.lower_interval(rs.parse_element('231')))}")
