"""Group averaging and the trivial-summand decomposition.

Averaging a basis class over the whole Weyl group produces an invariant
class whose expansion is unitriangular; together these show that the
equivariant cohomology of any Schubert variety splits into trivial
representations, one per fixed point, in degrees given by length.  Setting
all variables to zero makes the action the identity on every basis class,
so the ordinary-cohomology representation is trivial outright.
"""

from gkmcalc import (
    average_class,
    build_flag_moment_graph,
    build_schubert_moment_graph,
    decompose,
    root_system,
    to_string,
    type_a,
)

rs = type_a(3)
g = build_flag_moment_graph(rs)

print("== group averages of basis classes (S_3 flag graph) ==")
for v in g.vertices:
    avg = average_class(v, g)
    shown = {g.vertex_str(u): to_string(p) for u, p in sorted(
        avg.items(), key=lambda kv: g.vertex_str(kv[0])
    )}
    print(f"average of class {g.vertex_str(v)}: {shown}")

print("\n== decomposition report for the full flag variety ==")
print(decompose(g).table())

print("== decomposition report for the singular variety below 231 ==")
xg = build_schubert_moment_graph(rs, rs.parse_element("231"))
print(decompose(xg).table())

print("== general type: the G2 flag variety ==")
rsg = root_system("G2")
rep = decompose(build_flag_moment_graph(rsg))
print(f"poincare coefficients: {rep.poincare}")
print(f"all invariance/triangularity/mod-variable checks pass: {rep.ok}")
