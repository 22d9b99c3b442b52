"""Knutson-Tao (Schubert) classes, constructed two independent ways.

The descent route peels divided differences from the point class at the
top of the flag graph; the solve route determines each localization from
the edge divisibility constraints by a remainder-theorem recursion.  They
must agree, and restriction to any Schubert variety preserves the basis.
"""

from gkmcalc import (
    KnutsonTaoBasis,
    build_flag_moment_graph,
    build_schubert_moment_graph,
    check_gkm,
    class_to_json,
    flag_basis,
    knutson_tao_class_solve,
    kt_report,
    restrict,
    root_system,
    to_string,
    type_a,
)

rs = type_a(3)
g = build_flag_moment_graph(rs)
basis = flag_basis(rs)

print("== the Knutson-Tao basis of the S_3 flag graph ==")
for v in g.vertices:
    cls = basis.cls(v)
    row = ", ".join(
        f"{g.vertex_str(u)}: {to_string(p)}" for u, p in cls.items()
    )
    print(f"class of {g.vertex_str(v)} ({v.cycle_str():>5}):  {row}")

print("\nevery class satisfies the GKM and Knutson-Tao conditions:")
print(all(kt_report(basis.cls(v)).ok for v in g.vertices))

print("\n== route equivalence ==")
for v in g.vertices:
    assert knutson_tao_class_solve(g, v) == basis.cls(v)
print("descent route == solve route for all six classes")

print("\n== restriction to a Schubert variety ==")
w = rs.parse_element("231")
xg = build_schubert_moment_graph(rs, w)
xb = KnutsonTaoBasis(xg)  # restricts the flag classes
for v in xg.vertices:
    cls = xb.cls(v)
    assert kt_report(cls).ok
    row = ", ".join(f"{xg.vertex_str(u)}: {to_string(p)}" for u, p in cls.items())
    print(f"restricted class of {xg.vertex_str(v)}:  {row}")

print("\n== general type (B2) ==")
rsb = root_system("B2")
gb = build_flag_moment_graph(rsb)
bb = flag_basis(rsb)
s1 = rsb.simple_reflection(1)
cls = bb.cls(s1)
print("class of s1 on the B2 flag graph (variables a1, a2):")
for u, p in cls.items():
    print(f"  {gb.vertex_str(u):>4}: {to_string(p, 'a')}")
print(f"GKM check: {check_gkm(cls).ok}")

print("\nJSON form of a class:")
import json

print(json.dumps(class_to_json(basis.cls(rs.parse_element('213'))), indent=2, sort_keys=True))
