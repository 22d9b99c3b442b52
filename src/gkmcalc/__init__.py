"""Exact torus-equivariant cohomology of Schubert varieties.

The package builds combinatorial moment graphs for flag and Schubert
varieties in types A:n (n <= 8), B2, and G2, constructs their Knutson-Tao
(Schubert) bases by Billey's formula (checked against two independent
routes), applies the Weyl group action and divided difference operators to
equivariant classes, and verifies the trivial-summand decomposition of the
resulting representations.  All arithmetic is exact, over the rationals.
"""

from .polyring import (
    ExactDivisionError,
    Polynomial,
    divides,
    exact_divide,
    is_homogeneous,
    is_linear_form,
    parse_polynomial,
    poly_divided_difference,
    to_string,
)
from .coxeter import (
    Permutation,
    all_permutations,
    inversion_pairs,
    parse_permutation,
)
from .root_system import RootSystem, root_system, type_a
from .moment_graph import (
    Edge,
    GraphParseError,
    MomentGraph,
    build_flag_moment_graph,
    build_schubert_moment_graph,
    graph_to_dot,
    graph_to_json,
    is_palais_smale,
    load_external_graph,
    schubert_graph,
    toric_hexagon_graph,
    validate_axioms,
)
from .gkm import (
    EquivariantClass,
    KnutsonTaoBasis,
    SolveError,
    SpanError,
    check_gkm,
    class_from_json,
    class_to_json,
    expand_in_basis,
    expansion_from_json,
    expansion_to_json,
    expansions_equal,
    flag_basis,
    knutson_tao_class_billey,
    knutson_tao_class_descent,
    knutson_tao_class_solve,
    kt_report,
    point_class_top,
    restrict,
)
from .repaction import (
    AveragedClass,
    DecompositionReport,
    act,
    act_on_schubert_basis,
    act_word,
    average_class,
    decompose,
    divided_difference_closure,
    divided_difference_expansion,
    left_divided_difference,
    right_divided_difference,
    symmetrize,
)

__version__ = "0.1.0"
