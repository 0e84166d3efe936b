"""Gaussian double Markovian models M(G, H).

A pair of graphs on a common vertex set constrains a positive definite
matrix twice over: the inverse must vanish off G and the matrix itself off
H.  The package provides the combinatorial CI calculus of such pairs, the
symmetric-matrix layer, numerical model geometry, the monomial ideal of
the unique-path case, and classification plus enumeration for small
inputs.
"""

from .errors import BudgetExceeded, NotPositiveDefinite, PathCapExceeded, UniquePathRequired
from .graphs import (
    Graph,
    all_paths,
    complement,
    complete_graph,
    connected_components,
    conditional_minor,
    direct_sum,
    edge_intersection,
    edge_union,
    empty_graph,
    marginal_minor,
    separates,
)
from .ci import (
    Relation,
    Statement,
    canonical_form,
    check_axioms,
    closure,
    conditional,
    direct_sum_relations,
    double_markov_relation,
    dual,
    full_relation,
    make_statement,
    marginal,
    recognize_markov,
    relation_of_graph,
)
from .matrices import (
    almost_principal_minor,
    conditional_matrix,
    direct_sum_matrix,
    hadamard,
    inverse,
    is_pd,
    marginal_matrix,
    membership_residual,
    rational_matrix,
    relation_of_matrix,
    to_correlation,
)
from .geometry import (
    connectedness_certificate,
    decompose,
    dimension_bound,
    find_model_point,
    hadamard_shrink,
    is_transverse_at,
    local_tangent_dimension,
    stacked_jacobian,
    tangent_basis_concentration,
)
from .ideal import (
    MonomialIdeal,
    PathTerm,
    SparsePolynomial,
    inverse_graphical_recognition,
    minimal_primes,
    path_expansion,
    sci_monomial_generators,
    symbolic_apm,
    unique_path_hypothesis,
)
from .classify import (
    ModelDescription,
    classify_small_intersection,
    enumerate_inequivalent,
    sample_from_family,
)

__version__ = "0.1.0"
