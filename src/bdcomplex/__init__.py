"""Bounded degree complexes of graphs: construction, homotopy types, and an
exact homology oracle."""

from .caterpillar import caterpillar_closed_form, cycle_reduce
from .complexes import (
    DEFAULT_FACE_CAP,
    SimplicialComplex,
    build_complex,
    edge_face_counts,
    excised_cells,
)
from .graph import (
    CaterpillarSpec,
    Graph,
    GraphComponent,
    Record,
    canonical_code,
    components,
    disjoint_union,
    gen_caterpillar,
    gen_cycle,
    gen_path,
    is_forest,
    make_graph,
    nonisomorphic_forests,
    nonisomorphic_trees,
    random_forest,
    random_tree,
    validate_bounds,
)
from .homology import (
    HomologyProfile,
    IntegerMatrix,
    boundary_matrix,
    graph_homology,
    reduced_homology,
    relative_homology,
    smith_normal_form,
    wedge_profile,
)
from .recursion import (
    counts_normalize,
    join_convolve,
    simplify,
    sphere_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
