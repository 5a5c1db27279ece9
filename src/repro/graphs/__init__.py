"""Graph substrate: CSR graphs, generators, products, and checks."""

from .._lazy import lazy_exports

# shares its submodule's name, so it cannot be lazy (see repro._lazy)
from .grid import grid as grid

#: the constructors a sweep or a stored cell may name as its graph:
#: each builds a graph (or an implicit oracle) from scalar parameters.
#: ``repro.store.spec.resolve_graph_builder`` accepts only these names.
GRAPH_BUILDERS = (
    "balanced_binary_tree",
    "barbell",
    "chung_lu_powerlaw",
    "circulant",
    "circulant_oracle",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "grid",
    "hypercube",
    "hypercube_oracle",
    "kary_tree",
    "kneser_graph",
    "kronecker",
    "kronecker_oracle",
    "lollipop",
    "path_graph",
    "petersen",
    "random_geometric",
    "random_regular",
    "star_graph",
    "torus",
    "torus_oracle",
)

__all__, __getattr__, __dir__ = lazy_exports(__name__, (
    (".base", ("Graph", "sample_uniform_neighbors")),
    (".builders", ("from_edge_list", "from_networkx")),
    (".checks", (
        "bfs_distances",
        "connected_components",
        "diameter",
        "eccentricity",
        "is_bipartite",
        "is_connected",
        "shortest_path",
        "weighted_inverse_degree_distance",
    )),
    (".classic", (
        "barbell",
        "complete_bipartite",
        "complete_graph",
        "cycle_graph",
        "lollipop",
        "path_graph",
        "star_graph",
    )),
    (".expanders", ("circulant", "hypercube", "random_regular")),
    (".grid", ("grid", "grid_coords", "grid_manhattan", "grid_vertex", "torus")),
    (".implicit", (
        "IMPLICIT_TOPOLOGIES",
        "CirculantOracle",
        "CSRNeighborOracle",
        "HypercubeOracle",
        "KroneckerOracle",
        "NeighborOracle",
        "TorusOracle",
        "as_oracle",
        "circulant_oracle",
        "hypercube_oracle",
        "kronecker",
        "kronecker_oracle",
        "to_csr",
        "torus_oracle",
    )),
    (".named", ("kneser_graph", "petersen")),
    (".product", (
        "WaltPairChain",
        "cartesian_product",
        "tensor_product",
        "walt_pair_chain",
    )),
    (".random_graphs", ("chung_lu_powerlaw", "largest_component", "random_geometric")),
    (".trees", ("balanced_binary_tree", "kary_tree", "kary_tree_depth")),
))
