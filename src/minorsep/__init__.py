"""Balanced vertex separators for minor-free graphs.

Computes a verified balanced separator of size O(n/ell + ell*h^2*log h)
for a K_h-minor-free graph, or a verified K_h minor witness when the
minor-freeness promise turns out to be false.
"""

from .errors import InputError, ModelError, SelfVerificationError
from .graph import (
    Graph,
    VertexMask,
    ball,
    bfs_layers,
    build_graph,
    connected_components,
    tree_path,
)
from .decomp import LddResult, ldd
from .instances import (
    FAMILIES,
    InstanceSpec,
    generate,
    graph_to_text,
    read_edge_list,
    write_edge_list,
)
from .minor_model import (
    MinorModel,
    add_branch,
    branch_neighbors,
    f_selector,
    grow_branch,
    new_model,
    trim,
)
from .rng import SplitMix64, derive_seed, stream
from .separator import (
    BalancedSeparator,
    MinorWitness,
    SeparatorOutcome,
    balanced_separator,
    ceil_log2,
    default_ell,
)
from .verify import (
    VerificationReport,
    certificate,
    check_invariants,
    verify_balanced,
    verify_certificate,
    verify_witness,
    witness_from_json,
)

__version__ = "0.1.0"
