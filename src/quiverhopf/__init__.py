"""Necklace coalgebras, chord-diagram calculus, and renormalization-style
Hopf algebras for quiver paths, with exhaustive small-instance verification.
"""

from .linear import (
    LinComb,
    Monomial,
    Scalar,
    Tensor,
    Word,
    skew,
    tensor,
)
from .quiver import (
    Letter,
    Necklace,
    ParseError,
    Path,
    Quiver,
    all_necklaces,
    all_paths,
    omega,
    rotate,
)
from .cobrackets import delta_or, delta_p_rt, delta_rt
from .cuts import (
    Cut,
    NecklaceDiagram,
    PathDiagram,
    chord_coproduct,
    chord_delta_or,
    chord_delta_p_rt,
    cut_order,
    enumerate_cuts,
    epsilon,
    remove_chords,
)
from .trees import (
    OrientedTree,
    RootedTree,
    all_oriented_trees,
    all_rooted_trees,
    oriented_from_rooted,
    rho,
    rho_ss,
    rho_ss_oriented,
    tree_coproduct,
)
from .dual import d_or, d_rt, dual_oriented_tree, dual_rooted_tree
from .hopf import (
    eta_or,
    eta_rt,
    nc_coproduct,
    path_antipode,
    path_coproduct,
    s_or,
    s_rt,
)
from .bridge import (
    CoproductLayers,
    compare_coproducts,
    delta0_prime,
    extract_prelie,
    path_degree,
    reconstruct_coproduct,
    tree_degree,
)
from .verify import (
    Report,
    verify_coalgebra_morphism,
    verify_hopf_morphism,
    verify_injectivity,
    verify_lie_coalgebra,
    verify_prelie_coalgebra,
)

__version__ = "0.1.0"
