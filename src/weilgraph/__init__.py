"""Graph homology pairings, double covers, and chip-firing torsion.

The package studies three faces of the same bilinear form on a finite
multigraph: the mod-2 intersection pairing between cycles and cocycles,
its geometric shadow in how cycles lift through double covers, and the
torsion it controls in critical groups of subdivided graphs and in
two-torsion of decorated (vertex genus, edge stabilizer) models.
"""

from .cover import (
    DoubleCover,
    build_double_cover,
    cover_to_dot,
    lift_cycle,
    pairing_via_cover,
)
from .curvemodel import (
    TwistedCurveModel,
    TwoTorsionClass,
    WeilFormModel,
)
from .documents import DocumentError, InputDocument, Report
from .graphs import (
    MultiGraph,
    bouquet_graph,
    cycle_graph,
    dumbbell_graph,
    path_graph,
    theta_graph,
)
from .homology import (
    Chain0,
    Chain1,
    Cochain0,
    Cochain1,
    HomologyBasis,
    graph_pairing,
    homology_basis,
    is_perfect_pairing,
    is_simple_cycle,
    pairing_gram,
)
from .linalg import GF2Matrix, IntMatrix, SmithForm, smith_normal_form
from .sandpile import (
    CriticalGroup,
    Divisor,
    TorsionReport,
    critical_group,
    dhar_reduce,
    divisors_equivalent,
    laplacian,
    reduced_laplacian,
    spanning_tree_count,
    verify_torsion_on_subdivision,
)
from .sweeps import (
    SweepResult,
    all_cochains,
    all_simple_cycles,
    connected_multigraphs,
    model_sweep,
    pairing_equivalence_sweep,
    perfect_pairing_sweep,
    torsion_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Chain0",
    "Chain1",
    "Cochain0",
    "Cochain1",
    "CriticalGroup",
    "Divisor",
    "DocumentError",
    "DoubleCover",
    "GF2Matrix",
    "HomologyBasis",
    "InputDocument",
    "IntMatrix",
    "MultiGraph",
    "Report",
    "SmithForm",
    "SweepResult",
    "TorsionReport",
    "TwistedCurveModel",
    "TwoTorsionClass",
    "WeilFormModel",
    "all_cochains",
    "all_simple_cycles",
    "bouquet_graph",
    "build_double_cover",
    "connected_multigraphs",
    "cover_to_dot",
    "critical_group",
    "cycle_graph",
    "dhar_reduce",
    "divisors_equivalent",
    "dumbbell_graph",
    "graph_pairing",
    "homology_basis",
    "is_perfect_pairing",
    "is_simple_cycle",
    "laplacian",
    "lift_cycle",
    "model_sweep",
    "pairing_equivalence_sweep",
    "pairing_gram",
    "pairing_via_cover",
    "path_graph",
    "perfect_pairing_sweep",
    "reduced_laplacian",
    "smith_normal_form",
    "spanning_tree_count",
    "theta_graph",
    "torsion_sweep",
    "verify_torsion_on_subdivision",
]
