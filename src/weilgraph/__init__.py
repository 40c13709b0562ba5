"""Graph homology pairings, double covers, and chip-firing torsion.

The package studies three faces of the same bilinear form on a finite
multigraph: the mod-2 intersection pairing between cycles and cocycles,
its geometric shadow in how cycles lift through double covers, and the
torsion it controls in critical groups of subdivided graphs and in
two-torsion of decorated (vertex genus, edge stabilizer) models.

Each public name is declared once, in its module's ``__all__``; the
package re-exports those names.
"""

from . import cover, curvemodel, documents, graphs, homology, linalg, sandpile, sweeps
from .cover import *
from .curvemodel import *
from .documents import *
from .graphs import *
from .homology import *
from .linalg import *
from .sandpile import *
from .sweeps import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (cover, curvemodel, documents, graphs, homology, linalg, sandpile, sweeps)
    for name in module.__all__
)
