"""coxhull: exact planar Coxeter tessellations and Cayley-graph hulls.

The package realizes the three planar triangle groups (orders {3,3,3},
{2,4,4}, {2,3,6}) and the infinite dihedral line model with exact
arithmetic, computes convex hulls in their Cayley graphs by two
geometric algorithms, counts them in the weak order from the Coxeter
matrix alone, and checks the strong hull inequality

    |Conv(u,v)| * |Conv(v,w)| >= |Conv(u,v,w)|

exhaustively at configurable radius, alongside symbolic verification of
the closed-form counting identities behind it.  The rest of the API lives
in the submodules (`coxhull.convexity`, `coxhull.tessellation`, ...).
"""

from .coxeter import TypeTag
from .tessellation import build_group

__version__ = "0.1.0"

__all__ = ["TypeTag", "build_group"]
