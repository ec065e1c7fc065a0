"""Exact-arithmetic counts of nodal plane curves in P^3.

The number N_{delta,d} of delta-nodal degree-d curves lying on planes in
P^3 and meeting n = d(d+3)/2 + 3 - delta general lines is computed two
independent ways:

  * by torus localization: a linear combination of tautological integrals
    over the relative Hilbert schemes of points of the universal plane is
    evaluated through the residue formula at the finitely many fixed points
    of the coordinate torus, entirely in exact rational arithmetic;

  * for small cases, by classical intersection theory: decomposing the
    (necessarily reducible) curves into lines, conics and nodal cubics and
    summing products of incidence classes over the Grassmannian.

Interpolating the localized count over d reconstructs the node polynomials
N_delta(d); the fixed-plane variant recovers the classical planar node
polynomials (3(d-1)^2 for one node, and so on).
"""

from .calibrate import CalibrationError, ensure_calibrated
from .crosscheck import reducible_count
from .integrand import P2_FIXED, P3, IntegrandSpec
from .localization import IntegralResult, count_nodal, integrate
from .node_polys import NodePolynomialRecord, node_polynomial, node_polynomial_cached
from .unipoly import UniPoly
from .weights import NonGenericSpecialization, Specialization

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "IntegralResult",
    "IntegrandSpec",
    "NodePolynomialRecord",
    "NonGenericSpecialization",
    "P2_FIXED",
    "P3",
    "Specialization",
    "UniPoly",
    "count_nodal",
    "ensure_calibrated",
    "integrate",
    "node_polynomial",
    "node_polynomial_cached",
    "reducible_count",
]
