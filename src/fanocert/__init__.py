"""Exact-arithmetic certification of the E1-E1 Sarkisov link case analysis."""

from .catalog import CaseRecord, Certificate, Report, load_cases, run_all, verify_case
from .diophantine import (Interval, band_empty, curve_classes, degree_lines,
                          effective_decompositions, line_maximum)
from .gonality import TetragonalReport, fixed_moving_bound, tetragonal_certificate
from .lattice import (FAMILIES, DivisorClass, FamilySpec, IntersectionLattice,
                      LatticeSignatureError, anticanonical_cube, make_family_lattice,
                      square_and_genus)
from .nefness import free_certificate, nef_certificate
from .outcome import CheckOutcome
from .riemannroch import (LinearSeries, brill_noether, ideal_curve_bound, k3_h0,
                          monomial_count, plane_curve_genus, residual_series,
                          span_dimension_bound)
from .ruled import (RuledLattice, hirzebruch_search, noether_contradiction,
                    p2_square_ten)
from .schubert import surface_class_split
from .secant import admissible_table, genus_cap, max_secant_degree, trisecant_count

__version__ = "0.1.0"
