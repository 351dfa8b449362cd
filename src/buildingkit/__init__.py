"""Exact verification toolkit for a family of alternating lattice sums.

The package computes, all in exact rational arithmetic:

- the exponents of the finite Weyl group from root heights, and affine sphere
  sizes by expanding Bott's formula over them; products of coset walks
  count the Cayley-graph spheres and the finite group for the `growth`
  command and the test oracles;
- alternating period series sum_k a_k q_F^k (-1/q_E)^k with q_E = q_F^2,
  their closed forms as products over the exponents, heuristic geometric
  tail estimates (not majorants), and exact value bounds;
- a truncated (q_E+1)-regular tree containing a marked (q_F+1)-regular
  subtree, with harmonic-cocycle verification, a one-dimensional invariant
  solver, layer reconstruction, and a sign character on tree automorphisms;
- orbit closures of affine-square and inversion moves on the complement of
  a residue field inside its quadratic extension, grown from a few
  generating moves;
- a consolidated check suite and a CLI (`buildingkit`); the package reads
  and writes no files.
"""

from .cache import cached_growth
from .coxeter import (DEFAULT_ELEMENT_BUDGET, INFINITE_ORDER, CoxeterSystem,
                      GrowthSeries, OmegaElement, build_affine_system,
                      epsilon_of_omega, exponents, growth_coefficients,
                      growth_from_exponents, omega_group, poincare_finite)
from .errors import (BudgetError, InvalidTypeError, ModelError,
                     ToolkitError)
from .orbits import (FiniteFieldPair, OrbitReport, affine_square_orbits,
                     build_fields, canonical_inversion_data,
                     exists_nonsquare_value, inversion_closure_orbits,
                     transitivity_holds, verify_fraction_identity)
from .period import (BoundsReport, PeriodResult, check_counting_bound,
                     check_theorem_bounds, evaluate_period, period_closed_form,
                     period_series, tail_bound)
from .suite import CheckResult, SuiteReport, run_suite
from .tree import (EdgeCocycle, HarmonicityReport, InvariantSolution,
                   TreeAutomorphism, TreePair, build_tree_pair,
                   check_tree_invariants, compose, decay_check,
                   endpoint_swap, epsilon_tree, invariant_solver,
                   iwahori_cocycle, random_automorphism, reconstruct_layer,
                   translation_automorphism, tree_period, verify_harmonic)

__version__ = "0.1.0"
