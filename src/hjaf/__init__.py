"""Adaptive filtered schemes for first-order Hamilton-Jacobi equations.

A monotone scheme supplies convergence, a high-order scheme supplies
accuracy, and a per-step blend switches between them node by node, driven
by genuinely two-dimensional smoothness indicators and an automatically
tuned switching scale.
"""
from .grids import (BoundaryCondition, Grid1D, Grid2D, GridField,
                    write_field_csv)
from .hamiltonians import (Hamiltonian, eikonal_hamiltonian,
                           rotation_hamiltonian, shifted_quadratic_hamiltonian,
                           transport_hamiltonian)
from .indicators1d import (Indicator1DConfig, Smoothness, Variant1D,
                           beta_fields_1d, map_g, omega_field_1d, phi_1d,
                           smoothness_1d)
from .indicators2d import (Formula2D, Indicator2DConfig, omega_field_2d,
                           omega_split_field, phi_2d, quadrant_beta_fields,
                           smoothness_2d)
from .monotone import (CflViolation, MonotoneKind, h_eikonal,
                       monotone_hamiltonian, monotone_step)
from .highorder import (SCHEME_ORDERS, hc_step, high_order_step, lw2_step,
                        lw_step, richtmyer_step, rkc4_step)
from .filtering import (SCHEME_NAMES, EvolutionError, SolverConfig,
                        StepRecord, af_evolve, af_step, epsilon_n)
from .problems import (ALL_TEST_IDS, IndicatorCase, ProblemSpec, disc_min,
                       hopf_lax_min_1d, make_test)
from .reporting import (RunReport, RunRow, error_norms, observed_order,
                        parse_report_csv, write_table)
from .harness import (CliConfig, IndicatorRunConfig, run_convergence,
                      run_indicators)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
