"""Dense partial functional correspondence between triangle meshes."""

from .bench import GroundTruth, cumulative_curve, erode_holes, plane_cut, princeton_error
from .descriptors import DescriptorField, shot_descriptors
from .energy import EnergyBreakdown, EnergyParams, MatchProblem, eta, total_energy, xi
from .laplacian import LaplacianPair, SpectralBasis, cotan_stiffness, eigensolve, mesh_basis
from .mesh import MeshError, TriangleMesh, load_mesh, save_off, save_ply
from .solver import (MatchResult, SolverOptions, alternate, build_problem, match,
                     nonlinear_cg, refine)
from .spectral import (boundary_interaction, build_d_vector, build_weight_matrix,
                       estimate_rank, fourier_coeffs, ground_truth_map,
                       perturbation_setup)

__version__ = "0.1.0"
