"""graphcoarsen: two-level coarse models for weighted diffusion graphs.

Pipeline: balanced partitioning into subdomains, local spectral clustering
into aggregates with centroid nodes, prolongation by ideal interpolation
(CF) or constrained energy minimization (MC) in global or localized form,
and Galerkin coarse solves with convergence diagnostics.
"""

from .analysis import ConvergenceReport, cluster_contrast, cluster_diameter, dual_norm_f, verify_bound
from .clustering import (ClusterSet, SpectralEmbedding, cluster_partition,
                         generalized_eigs, kmeans_embed, local_signed_laplacian,
                         select_centroids)
from .coarsesolve import (CoarseModel, ParabolicResult, TransientConfig, Trajectory,
                          errors, galerkin_coarse, galerkin_residual, solve_fine,
                          solve_parabolic, solve_steady)
from .exceptions import (DisconnectedGraphError, IndefiniteOperatorError,
                         InfeasibleConstraintError, RepairWarning, SingularSystemError)
from .graph import (IndexSet, WeightedGraph, apply_boundary, assemble_signed_laplacian,
                    eliminate_dirichlet, norm_A, norm_L, subgraph)
from .interpolation import (ColumnInfo, Prolongation, build_constraints, cf_ideal_global,
                            cf_ideal_local, cf_split, constraint_violation, mc_global,
                            mc_local)
from .partition import Partition, oversample, partition_balanced
from .problems import (PoreNetworkSpec, TensorField, channel_field, gen_aniso_heat,
                       gen_fem_grid, gen_pore_network, hagen_poiseuille, lattice_graph)

__version__ = "0.1.0"
