"""Desk-scale differential geometry: parallel transport, parallelisms,
definite norms on tangent bundles, and numerical certification that a
norm is preserved by the translations of a covariant derivative."""

from .connections import (Connection, christoffels_in_frame, nabla_P, nabla_P_batch,
                          torsion)
from .constructions import (ConvexChartRegion, connection_from_covering_parallelism,
                            covering_from_connection, parallelism_from_connection)
from .geometry import (Box, ChartPoint, Coframe, Curve, Frame, TangentVector,
                       VectorField, coordinate_frame, dual_coframe, jet_eval,
                       lie_bracket, point, segment)
from .jets import Jet
from .norms import (ContinuousFamily, MinkowskiNorm, NormField, RandersData,
                    euclidean_norm, is_isometry, isometry_algebra,
                    isometry_group_2x2, lie_algebra_member, one_form_norm_field,
                    randers_norm)
from .parallelism import (CoveringParallelism, Parallelism, PushedNorm,
                          bump_partition, frame_parallelism,
                          induced_trivialization, pushdown_norm,
                          translation_parallelism)
from .transport import (MatrixCurve, TransportOperator, matrix_ode_solve,
                        parallel_transport, phi_curve, transport_ensemble)
from .verification import (CheckReport, CurveGenerator, VerdictResult,
                           berwald_obstruction, check_compalg_criterion,
                           check_holonomy_invariance, check_parallelism_compat,
                           check_uniqueness, generalized_berwald_verdict)

__version__ = "0.1.0"
