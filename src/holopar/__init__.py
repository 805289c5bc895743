"""Desk-scale differential geometry: parallel transport, parallelisms,
definite norms on tangent bundles, and numerical certification that a
norm is preserved by the translations of a covariant derivative."""

from .connections import Connection, nabla_P, torsion
from .constructions import (ConvexChartRegion, connection_from_covering_parallelism,
                            covering_from_connection, parallelism_from_connection)
from .geometry import Box, Curve, Frame, coordinate_frame, segment
from .jets import Jet
from .norms import (ContinuousFamily, MinkowskiNorm, NormField, RandersData,
                    euclidean_norm, is_isometry, isometry_algebra,
                    isometry_group_2x2, lie_algebra_member, one_form_norm_field,
                    randers_norm)
from .parallelism import (CoveringParallelism, Parallelism, bump_partition,
                          frame_parallelism, pushdown_norm, translation_parallelism)
from .transport import parallel_transport, transport_ensemble
from .verification import (CheckReport, CurveGenerator, VerdictResult,
                           berwald_obstruction, check_compalg_criterion,
                           check_holonomy_invariance, check_parallelism_compat,
                           check_uniqueness, generalized_berwald_verdict)

__version__ = "0.1.0"
