"""Curvature, holonomy, and Killing-algebra computations on coordinate patches."""

from .curvature import (CurvatureData, OrderExhaustedError, christoffel,
                        covariant_derivative, identity_residuals, inverse_metric,
                        riemann)
from .holonomy import (HolonomyReport, ParallelVerdict, infinitesimal_holonomy,
                       parallel_field_check)
from .jets import (JetDomainError, JetOrderError, JetShapeError, JetSpace, JetTensor,
                   jet_space)
from .killing import (FieldCheck, KernelReport, KillingGerm, MultiPointReport,
                      PreconditionError, check_first_prolongation, kernel_germs,
                      killing_dimension, killing_transport, sample_field, verify_killing,
                      wedge)
from .metricdsl import (Assumptions, DegenerateMetricError, ManifoldSpec,
                        ParseError, SpecError, builtin, known_killing_fields,
                        metric_jet_tensor, parse_expression, parse_field,
                        parse_manifold)
from .product import (DecompositionReport, ProductSpec, cw_counterexample,
                      decomposition_check, mixed_curvature_residuals, product_metric,
                      slot_matrix)

__version__ = "0.1.0"
