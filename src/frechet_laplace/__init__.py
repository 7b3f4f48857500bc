"""Laplace transform of the Frechet distribution for rational shape
parameters via Meijer G functions evaluated by their residue series and by
Mellin-Barnes contour quadrature, the Frechet integral transform with its closed-form special
cases, and independent quadrature oracles cross-validating every closed form.
"""

from .distributions import (
    LevyIndex,
    RationalShape,
    Shape,
    find_maximum,
    frechet_cdf,
    frechet_mode,
    frechet_moment,
    frechet_pdf,
    frechet_quantile,
    levy_asymptotic,
    levy_asymptotic_mode,
    levy_asymptotic_rescaled,
    levy_moment,
    levy_pdf_half,
)
from .errors import (
    ContourError,
    DivergentMoment,
    DomainError,
    FrechetLaplaceError,
    MissingLaplace,
    NonConvergence,
    PoleError,
)
from .ftransform import (
    FrechetKernelParams,
    TransformTarget,
    frechet_kernel,
    frechet_transform_frechet_half,
    frechet_transform_levy,
    frechet_transform_quadrature,
    frechet_transform_via_laplace,
)
from .laplace import (
    LaplaceQuery,
    Method,
    laplace_frechet,
    laplace_frechet_bessel,
    laplace_frechet_oracle,
    laplace_symmetry_check,
)
from .meijer import (
    LaplaceClosedForm,
    MeijerSpec,
    build_laplace_closed_form,
    meijer_g_m0,
    meijer_g_series,
)
from .mellin import (
    MellinFunction,
    frechet_mellin_image,
    laplace_via_mellin,
)
from .numerics import (
    EvalResult,
    bessel_k1,
    integrate_semi_infinite,
    log_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "Shape", "RationalShape", "LevyIndex",
    "frechet_pdf", "frechet_cdf", "frechet_quantile", "frechet_moment",
    "levy_pdf_half", "levy_moment", "levy_asymptotic", "levy_asymptotic_rescaled",
    "frechet_mode", "levy_asymptotic_mode", "find_maximum",
    "EvalResult", "log_gamma", "integrate_semi_infinite",
    "bessel_k1",
    "MellinFunction", "frechet_mellin_image", "laplace_via_mellin",
    "MeijerSpec", "LaplaceClosedForm", "meijer_g_m0", "meijer_g_series",
    "build_laplace_closed_form",
    "Method", "LaplaceQuery", "laplace_frechet", "laplace_frechet_oracle",
    "laplace_symmetry_check", "laplace_frechet_bessel",
    "FrechetKernelParams", "TransformTarget", "frechet_kernel",
    "frechet_transform_quadrature", "frechet_transform_via_laplace",
    "frechet_transform_levy", "frechet_transform_frechet_half",
    "FrechetLaplaceError", "DomainError", "PoleError", "DivergentMoment",
    "NonConvergence", "ContourError", "MissingLaplace",
]
