"""sinelaw: limit laws of f(U) sin(nU) and their inverse construction.

The sequence V_n = f(U) sin(nU), with U uniform on (0,1), converges in
law to the distribution whose characteristic function is the J0-average
of f. This package computes that limit (characteristic function and
density), solves the inverse problem of finding f for a prescribed
target via the order-0 Hankel transform, samples V_n reproducibly, and
verifies convergence statistically.
"""

__version__ = "0.1.0"

from .bessel import (j0, j1, jn, j0_array, j0_zero, jacobi_anger_partial,
                     parseval_partial)
from .errors import BracketError, ConvergenceError, ModelViolationError
from .inverse import (CharFn, KPsi, TabulatedMonotone, check_L, invert_k,
                      k_psi, solve_inverse)
from .limitlaw import (LimitLaw, ParamFunction, build_limit_law,
                       density_profile, limit_char_fn, limit_density)
from .quadrature import QuadConfig
from .sampler import SampleBatch, builtin_f, sample_vn, uniform_stream
from .transforms import (Decay, RealFunction, fourier1,
                         fourier2_radial_crosscheck, hankel0)
from .verify import (TargetDistribution, ecf, erf, ks_statistic,
                     target_library)

__all__ = [
    "__version__",
    "j0", "j1", "jn", "j0_array", "j0_zero", "jacobi_anger_partial",
    "parseval_partial",
    "BracketError", "ConvergenceError", "ModelViolationError",
    "CharFn", "KPsi", "TabulatedMonotone", "check_L", "invert_k", "k_psi",
    "solve_inverse",
    "LimitLaw", "ParamFunction", "build_limit_law", "density_profile",
    "limit_char_fn", "limit_density",
    "QuadConfig",
    "SampleBatch", "builtin_f", "sample_vn", "uniform_stream",
    "Decay", "RealFunction", "fourier1", "fourier2_radial_crosscheck",
    "hankel0",
    "TargetDistribution", "ecf", "erf", "ks_statistic", "target_library",
]
