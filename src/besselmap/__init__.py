"""besselmap: Bessel-family evaluators, log-power series calculus, and an
order-mapping operator verification harness.

The package has four layers:

* :mod:`besselmap.logseries` -- finite log-power series in u = z**2/2 with
  exact derivative/antiderivative rules;
* :mod:`besselmap.specfun`   -- series/quadrature evaluators for J, N, H, K
  at real order, and the series constructors;
* :mod:`besselmap.sigmaop`   -- the order-shift generator Sigma and its
  truncated exponential map;
* :mod:`besselmap.sonine`    -- generating-pair contour/half-line engine;
* :mod:`besselmap.identities` -- named identity checkers producing
  deterministic reports, consumed by the CLI (:mod:`besselmap.cli`).
"""

from .identities import (
    IdentityReport,
    ReliableOrderExhausted,
    check_eq2_roundtrip,
    check_eq3_closure,
    check_eq3prime_order,
    check_eq9_real,
    check_eq11,
    check_eq14_kernel,
    check_eq15_order,
    check_eq18_order,
    check_integer_shift,
    run_suite,
)
from .logseries import LogPowerSeries
from .sigmaop import (
    SigmaConfig,
    apply_exp_sigma,
    apply_sigma,
    kernel_identity_check,
    lambda_coefficients,
)
from .sonine import GeneratingPair, PAIRS, a_function, bessel_pair, bilinear_check, z_function
from .specfun import (
    EvalResult,
    bessel_j,
    bessel_t_series,
    hankel,
    hankel_t_series,
    k_bessel,
    lambda_taylor_target,
    neumann,
    neumann_log_series,
    neumann_t_series,
    reduced_j_series,
)

__version__ = "0.1.0"

__all__ = [
    "EvalResult",
    "GeneratingPair",
    "IdentityReport",
    "LogPowerSeries",
    "PAIRS",
    "ReliableOrderExhausted",
    "SigmaConfig",
    "a_function",
    "apply_exp_sigma",
    "apply_sigma",
    "bessel_j",
    "bessel_pair",
    "bessel_t_series",
    "bilinear_check",
    "check_eq2_roundtrip",
    "check_eq3_closure",
    "check_eq3prime_order",
    "check_eq9_real",
    "check_eq11",
    "check_eq14_kernel",
    "check_eq15_order",
    "check_eq18_order",
    "check_integer_shift",
    "hankel",
    "hankel_t_series",
    "k_bessel",
    "kernel_identity_check",
    "lambda_coefficients",
    "lambda_taylor_target",
    "neumann",
    "neumann_log_series",
    "neumann_t_series",
    "reduced_j_series",
    "run_suite",
    "z_function",
    "__version__",
]
