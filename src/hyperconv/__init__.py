"""Convolution-measure toolkit for sharp L2 -> L4 extension diagnostics.

Numerical library and CLI for the convolution form of the endpoint
adjoint-restriction inequality on the one-sheeted hyperboloid family
(mass parameter s > 0) and its cone limit (s = 0): exact convolution
densities, cap and boost geometry, trial-function comparisons against the
cone constant, a radial extremizer search, and dyadic bilinear diagnostics.
Importing the package, or any of its modules, loads numpy and the bare
``scipy`` package but no scipy submodule: ``scipy.integrate``, and with
it ``scipy.optimize``, loads on the first Gauss-Kronrod integral.
"""

__version__ = "0.1.0"

import logging

# library logging (logger "hyperconv") stays silent until the application configures it
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .closedforms import (ConvPoint, mu_cone_conv, mu_cone_conv_sup,
                          mu_self_conv, mu_self_conv_sup, support_predicate)
from .convolution import cross_conv, hyperbolic_conv, sphere_pair_kernel
from .fields import Conv2DField
from .geometry import phi, psi
from .norms import l2_field_norm, lp_norm
from .profiles import RadialProfile, trial_profile
from .quadrature import QuadratureSpec

__all__ = [
    "ConvPoint", "Conv2DField", "QuadratureSpec", "RadialProfile",
    "cross_conv", "hyperbolic_conv", "l2_field_norm", "lp_norm",
    "mu_cone_conv", "mu_cone_conv_sup", "mu_self_conv", "mu_self_conv_sup",
    "phi", "psi", "sphere_pair_kernel", "support_predicate", "trial_profile",
]
