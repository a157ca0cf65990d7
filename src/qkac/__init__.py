"""Numerical laboratory for a mean-field quantum collision model.

Modules
-------
operators    dense tensor-product kernel (products, factor permutations,
             partial traces, entropies, norms)
spectra      energy shells and pair-move classes, cached per (model, N)
collisions   collision specifications and the two-particle channel
master       N-particle generator, jump-series semigroup, steady states
symmetric    Q_N on the permutation-symmetric sector's occupation coefficients
boltzmann    Wild convolution and the nonlinear kinetic equation
chaos        hierarchy operators and propagation-of-chaos experiments
linearized   BKM geometry, linearized operator, spectral gap
cli          JSON-config experiment driver
tolerances   named numerical tolerances and the d**N size guard
errors       the numerical-contract exception
"""

__version__ = "0.1.0"

from .operators import FactorShape  # noqa: F401
from .spectra import SingleParticleModel  # noqa: F401
from .collisions import (CollisionSpec, exact_EA2_spec,  # noqa: F401
                         qubit_tilted_spec, qubit_uniform_spec)
