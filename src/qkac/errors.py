"""Exceptions shared across the package."""


class NumericalContractError(RuntimeError):
    """A numerical invariant (positivity, trace, convergence) was violated."""
