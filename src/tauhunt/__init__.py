"""tauhunt: exact newform coefficients, defective Lucas sequences, and
bounded Diophantine searches deciding whether an odd prime power can be
a Fourier coefficient.

The package root re-exports only the arithmetic kernel, which every
layer loads; the layers themselves (bounds, catalog, curves, lehmer,
lucas, newform, thue) are imported by name, so a caller loads only what
it uses."""

from .arith import (
    DomainError,
    continued_fraction_convergents,
    factor,
    is_perfect_square,
    is_prime,
    prime_power_root,
)

__version__ = "1.0.0"
