"""Attribute-based digital identity toolkit.

Anonymous credentials with selective disclosure (CL-style strong-RSA
signatures), a small policy DSL, and a domain gate that turns verified
presentations into Permit/Deny decisions. A holder's wallet is its digital
identity; `select_credentials` picks the credentials for a domain's partial
identity, and `gate.access` returns the claims that the domain verified.
"""

__version__ = "0.1.0"

from .model import (
    Attribute,
    Claim,
    Unsatisfiable,
    select_credentials,
)

__all__ = [
    "Attribute",
    "Claim",
    "Unsatisfiable",
    "select_credentials",
    "__version__",
]
