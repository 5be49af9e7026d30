"""Attribute-based digital identity toolkit.

Anonymous credentials with selective disclosure (CL-style strong-RSA
signatures), partial / digital identities, a small policy DSL, and a
domain gate that turns verified presentations into Permit/Deny decisions.
"""

__version__ = "0.1.0"

from .model import (
    Attribute,
    Claim,
    DigitalIdentity,
    PartialIdentity,
    Unsatisfiable,
    project_partial_identity,
    select_credentials,
    union_partial_identities,
)

__all__ = [
    "Attribute",
    "Claim",
    "DigitalIdentity",
    "PartialIdentity",
    "Unsatisfiable",
    "project_partial_identity",
    "select_credentials",
    "union_partial_identities",
    "__version__",
]
