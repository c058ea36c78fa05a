"""Secure vehicular beaconing stack and deterministic highway simulator.

Layers, bottom up: signature suites and clocks, a software reference HSM,
pseudonym identity management, a hook framework for wiring security handlers
into a communication stack, beaconing with certificate omission and budgeted
verification, an in-vehicle gateway firewall with anomaly detection, and a
discrete-event simulator that measures the overhead and safety impact of the
whole stack.
"""

from .beaconing import (
    Beacon,
    BeaconSecurity,
    NeighborTable,
    OmissionStrategy,
    OmissionVariant,
    SecuredBeacon,
    decide_attach,
)
from .clocks import SystemClock, VirtualClock
from .gateway import (
    Action,
    BehaviorSpec,
    Firewall,
    FirewallRule,
    IntrusionDetector,
    RangeSpec,
    TransitionSpec,
)
from .hooks import (
    Direction,
    Disposition,
    HandlerRegistration,
    HookStack,
    IlpPosition,
    Message,
    SetLinkAddress,
    Verdict,
)
from .hsm import Hsm, KeyRole, RootUpdatePackage, SignedBlob, encrypt_for, verify_signed_blob
from .identity import (
    CertificateAuthority,
    CompactCertificate,
    IdentityManager,
    Pseudonym,
    PseudonymChangePolicy,
    verify_certificate,
)
from .suites import FastHashSuite, P224Suite, get_suite

__version__ = "0.1.0"

__all__ = [
    "Beacon",
    "BeaconSecurity",
    "NeighborTable",
    "OmissionStrategy",
    "OmissionVariant",
    "SecuredBeacon",
    "decide_attach",
    "SystemClock",
    "VirtualClock",
    "Action",
    "BehaviorSpec",
    "Firewall",
    "FirewallRule",
    "IntrusionDetector",
    "RangeSpec",
    "TransitionSpec",
    "Direction",
    "Disposition",
    "HandlerRegistration",
    "HookStack",
    "IlpPosition",
    "Message",
    "SetLinkAddress",
    "Verdict",
    "Hsm",
    "KeyRole",
    "RootUpdatePackage",
    "SignedBlob",
    "encrypt_for",
    "verify_signed_blob",
    "CertificateAuthority",
    "CompactCertificate",
    "IdentityManager",
    "Pseudonym",
    "PseudonymChangePolicy",
    "verify_certificate",
    "FastHashSuite",
    "P224Suite",
    "get_suite",
    "__version__",
]
