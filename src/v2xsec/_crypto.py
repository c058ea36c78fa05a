"""Everything the package takes from the ``cryptography`` library.

Loading ``cryptography`` costs a process about 7 MB and 27 ms of CPU, and a
``crypto=fast`` simulation never calls it. So no module imports this one at
module level: ``P224Suite``'s methods and the ECIES functions of ``hsm``
import it inside the calls that need it, and the first such call loads it.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, padding, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.hmac import HMAC
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

__all__ = [
    "CURVE", "ECDH", "ECDSA", "ORDER", "Cipher", "HKDF", "HMAC", "InvalidSignature",
    "algorithms", "decode_dss_signature", "ec", "encode_dss_signature", "hashes", "modes",
    "padding", "serialization",
]

CURVE = ec.SECP224R1()
ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D  # of P-224
# RFC 6979 nonces: a key and a message fix the signature.
ECDSA = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
ECDH = ec.ECDH()
