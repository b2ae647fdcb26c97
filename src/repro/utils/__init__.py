"""Small shared utilities used by every other subpackage."""

from repro.utils.bytesutil import (
    b2i,
    constant_time_eq,
    i2b,
    i2b_fixed,
    xor_bytes,
)
from repro.utils.encoding import b64decode, b64encode, from_hex, to_hex

__all__ = [
    "b2i",
    "i2b",
    "i2b_fixed",
    "xor_bytes",
    "constant_time_eq",
    "b64encode",
    "b64decode",
    "to_hex",
    "from_hex",
]
