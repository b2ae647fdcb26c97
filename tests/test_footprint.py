"""Import footprint: numpy loads only for a ChaCha20 row-kernel batch.

Every AEAD message up to ``64 * (LANES_MAX_BLOCKS - 1)`` bytes, and so
every secure chat of ordinary size, must run on Python ints and bytes.
The check runs in a fresh interpreter with numpy blocked, so an import
anywhere on these paths fails loudly with the importer's traceback.
"""

import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = r'''
import sys

sys.modules["numpy"] = None  # any "import numpy" now raises ImportError

import repro.core
import repro.net
import repro.overlay
from repro import obs
from repro.core import Administrator, SecureBroker, SecureClientPeer
from repro.core import SecurityPolicy
from repro.core.keystore import Keystore
from repro.crypto import aead, envelope
from repro.crypto.chacha20 import LANES_MAX_BLOCKS
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.sim import SimNetwork, VirtualClock

policy = SecurityPolicy(rsa_bits=512, envelope_wrap=envelope.WRAP_V15,
                        credential_lifetime=3600.0).validate()
root = HmacDrbg(b"footprint")


def keys(label):
    return generate_keypair(512, drbg=HmacDrbg(b"footprint|" + label))


net = SimNetwork(clock=VirtualClock())
admin = Administrator(root.fork(b"admin"), keys=keys(b"admin"))
SecureBroker.create(net, "broker:0", admin, root.fork(b"broker"), name="B0",
                    policy=policy, keys=keys(b"broker"))
peers = {}
for user in ("alice", "bob"):
    admin.register_user(user, "pw-" + user, {"lab"})
    peer = SecureClientPeer(net, "peer:" + user, root.fork(user.encode()),
                            admin.credential, name=user, policy=policy,
                            keystore=Keystore(keys(user.encode())))
    peer.secure_connect("broker:0")
    peer.secure_login(user, "pw-" + user)
    peers[user] = peer

got = []
peers["bob"].events.subscribe("secure_message_received",
                              lambda **kw: got.append(kw["text"]))
registry = obs.get_registry()
for text in ("stateless", "resumed"):
    assert peers["alice"].secure_msg_peer(str(peers["bob"].peer_id), "lab",
                                          text)
assert got == ["stateless", "resumed"], got
assert registry.count("crypto.envelope.seal") >= 1
assert registry.count("crypto.resume.seal") == 1

key, nonce = bytes(range(32)), bytes(12)
for size in (0, 256, 64 * (LANES_MAX_BLOCKS - 1)):
    plaintext = bytes(i % 251 for i in range(size))
    sealed = aead.seal(key, nonce, plaintext, b"aad")
    assert aead.open_(key, nonce, sealed, b"aad") == plaintext

loaded = sorted(name for name, module in sys.modules.items()
                if module is not None and name.split(".")[0] == "numpy")
assert not loaded, loaded
print("ok")
'''


def test_secure_chat_and_aead_up_to_lanes_max_never_load_numpy():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=SRC.parent,
        env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
