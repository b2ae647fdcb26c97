"""Security policy: the tunables of the secure extension.

The paper fixes one concrete instantiation (RSA + wrapped-key encryption
+ XMLdsig); the policy object makes every choice explicit so the ablation
benchmarks (DESIGN.md A2/A4 and §5's cost study) can vary them without
touching protocol code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crypto import envelope, signing
from repro.errors import PolicyError


@dataclass(frozen=True)
class SecurityPolicy:
    """Knobs of the secure primitives."""

    #: RSA modulus size for client/broker keys
    rsa_bits: int = 1024
    #: symmetric suite inside E_PK envelopes
    envelope_suite: str = envelope.DEFAULT_SUITE
    #: RSA key-wrap algorithm inside E_PK envelopes
    envelope_wrap: str = envelope.WRAP_OAEP
    #: signature scheme for S_SK
    signature_scheme: str = signing.DEFAULT_SCHEME
    #: lifetime of broker-issued client credentials (virtual seconds)
    credential_lifetime: float = 86400.0
    #: challenge size for secureConnection (bytes)
    challenge_bytes: int = 32
    #: LRU bound on the validated-advertisement cache (entries)
    adv_cache_entries: int = 256
    #: refuse plain primitives once the secure session is up
    enforce_secure_messaging: bool = False
    #: fast path: group fan-out uses one multi-recipient envelope
    #: (1 sign + 1 symmetric pass + N wraps instead of N of each)
    enable_seal_many: bool = True
    #: fast path: sealed sends establish + ride pair-wise resumption
    #: sessions (steady state: 0 RSA ops per message)
    enable_resumption: bool = True
    #: resumption session lifetime (virtual seconds)
    resume_ttl: float = 300.0
    #: frames one resumption session may carry before re-keying
    resume_max_uses: int = 256
    #: LRU bound on live pair-wise sessions (both sender and receiver)
    resume_max_peers: int = 1024
    #: broker-mediated group fan-out: the sender seals once under the
    #: group's epoch key and its home broker relays along the federation
    #: (off = the paper's sender-iterated secureMsgPeerGroup loop)
    enable_group_cast: bool = False
    #: epoch keys each holder retains per group (older epochs become
    #: undecryptable — forward secrecy against departed members)
    group_epoch_history: int = 8
    #: store-and-forward frames a broker retains per group for replay
    #: to members reconnecting after churn (0 disables replay)
    group_replay_depth: int = 64
    #: retention of store-and-forward frames (virtual seconds)
    group_replay_ttl: float = 600.0

    def validate(self) -> "SecurityPolicy":
        if self.envelope_suite not in envelope.SUITES:
            raise PolicyError(f"unknown envelope suite {self.envelope_suite!r}")
        if self.envelope_wrap not in (envelope.WRAP_OAEP, envelope.WRAP_V15):
            raise PolicyError(f"unknown wrap algorithm {self.envelope_wrap!r}")
        if self.signature_scheme not in (signing.SCHEME_PSS, signing.SCHEME_V15):
            raise PolicyError(f"unknown signature scheme {self.signature_scheme!r}")
        if self.challenge_bytes < 16:
            raise PolicyError("challenges below 16 bytes are guessable")
        if self.credential_lifetime <= 0:
            raise PolicyError("credential lifetime must be positive")
        if self.adv_cache_entries < 1:
            raise PolicyError("advertisement cache needs at least one entry")
        if self.resume_ttl <= 0:
            raise PolicyError("resumption TTL must be positive")
        if self.resume_max_uses < 1:
            raise PolicyError("resumption use budget must be at least 1")
        if self.resume_max_peers < 1:
            raise PolicyError("resumption peer bound must be at least 1")
        if self.group_epoch_history < 1:
            raise PolicyError("epoch history must retain at least one epoch")
        if self.group_replay_depth < 0:
            raise PolicyError("replay depth cannot be negative")
        if self.group_replay_ttl <= 0:
            raise PolicyError("replay TTL must be positive")
        return self

    def with_(self, **changes) -> "SecurityPolicy":
        return replace(self, **changes).validate()


#: the paper's configuration, modern defaults
DEFAULT_POLICY = SecurityPolicy().validate()

#: era-faithful 2009 JCE-style configuration (PKCS#1 v1.5 + AES-CBC);
#: the paper's messaging is stateless, so both fast paths stay off
ERA_2009_POLICY = SecurityPolicy(
    envelope_suite="aes128-cbc",
    envelope_wrap=envelope.WRAP_V15,
    signature_scheme=signing.SCHEME_V15,
    enable_seal_many=False,
    enable_resumption=False,
).validate()
