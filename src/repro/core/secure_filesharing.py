"""Secure file-sharing primitives (further work of §6, built per §4.3).

Baseline protocol (paper-faithful, both fast paths off)::

    Requester -> Owner : E_PK_owner( S_SK_req(FileRequest), chain_req )
    Requester <- Owner : E_PK_req( S_SK_owner(FileResponse{content}) )

The owner validates the requester's credential chain before serving
(so only authenticated network members can pull files) and may check the
requester against the advertisement's group.  Content travels encrypted
and owner-signed; the requester additionally checks the digest from the
validated file advertisement (done by the caller).

Fast path (``policy.enable_resumption``): the transfer is *chunked* and
rides pair-wise resumption sessions.  The first request/response pair is
the full signed RPC above with **resumable** envelopes, establishing one
session per direction; every later chunk request and response is a
resumed frame — zero RSA operations in either direction.  ``FileRequest``
gains optional ``Offset``/``Length`` fields and ``FileResponse`` gains
``Offset``/``Total``/``Eof``; a request without ``Offset`` is served
whole-file, so either side can fall back to the stateless baseline and
still interoperate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs, wire
from repro.core.keystore import Keystore
from repro.core.policy import SecurityPolicy
from repro.core.secure_rpc import (
    REQUEST_TAG,
    RESPONSE_TAG,
    open_resumed_body,
    open_signed_request,
    open_signed_response_detailed,
    seal_resumed_body,
    seal_signed_request,
    seal_signed_request_fast,
    seal_signed_response,
    seal_signed_response_fast,
)
from repro.core.credentials import Credential
from repro.crypto import resume as resume_mod
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import PublicKey
from repro.errors import JxtaError, SecurityError, UnknownSessionError
from repro.jxta.messages import Message
from repro.overlay.filesharing import FileStore
from repro.utils.encoding import b64decode, b64encode
from repro.xmllib import Element

FILE_REQ = "secure_file_req"
FILE_RESP = "secure_file_resp"
FILE_FAIL = "secure_file_fail"

#: default chunk size of the fast-path transfer
CHUNK_SIZE = 32 * 1024

_AAD_REQ = b"jxta-overlay-secure-file-req"
_AAD_RESP = b"jxta-overlay-secure-file-resp"


def build_file_request(file_name: str, group: str, keystore: Keystore,
                       owner_key: PublicKey, policy: SecurityPolicy,
                       drbg: HmacDrbg, now: float, *,
                       offset: int | None = None, length: int | None = None,
                       resume_sessions: resume_mod.SenderResumeCache | None = None,
                       rekey: bool = False) -> Message:
    """Build one (possibly chunked) file request.

    With ``resume_sessions`` and resumption enabled, a live session to
    the owner turns the request into a resumed frame (0 RSA ops); the
    cold path sends the full signed RPC with a resumable envelope and
    installs the new session.

    ``rekey`` recovers a mid-transfer session loss: the request is
    forced onto the full signed path and carries a ``Rekey`` marker
    asking the owner to drop its response session towards us too, so
    both directions re-establish from this exchange.
    """
    body = Element("FileRequest")
    body.add("FileName", text=file_name)
    body.add("Group", text=group)
    body.add("RequesterId", text=str(keystore.cbid))
    body.add("Nonce", text=b64encode(drbg.generate(16)))
    body.add("Timestamp", text=repr(now))
    if offset is not None:
        body.add("Offset", text=str(offset))
        body.add("Length", text=str(length if length is not None else CHUNK_SIZE))
    if rekey:
        body.add("Rekey", text="1")
    if resume_sessions is not None and policy.enable_resumption:
        session = (None if rekey else
                   resume_sessions.get(owner_key.fingerprint().hex(), now))
        if session is not None:
            env = seal_resumed_body(REQUEST_TAG, body, session, _AAD_REQ)
        else:
            env, seeds = seal_signed_request_fast(
                body, keystore, owner_key, policy, drbg, _AAD_REQ)
            for fp, seed in seeds.items():
                resume_sessions.store(fp, seed, policy.envelope_suite, now)
    else:
        env = seal_signed_request(body, keystore, owner_key, policy, drbg,
                                  _AAD_REQ)
    msg = Message(FILE_REQ)
    msg.add_json("envelope", env)
    return msg


def handle_file_request(message: Message, keystore: Keystore, files: FileStore,
                        validator, policy: SecurityPolicy, drbg: HmacDrbg,
                        now: float, metrics: obs.Registry,
                        resume_store: resume_mod.ReceiverResumeStore | None = None,
                        resume_sessions: resume_mod.SenderResumeCache | None = None
                        ) -> Message:
    """Owner side: validate the requester, then serve the (sealed) file.

    The receiver-side ``resume_store`` is a protocol capability and is
    consulted regardless of our own policy (a fast-path requester must
    interoperate with a baseline owner and vice versa); only *minting*
    new sessions for our responses is gated on ``enable_resumption``.
    """
    def fail(reason: str) -> Message:
        metrics.incr("secure_file.refused")
        out = Message(FILE_FAIL)
        out.add_text("reason", reason)
        return out

    try:
        env = wire.decode(message)["envelope"]
    except JxtaError as exc:
        return fail(f"request rejected: {exc}")

    if "resume" in env:
        if resume_store is None:
            return fail("resumed request but resumption is not supported here")
        try:
            body, identity = open_resumed_body(
                env, resume_store, _AAD_REQ, now, REQUEST_TAG, "FileRequest")
        except UnknownSessionError as exc:
            # Recoverable by the requester (re-key + retry the chunk):
            # flag it so a generic refusal is distinguishable.
            out = fail(f"request rejected: {exc}")
            out.add_text("code", "unknown_session")
            return out
        except SecurityError as exc:
            return fail(f"request rejected: {exc}")
        if not isinstance(identity, Credential):
            return fail("resumption session is not bound to a credential")
        requester = identity
    else:
        try:
            opened = open_signed_request(env, keystore, now, _AAD_REQ,
                                         "FileRequest")
        except (SecurityError, JxtaError) as exc:
            return fail(f"request rejected: {exc}")
        body = opened.body
        requester = opened.requester
        if opened.resume_seed is not None and resume_store is not None:
            # The chain just validated and the body signature verified:
            # bind the requester->owner session to that credential.
            resume_store.register(opened.resume_seed, opened.suite,
                                  requester, now)
    if body.findtext("RequesterId") != str(requester.subject_id):
        return fail("requester id does not match the credential")
    file_name = body.findtext("FileName")
    if file_name not in files:
        return fail(f"no file named {file_name!r}")
    content = files.get(file_name)

    resp_body = Element("FileResponse")
    resp_body.add("FileName", text=file_name)
    resp_body.add("Nonce", text=body.findtext("Nonce"))  # binds resp to req
    offset_text = body.findtext("Offset")
    if not offset_text:
        resp_body.add("Content", text=b64encode(content))
    else:
        try:
            offset = int(offset_text)
            length = int(body.findtext("Length") or CHUNK_SIZE)
        except (TypeError, ValueError):
            return fail("malformed chunk bounds")
        if offset < 0 or length <= 0:
            return fail("malformed chunk bounds")
        chunk = content[offset:offset + length]
        resp_body.add("Content", text=b64encode(chunk))
        resp_body.add("Offset", text=str(offset))
        resp_body.add("Total", text=str(len(content)))
        resp_body.add("Eof", text="1" if offset + len(chunk) >= len(content) else "0")

    if resume_sessions is not None and policy.enable_resumption:
        fp = requester.public_key.fingerprint().hex()
        if body.findtext("Rekey"):
            # The requester lost our response session (restart, eviction):
            # drop ours too and mint a fresh one with this response.
            resume_sessions.invalidate(fp)
        session = resume_sessions.get(fp, now)
        if session is not None:
            env_out = seal_resumed_body(RESPONSE_TAG, resp_body, session,
                                        _AAD_RESP)
        else:
            env_out, seeds = seal_signed_response_fast(
                resp_body, keystore.keys.private, requester.public_key,
                policy, drbg, _AAD_RESP)
            for seed_fp, seed in seeds.items():
                resume_sessions.store(seed_fp, seed, policy.envelope_suite, now)
    else:
        env_out = seal_signed_response(resp_body, keystore.keys.private,
                                       requester.public_key, policy, drbg,
                                       _AAD_RESP)
    metrics.incr("secure_file.served")
    out = Message(FILE_RESP)
    out.add_json("envelope", env_out)
    return out


@dataclass(frozen=True)
class FileChunk:
    """One parsed chunk (or whole-file) response."""

    content: bytes
    offset: int | None
    total: int | None
    eof: bool


def open_file_response(message: Message, keystore: Keystore,
                       owner: Credential, policy: SecurityPolicy, *,
                       resume_store: resume_mod.ReceiverResumeStore | None = None,
                       now: float = 0.0) -> FileChunk:
    """Requester side: unseal one response — full (owner-signed) or resumed.

    A resumed response must come from the session bound to ``owner``'s
    credential; a full response that carries a seed registers the
    owner->requester session for the following chunks.
    """
    if message.msg_type == FILE_FAIL:
        raise SecurityError(
            f"secure file transfer refused: "
            f"{wire.decode(message).get('reason', '')}")
    if message.msg_type != FILE_RESP:
        raise SecurityError(f"unexpected response {message.msg_type!r}")
    env = wire.decode(message)["envelope"]
    if "resume" in env:
        if resume_store is None:
            raise SecurityError("resumed response but resumption is disabled")
        body, identity = open_resumed_body(
            env, resume_store, _AAD_RESP, now, RESPONSE_TAG, "FileResponse")
        if (not isinstance(identity, Credential)
                or str(identity.subject_id) != str(owner.subject_id)):
            raise SecurityError("resumed response from an unexpected peer")
    else:
        body, seed, suite = open_signed_response_detailed(
            env, keystore.keys.private, owner.public_key, _AAD_RESP,
            "FileResponse")
        if seed is not None and resume_store is not None:
            # The owner's signature just verified under its validated
            # credential: bind the owner->requester session to it.
            resume_store.register(seed, suite, owner, now)
    content = b64decode(body.findtext("Content"))
    offset_text = body.findtext("Offset")
    total_text = body.findtext("Total")
    return FileChunk(
        content=content,
        offset=int(offset_text) if offset_text else None,
        total=int(total_text) if total_text else None,
        eof=(body.findtext("Eof") != "0"))


def parse_file_response(message: Message, keystore: Keystore,
                        owner_key: PublicKey, policy: SecurityPolicy) -> bytes:
    """Requester side (baseline): unseal and verify a whole-file response."""
    if message.msg_type == FILE_FAIL:
        raise SecurityError(
            f"secure file transfer refused: "
            f"{wire.decode(message).get('reason', '')}")
    if message.msg_type != FILE_RESP:
        raise SecurityError(f"unexpected response {message.msg_type!r}")
    body, _, _ = open_signed_response_detailed(
        wire.decode(message)["envelope"], keystore.keys.private, owner_key,
        _AAD_RESP, "FileResponse")
    return b64decode(body.findtext("Content"))
