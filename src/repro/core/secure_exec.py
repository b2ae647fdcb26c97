"""Secure executable primitives (the §6 further-work set).

"Of special note are those of the executable set of primitives, related
to remote code execution."  The secure variant refuses to execute
anything unless the request (a) decrypts for us, (b) carries a credential
chain rooted at the administrator, (c) is signed by the credential's key,
and (d) the requesting *username* passes the executor's ACL.
"""

from __future__ import annotations

from repro import obs, wire
from repro.core.keystore import Keystore
from repro.core.policy import SecurityPolicy
from repro.core.secure_rpc import (
    open_signed_request,
    open_signed_response,
    seal_signed_request,
    seal_signed_response,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import PublicKey
from repro.errors import JxtaError, SecurityError
from repro.jxta.messages import Message
from repro.utils.encoding import b64encode
from repro.xmllib import Element

TASK_REQ = "secure_task_req"
TASK_RESP = "secure_task_resp"
TASK_FAIL = "secure_task_fail"

_AAD_REQ = b"jxta-overlay-secure-task-req"
_AAD_RESP = b"jxta-overlay-secure-task-resp"


def build_task_request(task_name: str, argument: str, keystore: Keystore,
                       executor_key: PublicKey, policy: SecurityPolicy,
                       drbg: HmacDrbg, now: float) -> Message:
    body = Element("TaskRequest")
    body.add("Task", text=task_name)
    body.add("Argument", text=argument)
    body.add("RequesterId", text=str(keystore.cbid))
    body.add("Nonce", text=b64encode(drbg.generate(16)))
    body.add("Timestamp", text=repr(now))
    env = seal_signed_request(body, keystore, executor_key, policy, drbg, _AAD_REQ)
    msg = Message(TASK_REQ)
    msg.add_json("envelope", env)
    return msg


def handle_task_request(message: Message, keystore: Keystore,
                        tasks: dict, acl: set[str] | None,
                        policy: SecurityPolicy, drbg: HmacDrbg,
                        now: float, metrics: obs.Registry) -> Message:
    """Executor side: authenticate, authorize, execute, seal the result."""
    def fail(reason: str) -> Message:
        metrics.incr("secure_task.refused")
        out = Message(TASK_FAIL)
        out.add_text("reason", reason)
        return out

    try:
        opened = open_signed_request(
            wire.decode(message)["envelope"], keystore, now, _AAD_REQ,
            "TaskRequest")
    except (SecurityError, JxtaError) as exc:
        return fail(f"request rejected: {exc}")
    body = opened.body
    if body.findtext("RequesterId") != str(opened.requester.subject_id):
        return fail("requester id does not match the credential")
    username = opened.requester.subject_name
    if acl is not None and username not in acl:
        metrics.incr("secure_task.unauthorized")
        return fail(f"user {username!r} is not authorized to run tasks here")
    task_name = body.findtext("Task")
    fn = tasks.get(task_name)
    if fn is None:
        return fail(f"unknown task {task_name!r}")
    try:
        result = fn(body.findtext("Argument"))
    except Exception as exc:  # task crash must not kill the peer
        return fail(f"task raised: {exc}")
    resp_body = Element("TaskResponse")
    resp_body.add("Task", text=task_name)
    resp_body.add("Nonce", text=body.findtext("Nonce"))
    resp_body.add("Result", text=result)
    env = seal_signed_response(resp_body, keystore.keys.private,
                               opened.requester.public_key, policy, drbg,
                               _AAD_RESP)
    metrics.incr("secure_task.executed")
    out = Message(TASK_RESP)
    out.add_json("envelope", env)
    return out


def parse_task_response(message: Message, keystore: Keystore,
                        executor_key: PublicKey,
                        policy: SecurityPolicy) -> str:
    if message.msg_type == TASK_FAIL:
        raise SecurityError(
            f"secure task refused: {wire.decode(message).get('reason', '')}")
    if message.msg_type != TASK_RESP:
        raise SecurityError(f"unexpected response {message.msg_type!r}")
    body = open_signed_response(
        wire.decode(message)["envelope"], keystore.keys.private, executor_key,
        _AAD_RESP, "TaskResponse")
    return body.findtext("Result")
