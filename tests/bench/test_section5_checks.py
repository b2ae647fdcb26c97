"""The section 5 documents' checks on synthetic documents.

Each check holds one claim of the paper (or of DESIGN.md's ablation
table): a healthy document passes, and the same document with the
relation inverted fails that check and ``all_passed``.
"""

from __future__ import annotations

import pytest

from repro.bench import evaluation
from repro.bench.harness import EXPERIMENTS, PAPER_EXPERIMENTS


def e2_doc(*pcts: float) -> dict:
    return {"link_name": "lan2009", "cpu_scale": 1.0, "rsa_bits": 1024,
            "points": [{"size_bytes": 10 ** (2 + i), "plain_s": 1.0,
                        "secure_s": 1.0 + pct / 100, "overhead_pct": pct,
                        "plain_work": {}, "secure_work": {}}
                       for i, pct in enumerate(pcts)]}


def a2_doc(rsa1024_s: float, rsa2048_s: float) -> dict:
    return {"rows": [{"label": "rsa1024+chacha(oaep)", "join_secure_s": rsa1024_s},
                     {"label": "rsa2048+chacha(oaep)", "join_secure_s": rsa2048_s}]}


def a3_doc(*secure_s: float, frames: tuple[int, ...] = ()) -> dict:
    frames = frames or tuple(2 ** (i + 1) + 1 for i in range(len(secure_s)))
    return {"points": [{"group_size": 2 ** (i + 1), "secure_s": s,
                        "secure_work": {"frames": n}}
                       for i, (s, n) in enumerate(zip(secure_s, frames))]}


def a4_doc(stateless_s: float, tls_s: float) -> dict:
    return {"points": [
        {"n_messages": 1, "stateless_s": 0.005, "tls_s": 0.008},
        {"n_messages": 20, "stateless_s": stateless_s, "tls_s": tls_s}]}


def obs_doc(**records) -> dict:
    prims = {name: {"calls": 10, "errors": 0}
             for name in ("secureConnection", "secureLogin", "secureMsgPeer")}
    return {"primitives": {**prims, **records}}


CASES = [
    # (checks, healthy document, inverted document, failing check)
    (evaluation.e1_checks, {"overhead_pct": 81.76}, {"overhead_pct": -5.0},
     "overhead_in_range"),
    (evaluation.e1_checks, {"overhead_pct": 9_999.0},
     {"overhead_pct": 10_000.0}, "overhead_in_range"),
    (evaluation.e2_checks, e2_doc(600, 430, 330, 150, 100),
     e2_doc(100, 150, 330, 600), "overhead_falls_with_size"),
    # each step may rise by up to 10%
    (evaluation.e2_checks, e2_doc(600, 655, 300, 100),
     e2_doc(600, 690, 300, 100), "overhead_falls_with_size"),
    (evaluation.e2_checks, e2_doc(600, 400, 250),
     e2_doc(200, 150, 110), "first_over_twice_last"),
    (evaluation.a1_checks,
     {"us_per_op": {"rsa1024_verify": 50.0, "cbid_match": 5.0}},
     {"us_per_op": {"rsa1024_verify": 50.0, "cbid_match": 5.1}},
     "cbid_match_le_tenth_of_verify"),
    (evaluation.a2_checks, a2_doc(0.015, 0.058), a2_doc(0.015, 0.015),
     "rsa2048_join_costs_more"),
    (evaluation.a3_checks, a3_doc(0.005, 0.014, 0.09),
     a3_doc(0.005, 0.014, 0.005), "largest_group_costs_more"),
    (evaluation.a3_checks, a3_doc(0.005, 0.014, 0.09),
     a3_doc(0.005, 0.014, 0.09, frames=(3, 5, 3)), "frames_grow_with_members"),
    (evaluation.a4_checks, a4_doc(0.130, 0.080), a4_doc(0.130, 0.130),
     "tls_cheaper_per_msg_at_largest_n"),
    *[(evaluation.obs_checks, obs_doc(), obs_doc(**{name: record}),
       f"{name}_recorded")
      for name in ("secureConnection", "secureLogin", "secureMsgPeer")
      for record in ({"calls": 0, "errors": 0}, {"calls": 10, "errors": 1})],
]


@pytest.mark.parametrize("checks,healthy,inverted,name", CASES,
                         ids=[f"{case[3]}-{i}" for i, case in enumerate(CASES)])
def test_check_fails_once_its_relation_is_inverted(checks, healthy, inverted,
                                                   name):
    passing = checks(healthy)
    assert passing[name] is True and passing["all_passed"] is True
    failing = checks(inverted)
    assert failing[name] is False and failing["all_passed"] is False


def test_a1_reports_the_ratio():
    checks = evaluation.a1_checks(
        {"us_per_op": {"rsa1024_verify": 59.0, "cbid_match": 1.8}})
    assert checks["verify_over_cbid_match"] == pytest.approx(59 / 1.8)


def test_every_section5_name_is_in_the_table():
    assert set(PAPER_EXPERIMENTS) <= set(EXPERIMENTS)
