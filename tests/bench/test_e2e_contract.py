"""The program interface E-E2E's child processes rely on.

Each E-E2E child (``benchmarks/e2e``) first builds a ``Provision`` for
its workload: it applies the workload's ``policy`` keywords to
``DEFAULT_POLICY`` and provisions the administrator and every user.  A
program change that drops a policy field or an API this needs makes
every child of that workload fail before it measures anything, and the
benchmark reports a harness fault instead of a number.  Building each
workload's provision here catches that in the tier-1 suite.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e import roles, spec


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_every_workload_provisions(name):
    workload = spec.WORKLOADS[name]
    provision = roles.Provision(workload, 1)
    for key, value in workload.policy.items():
        assert getattr(provision.policy, key) == value
    assert provision.admin.credential is not None
