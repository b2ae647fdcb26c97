"""Compiled decoders must be indistinguishable from the reference.

``FrameSpec.compiled()`` specializes the per-field interpretive loop
into a closure for the dispatch hot path; ``FrameSpec.decode`` stays
the reference implementation.  For every frame in the catalogue the two
must agree byte-for-byte: same accepted values on the valid sample,
same :class:`WireRejected` ``(msg_type, reason)`` on every entry of the
mutation-fuzz corpus.
"""

from __future__ import annotations

import pytest

from frames import mutations
from repro import wire
from repro.jxta.messages import Message
from repro.wire.schema import WireRejected


@pytest.mark.parametrize("msg_type", sorted(wire.REGISTRY))
class TestDifferential:
    def test_sample_accepted_identically(self, msg_type):
        spec = wire.REGISTRY[msg_type]
        sample = spec.sample_message()
        reference = spec.decode(sample)
        compiled = spec.compiled()(sample)
        assert compiled.msg_type == reference.msg_type
        assert compiled.spec is reference.spec
        assert compiled._values == reference._values

    def test_mutations_rejected_identically(self, msg_type):
        spec = wire.REGISTRY[msg_type]
        compiled = spec.compiled()
        for label, malformed, _expected in mutations(spec):
            with pytest.raises(WireRejected) as ref_exc:
                spec.decode(malformed)
            with pytest.raises(WireRejected) as fast_exc:
                compiled(malformed)
            assert (fast_exc.value.msg_type, fast_exc.value.reason) \
                == (ref_exc.value.msg_type, ref_exc.value.reason), label


class TestCompilationCache:
    def test_compiled_closure_memoized_per_spec(self):
        spec = wire.REGISTRY["chat"]
        assert spec.compiled() is spec.compiled()

    def test_boundary_uses_reference_when_flag_off(self):
        """The boundary's decode agrees with the reference decoder."""
        from repro.wire import boundary

        spec = wire.REGISTRY["chat"]
        view = boundary.decode(spec.sample_message())
        assert view._values == spec.decode(spec.sample_message())._values

    def test_optional_fields_absent_accepted(self):
        spec = wire.REGISTRY["query_req"]  # every field optional
        empty = Message("query_req")
        assert spec.compiled()(empty)._values == spec.decode(empty)._values
