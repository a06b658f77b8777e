"""Monitor bundles: wire round-trips, delta encoding, and corruption.

The hypothesis tests reuse the random property generators from
``test_differential_monitors.py``: a bundle built from *any* generated
monitor set must survive the binary wire format byte-exactly, delta
encoding against any base must reconstruct the exact target, and any
bit flipped in the payload must be rejected by the CRC before a single
slot cell is written — a corrupted update can never half-install.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import generate_machines
from repro.errors import FleetError
from repro.fleet import (
    BundleDelta,
    MonitorBundle,
    apply_delta,
    build_bundle,
    compat_diff,
    decode_wire,
)
from repro.statemachine.codegen_python import generate_python_source
from repro.statemachine.textual import print_machine
from repro.verify.workloads import OTA_SPEC_V1, OTA_SPEC_V2, _ota_app, get_scenario
from tests.test_differential_monitors import any_property

_props = st.lists(any_property(), min_size=1, max_size=5)
_versions = st.integers(min_value=1, max_value=10_000)


def bundle_from_props(props, version, name="monitor"):
    """A bundle straight from property objects (no spec text needed:
    the machines and fingerprint are what the wire format protects).

    Random property lists can repeat a (kind, task, path) combination,
    which a validated spec never does; keep the last machine per name,
    matching the payload's name-keyed mapping.
    """
    machines = {m.name: m for m in generate_machines(props)}
    textual = tuple(sorted((n, print_machine(m)) for n, m in machines.items()))
    sources = "\n".join(generate_python_source(m)
                        for _, m in sorted(machines.items()))
    return MonitorBundle(
        name=name,
        version=version,
        spec=f"<{len(props)} random properties>",
        machines=textual,
        fingerprint=hashlib.sha256(sources.encode("utf-8")).hexdigest(),
    )


class TestWireRoundTrip:
    @given(props=_props, version=_versions)
    @settings(max_examples=60, deadline=None)
    def test_full_bundle_round_trips(self, props, version):
        bundle = bundle_from_props(props, version)
        decoded = decode_wire(bundle.to_wire())
        assert isinstance(decoded, MonitorBundle)
        assert decoded == bundle
        assert decoded.content_hash == bundle.content_hash

    @given(props=_props, version=_versions)
    @settings(max_examples=30, deadline=None)
    def test_wire_is_deterministic(self, props, version):
        bundle = bundle_from_props(props, version)
        assert bundle.to_wire() == bundle.to_wire()

    def test_spec_built_bundle_round_trips(self):
        app = _ota_app()
        bundle = build_bundle(OTA_SPEC_V1, app, version=1)
        assert decode_wire(bundle.to_wire()) == bundle


class TestDeltaEncoding:
    @given(base_props=_props, target_props=_props,
           versions=st.tuples(_versions, _versions))
    @settings(max_examples=60, deadline=None)
    def test_delta_reconstructs_exact_target(self, base_props, target_props,
                                             versions):
        base = bundle_from_props(base_props, versions[0])
        target = bundle_from_props(target_props, versions[1])
        delta = base.delta_to(target)
        decoded = decode_wire(delta.to_wire())
        assert isinstance(decoded, BundleDelta)
        assert apply_delta(base, decoded) == target

    @given(props=_props, versions=st.tuples(_versions, _versions))
    @settings(max_examples=30, deadline=None)
    def test_identical_machines_are_omitted_from_the_wire(self, props,
                                                          versions):
        base = bundle_from_props(props, versions[0])
        target = bundle_from_props(props, versions[1])
        delta = base.delta_to(target)
        assert delta.changed == ()
        assert delta.removed == ()
        # Still a faithful encoding of the (re-versioned) target.
        assert apply_delta(base, delta) == target

    def test_delta_against_wrong_base_is_rejected(self):
        app = _ota_app()
        v1 = build_bundle(OTA_SPEC_V1, app, version=1)
        v2 = build_bundle(OTA_SPEC_V2, app, version=2)
        delta = v1.delta_to(v2)
        with pytest.raises(FleetError):
            apply_delta(v2, delta)  # v2 is not the encoded base

    def test_compat_diff_classifies_the_ota_update(self):
        app = _ota_app()
        v1 = build_bundle(OTA_SPEC_V1, app, version=1)
        v2 = build_bundle(OTA_SPEC_V2, app, version=2)
        diff = compat_diff(v1, v2)
        assert diff.changed == ("maxTries_sense_p1",)
        assert diff.added == ("collect_send_p1",)
        assert diff.removed == ()


class TestCorruption:
    @given(props=_props, version=_versions,
           byte_frac=st.floats(min_value=0.0, max_value=1.0,
                               exclude_max=True),
           bit=st.integers(min_value=0, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_payload_bit_flip_rejected_by_crc(self, props, version,
                                              byte_frac, bit):
        wire = bytearray(bundle_from_props(props, version).to_wire())
        header_size = 16
        index = header_size + int(byte_frac * (len(wire) - header_size))
        wire[index] ^= 1 << bit
        with pytest.raises(FleetError):
            decode_wire(bytes(wire))

    def test_truncated_wire_rejected(self):
        wire = build_bundle(OTA_SPEC_V1, _ota_app(), version=1).to_wire()
        with pytest.raises(FleetError):
            decode_wire(wire[:10])
        with pytest.raises(FleetError):
            decode_wire(wire[:-3])

    def test_foreign_magic_rejected(self):
        wire = bytearray(build_bundle(OTA_SPEC_V1, _ota_app(),
                                      version=1).to_wire())
        wire[0:4] = b"ELF\x7f"
        with pytest.raises(FleetError):
            decode_wire(bytes(wire))

    def test_corrupt_update_never_half_installs(self):
        """End to end: a device offered a bit-flipped update rejects it
        whole — the transfer is dropped, the slots never touched, and
        the v1 monitor set keeps running to completion."""
        device, runtime = get_scenario("ota", "artemis").build()
        wire = bytearray(
            build_bundle(OTA_SPEC_V2, _ota_app(), version=2).to_wire())
        wire[40] ^= 0x10
        runtime.push(bytes(wire), 2)
        result = device.run(runtime, runs=2, max_time_s=7200.0)
        assert result.completed
        assert device.trace.count("ota_reject") == 1
        assert device.trace.count("ota_activate") == 0
        assert runtime.installer.active_version == 1
        assert runtime.installer.standby_bundle() is None
        assert not runtime.installer.migration_pending
