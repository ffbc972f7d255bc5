"""Tests for GRRP: messages, soft-state registry, registrant, failure detector."""

import pytest
from hypothesis import given, strategies as st

from repro.grip import (
    FailureDetector,
    GrrpError,
    GrrpMessage,
    Inviter,
    NotificationType,
    Registrant,
    SoftStateRegistry,
    registration_dn,
)
from repro.ldap.dn import DN
from repro.net.sim import Simulator


def msg(url="ldap://p1:2135/", ts=0.0, ttl=30.0, kind=NotificationType.REGISTER, **meta):
    return GrrpMessage(
        service_url=url,
        notification_type=kind,
        timestamp=ts,
        valid_until=ts + ttl,
        metadata=dict(meta),
    )


class TestGrrpMessage:
    def test_bytes_roundtrip(self):
        m = msg(suffix="o=Grid", vo="VO-A")
        assert GrrpMessage.from_bytes(m.to_bytes()) == m

    def test_entry_roundtrip(self):
        m = msg(suffix="o=Grid")
        entry = m.to_entry("mds-vo-name=VO-A")
        assert entry.dn.is_within(DN.parse("mds-vo-name=VO-A"))
        assert GrrpMessage.is_registration_entry(entry)
        back = GrrpMessage.from_entry(entry)
        assert back == m

    def test_registration_dn(self):
        dn = registration_dn("ldap://p1:2135/", "o=VO")
        assert dn.rdn.attr == "regid"
        assert dn.parent() == DN.parse("o=VO")

    def test_validity_window(self):
        m = msg(ts=10.0, ttl=5.0)
        assert not m.is_valid_at(9.0)
        assert m.is_valid_at(12.0)
        assert not m.is_valid_at(16.0)

    def test_refreshed_preserves_ttl(self):
        m = msg(ts=0.0, ttl=30.0).refreshed(100.0)
        assert m.timestamp == 100.0
        assert m.valid_until == 130.0

    def test_bad_type_rejected(self):
        with pytest.raises(GrrpError):
            GrrpMessage(service_url="u", notification_type="bogus")

    def test_empty_url_rejected(self):
        with pytest.raises(GrrpError):
            GrrpMessage(service_url="")

    def test_malformed_bytes(self):
        with pytest.raises(GrrpError):
            GrrpMessage.from_bytes(b"not json")

    def test_entry_without_url(self):
        from repro.ldap.entry import Entry

        with pytest.raises(GrrpError):
            GrrpMessage.from_entry(Entry("regid=x", objectclass="giisregistration"))

    @given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0.1, max_value=1e4))
    def test_ttl_property(self, ts, ttl):
        m = msg(ts=ts, ttl=ttl)
        assert m.ttl == pytest.approx(ttl)


class TestSoftStateRegistry:
    def test_register_and_lookup(self):
        sim = Simulator()
        reg = SoftStateRegistry(sim)
        assert reg.apply(msg(ts=0.0, ttl=30.0))
        assert reg.is_registered("ldap://p1:2135/")
        assert len(reg) == 1

    def test_expiry_without_refresh(self):
        sim = Simulator()
        reg = SoftStateRegistry(sim)
        reg.apply(msg(ts=0.0, ttl=30.0))
        sim.run_until(31.0)
        assert not reg.is_registered("ldap://p1:2135/")
        assert reg.metrics.counter("grrp.expired").value == 1

    def test_refresh_extends(self):
        sim = Simulator()
        reg = SoftStateRegistry(sim)
        reg.apply(msg(ts=0.0, ttl=30.0))
        sim.run_until(25.0)
        reg.apply(msg(ts=25.0, ttl=30.0))
        sim.run_until(40.0)
        assert reg.is_registered("ldap://p1:2135/")
        assert reg.lookup("ldap://p1:2135/").refresh_count == 1

    def test_grace_factor(self):
        sim = Simulator()
        reg = SoftStateRegistry(sim, grace=1.0)  # tolerate one missed refresh
        reg.apply(msg(ts=0.0, ttl=30.0))
        sim.run_until(45.0)
        assert reg.is_registered("ldap://p1:2135/")
        sim.run_until(61.0)
        assert not reg.is_registered("ldap://p1:2135/")

    def test_unregister(self):
        sim = Simulator()
        dropped = []
        reg = SoftStateRegistry(sim, on_unregister=dropped.append)
        reg.apply(msg(ts=0.0))
        reg.apply(msg(ts=1.0, ttl=0.0, kind=NotificationType.UNREGISTER))
        assert len(reg) == 0
        assert len(dropped) == 1

    def test_unregister_unknown_is_noop(self):
        sim = Simulator()
        reg = SoftStateRegistry(sim)
        assert not reg.apply(msg(kind=NotificationType.UNREGISTER, ttl=0.0))

    def test_already_expired_message_rejected(self):
        sim = Simulator()
        sim.run_until(100.0)
        reg = SoftStateRegistry(sim)
        assert not reg.apply(msg(ts=0.0, ttl=30.0))
        assert reg.metrics.counter("grrp.rejected").value == 1

    def test_membership_policy(self):
        # §2.3: collection administrators control membership.
        sim = Simulator()
        reg = SoftStateRegistry(
            sim, accept=lambda m, ident: m.metadata.get("vo") == "VO-A"
        )
        assert reg.apply(msg(url="u1", vo="VO-A"))
        assert not reg.apply(msg(url="u2", vo="VO-B"))
        assert reg.active_urls() == ["u1"]

    def test_periodic_purge_fires_callbacks(self):
        sim = Simulator()
        expired = []
        reg = SoftStateRegistry(
            sim, purge_interval=5.0, on_expire=expired.append
        )
        reg.apply(msg(ts=0.0, ttl=12.0))
        reg.start()
        sim.run_until(20.0)
        reg.stop()
        assert len(expired) == 1
        # Timely: detected at the first sweep after expiry (t=15).
        assert sim.now() >= 15.0

    def test_on_register_only_for_new(self):
        sim = Simulator()
        registered = []
        reg = SoftStateRegistry(sim, on_register=registered.append)
        reg.apply(msg(ts=0.0))
        reg.apply(msg(ts=1.0))
        assert len(registered) == 1

    def test_invite_is_not_state(self):
        sim = Simulator()
        reg = SoftStateRegistry(sim)
        assert not reg.apply(msg(kind=NotificationType.INVITE))
        assert len(reg) == 0

    def test_start_without_interval(self):
        with pytest.raises(ValueError):
            SoftStateRegistry(Simulator()).start()


class TestRegistrant:
    def make(self, sim, interval=10.0, ttl=30.0, **kw):
        sent = []

        def send(directory, message):
            sent.append((sim.now(), directory, message))

        reg = Registrant(
            sim, "ldap://gris:2135/", send, interval=interval, ttl=ttl, **kw
        )
        return reg, sent

    def test_sustained_stream(self):
        sim = Simulator()
        reg, sent = self.make(sim)
        reg.register_with("dirA")
        sim.run_until(35.0)
        reg.stop()
        times = [t for t, d, m in sent]
        assert times == [0.0, 10.0, 20.0, 30.0]
        assert all(m.notification_type == NotificationType.REGISTER for _, _, m in sent)

    def test_multiple_directories(self):
        sim = Simulator()
        reg, sent = self.make(sim)
        reg.register_with("dirA")
        reg.register_with("dirB")
        sim.run_until(10.0)
        reg.stop()
        assert {d for _, d, _ in sent} == {"dirA", "dirB"}
        assert sorted(reg.directories()) == []  # stopped

    def test_duplicate_register_is_noop(self):
        sim = Simulator()
        reg, sent = self.make(sim)
        reg.register_with("dirA")
        reg.register_with("dirA")
        sim.run_until(0.0)
        assert len(sent) == 1

    def test_deregister_sends_unregister(self):
        sim = Simulator()
        reg, sent = self.make(sim)
        reg.register_with("dirA")
        reg.deregister_from("dirA")
        sim.run_until(50.0)
        kinds = [m.notification_type for _, _, m in sent]
        assert kinds == [NotificationType.REGISTER, NotificationType.UNREGISTER]

    def test_jitter_stays_positive(self):
        sim = Simulator(seed=7)
        reg, sent = self.make(sim, interval=10.0, jitter=9.0)
        reg.rng.seed(3)
        reg.register_with("dirA")
        sim.run_until(200.0)
        reg.stop()
        gaps = [b[0] - a[0] for a, b in zip(sent, sent[1:])]
        assert all(g >= 1.0 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1  # actually jittered

    def test_invitation_turnaround(self):
        sim = Simulator()
        reg, sent = self.make(sim)
        invite = msg(
            url="ldap://giis:2135/", kind=NotificationType.INVITE, vo="VO-A"
        )
        assert reg.handle_invitation("ldap://giis:2135/", invite)
        sim.run_until(0.0)
        assert sent and sent[0][1] == "ldap://giis:2135/"

    def test_invitation_policy_refusal(self):
        sim = Simulator()
        reg, sent = self.make(
            sim, accept_invitation=lambda d, m: m.metadata.get("vo") == "VO-A"
        )
        bad = msg(url="x", kind=NotificationType.INVITE, vo="VO-B")
        assert not reg.handle_invitation("x", bad)
        assert reg.directories() == []

    def test_non_invite_rejected_by_handler(self):
        sim = Simulator()
        reg, _ = self.make(sim)
        assert not reg.handle_invitation("d", msg())

    def test_bad_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Registrant(sim, "u", lambda d, m: None, interval=0)


class TestInviter:
    def test_invite_message_shape(self):
        sim = Simulator()
        sent = []
        inv = Inviter(sim, "ldap://giis:2135/", lambda d, m: sent.append((d, m)))
        inv.invite("ldap://gris:2135/", vo="VO-A")
        (target, message) = sent[0]
        assert target == "ldap://gris:2135/"
        assert message.notification_type == NotificationType.INVITE
        assert message.metadata["directory"] == "ldap://giis:2135/"
        assert message.metadata["vo"] == "VO-A"


class TestEndToEndSoftState:
    def test_registrant_feeds_registry(self):
        """Registrant -> (function transport) -> registry stays alive,
        then expires after the registrant stops."""
        sim = Simulator()
        registry = SoftStateRegistry(sim, purge_interval=5.0)
        registry.start()

        reg = Registrant(
            sim,
            "ldap://gris:2135/",
            lambda d, m: registry.apply(m),
            interval=10.0,
            ttl=25.0,
        )
        reg.register_with("theVO")
        sim.run_until(100.0)
        assert registry.is_registered("ldap://gris:2135/")
        reg.stop()  # silent stop: no unregister; soft state must expire it
        sim.run_until(200.0)
        assert not registry.is_registered("ldap://gris:2135/")
        registry.stop()


class TestFailureDetector:
    def test_silent_producer_suspected(self):
        sim = Simulator()
        fd = FailureDetector(sim, timeout=30.0)
        fd.heartbeat("p1")
        sim.run_until(31.0)
        assert fd.check() == ["p1"]
        assert fd.is_suspect("p1")

    def test_heartbeat_revokes_suspicion(self):
        sim = Simulator()
        fd = FailureDetector(sim, timeout=30.0)
        fd.heartbeat("p1")
        sim.run_until(40.0)
        fd.check()
        fd.heartbeat("p1")
        assert not fd.is_suspect("p1")
        assert fd.false_suspicions() == 1

    def test_unknown_producer_is_suspect(self):
        fd = FailureDetector(Simulator(), timeout=10.0)
        assert fd.is_suspect("never-seen")

    def test_periodic_checking(self):
        sim = Simulator()
        events = []
        fd = FailureDetector(sim, timeout=20.0, on_suspect=events.append)
        fd.heartbeat("p1")
        fd.start()
        sim.run_until(100.0)
        fd.stop()
        assert len(events) == 1
        suspicion = events[0]
        assert suspicion.suspected
        # periodic checks bound detection delay by check_interval
        assert suspicion.when <= 20.0 + fd.check_interval + 1e-9

    def test_detection_latency(self):
        sim = Simulator()
        fd = FailureDetector(sim, timeout=20.0, check_interval=1.0)
        fd.heartbeat("p1")
        fd.start()
        # producer "fails" at t=0 (no more heartbeats)
        sim.run_until(100.0)
        fd.stop()
        latency = fd.detection_latency("p1", failed_at=0.0)
        assert latency is not None
        assert 20.0 <= latency <= 22.0

    def test_alive_listing(self):
        sim = Simulator()
        fd = FailureDetector(sim, timeout=10.0)
        fd.heartbeat("a")
        fd.heartbeat("b")
        sim.run_until(5.0)
        fd.heartbeat("a")
        sim.run_until(12.0)
        assert fd.alive() == ["a"]
        assert set(fd.monitored()) == {"a", "b"}

    def test_forget(self):
        sim = Simulator()
        fd = FailureDetector(sim, timeout=10.0)
        fd.heartbeat("a")
        fd.forget("a")
        assert fd.monitored() == []

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            FailureDetector(Simulator(), timeout=0)
