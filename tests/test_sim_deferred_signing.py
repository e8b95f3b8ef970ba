"""Sign on demand: an honestly signed message computes its HMAC on first read.

``Message.create_signed`` and ``Message.signed`` record the signer's key
and the verdict "verifies under that key"; the tag itself is computed the
first time anything reads ``auth_tag``.  These tests pin that the deferred
message is indistinguishable from the eagerly signed one wherever the tag
is observed, that tampered and fuzzed replicas still fail verification
against the genuine tag, and -- with an exact ``hmac.digest`` counter --
that a flood whose frames nobody compares costs no digest at all.
"""

import dataclasses
import hmac
import pickle

import pytest

from repro.engine import run_campaign
from repro.engine.registry import default_registry
from repro.sim.attacks import TamperingAttack
from repro.sim.clock import SimClock
from repro.sim.controls.authentication import SenderAuthentication
from repro.sim.crypto import KeyStore, compute_mac
from repro.sim.events import EventBus
from repro.sim.network import Channel, Message
from repro.tara.fuzzing import MessageFuzzer

FIELDS = dict(
    kind="road_works_warning",
    sender="rsu",
    payload={"zone_start_m": 1500.0, "speed_limit_mps": 8.33},
    counter=7,
    timestamp=250.0,
    location="rsu-site",
)


@pytest.fixture()
def keystore():
    keystore = KeyStore()
    keystore.provision("rsu")
    return keystore


def _deferred(keystore):
    return Message.create_signed(keystore, **FIELDS)


def _eager(keystore, unique_id):
    """The eager spelling: the tag computed up front and passed in."""
    unsigned = Message(**FIELDS, unique_id=unique_id)
    tag = compute_mac(keystore.key_of("rsu"), unsigned.signing_bytes())
    return dataclasses.replace(unsigned, auth_tag=tag)


def _is_deferred(message):
    return "auth_tag" not in vars(message)


class TestDeferredTag:
    def test_tag_is_not_computed_at_construction(self, keystore):
        message = _deferred(keystore)
        assert _is_deferred(message)
        assert message.carries_tag()
        assert message.mac_verified(keystore.key_of("rsu"))
        assert _is_deferred(message)

    def test_tag_equals_the_eager_hmac(self, keystore):
        message = _deferred(keystore)
        key = keystore.key_of("rsu")
        assert message.auth_tag == compute_mac(key, message.signing_bytes())
        assert message.auth_tag == _eager(keystore, message.unique_id).auth_tag
        assert not _is_deferred(message)

    def test_signed_is_deferred_and_keeps_unique_id(self, keystore):
        original = Message(**FIELDS)
        signed = original.signed(keystore)
        assert _is_deferred(signed)
        assert signed.unique_id == original.unique_id
        assert signed == _eager(keystore, original.unique_id)

    def test_create_signed_consumes_one_unique_id(self, keystore):
        first = _deferred(keystore)
        second = _deferred(keystore)
        assert second.unique_id == first.unique_id + 1

    def test_unsigned_message_reads_empty_tag(self):
        message = Message(kind="k", sender="s", payload={})
        assert message.auth_tag == ""
        assert not message.carries_tag()


class TestDataclassSurface:
    """Everything that reads ``auth_tag`` sees the real tag."""

    def test_eq_and_repr(self, keystore):
        message = _deferred(keystore)
        eager = _eager(keystore, message.unique_id)
        assert message == eager
        assert repr(message) == repr(eager)

    def test_hash_matches_eager(self, keystore):
        # A dict payload makes every Message unhashable, signed or not.
        message = _deferred(keystore)
        eager = _eager(keystore, message.unique_id)
        for candidate in (message, eager):
            with pytest.raises(TypeError, match="unhashable"):
                hash(candidate)

    def test_replace_carries_the_real_tag(self, keystore):
        message = _deferred(keystore)
        eager = _eager(keystore, message.unique_id)
        assert dataclasses.replace(message, location="x") == (
            dataclasses.replace(eager, location="x")
        )
        assert dataclasses.fields(Message)[5].default == ""

    def test_pickle_round_trip(self, keystore):
        message = _deferred(keystore)
        eager = _eager(keystore, message.unique_id)
        restored = pickle.loads(pickle.dumps(message))
        assert restored == message == eager
        assert restored.mac_verified(keystore.key_of("rsu"))
        # == read the tag, so a second pickle carries it as a field.
        forced = pickle.loads(pickle.dumps(message))
        assert vars(forced)["auth_tag"] == eager.auth_tag


class TestReplicasFailHonestly:
    def test_tampered_replica_is_denied(self, keystore):
        clock = SimClock()
        channel = Channel("v2x", clock, EventBus(), latency_ms=1.0)
        received = []

        class Sink:
            name = "sink"
            receive = staticmethod(received.append)

        channel.attach(Sink())
        attack = TamperingAttack(
            "mitm", clock, channel, target_kinds={FIELDS["kind"]},
            mutator=lambda p: {**p, "speed_limit_mps": 99.0},
        )
        attack.launch(0.0)
        clock.schedule_at(
            FIELDS["timestamp"], lambda: channel.send(_deferred(keystore))
        )
        clock.run()
        original, tampered = received
        control = SenderAuthentication(keystore)
        assert control.inspect(original, clock.now).allowed
        assert tampered.auth_tag == original.auth_tag
        verdict = control.inspect(tampered, clock.now)
        assert not verdict.allowed
        assert "MAC verification failed" in verdict.reason

    @pytest.mark.parametrize("operator", ["corrupt_mac", "strip_mac"])
    def test_fuzzed_mac_mutants_are_denied(self, keystore, operator):
        message = _deferred(keystore)
        cases = {
            case.operator: case.message
            for case in MessageFuzzer(seed=3).mutate(message)
        }
        mutant = cases[operator]
        assert mutant.auth_tag != message.auth_tag
        control = SenderAuthentication(keystore)
        assert control.inspect(message, 0.0).allowed
        assert not control.inspect(mutant, 0.0).allowed


def test_stock_control_flood_computes_no_hmac(monkeypatch):
    """Exact work counter: a flood against the full stock control set
    (the short AD20-style ``flood-all`` ablation) signs ~12k frames, the
    flooding detector denies nearly all of them and sender authentication
    checks the rest under their signers' keys -- no tag is ever compared,
    so no HMAC is ever digested (eager signing paid one per frame)."""
    calls = 0
    digest = hmac.digest

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return digest(*args, **kwargs)

    variants = [
        variant
        for variant in default_registry().variants()
        if variant.variant_id == "uc1/control-ablation/flood-all"
    ]
    monkeypatch.setattr(hmac, "digest", counted)
    (outcome,) = run_campaign(variants, backend="serial").outcomes
    assert outcome.verdict == "ATTACK_FAILED"
    assert outcome.stats["v2x"]["sent"] > 10_000
    assert outcome.stats["obu"]["processed"] > 0  # frames reached sender-auth
    assert calls == 0
