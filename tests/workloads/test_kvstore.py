"""The oblivious KV store application."""

import pytest

from repro.analysis.sanitizer import sanitize
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.ct.linearize import SoftwareCTContext
from repro.errors import ProtocolError
from repro.workloads.kvstore import NOT_FOUND, ObliviousKVStore, build_demo_store

SCHEMES = {
    "insecure": InsecureContext,
    "ct": SoftwareCTContext,
    "bia": BIAContext,
}


def make_ctx(kind):
    return SCHEMES[kind](Machine(MachineConfig()))


@pytest.mark.parametrize("kind", sorted(SCHEMES))
class TestFunctional:
    def test_get_existing_keys(self, kind):
        store, pairs = build_demo_store(make_ctx(kind), 200)
        for key, value in pairs[::17]:
            assert store.get(key) == value

    def test_get_missing_key(self, kind):
        store, pairs = build_demo_store(make_ctx(kind), 200)
        absent = max(k for k, _ in pairs) + 1
        assert store.get(absent) == NOT_FOUND
        assert store.get(0) == NOT_FOUND  # below the smallest key

    def test_put_updates_existing(self, kind):
        store, pairs = build_demo_store(make_ctx(kind), 200)
        key = pairs[37][0]
        assert store.put(key, 123456)
        assert store.get(key) == 123456

    def test_put_missing_is_noop(self, kind):
        store, pairs = build_demo_store(make_ctx(kind), 200)
        absent = max(k for k, _ in pairs) + 1
        assert not store.put(absent, 5)
        for key, value in pairs[::29]:
            assert store.get(key) == value

    def test_get_many(self, kind):
        store, pairs = build_demo_store(make_ctx(kind), 128)
        keys = [pairs[0][0], pairs[100][0]]
        assert store.get_many(keys) == [pairs[0][1], pairs[100][1]]


class TestConstruction:
    def test_duplicate_keys_last_wins(self):
        store = ObliviousKVStore(make_ctx("insecure"), [(5, 1), (5, 2)])
        assert store.get(5) == 2

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            ObliviousKVStore(make_ctx("insecure"), [])


class TestObliviousness:
    """The queried key is the secret: a get and a put must look the
    same to the attacker whichever key they name."""

    @staticmethod
    def _sanitize(kind, keys):
        built = {}

        def build(ctx):
            built["store"], _ = build_demo_store(ctx, 256)

        def query(ctx, key):
            store = built["store"]
            store.get(key)
            store.put(key, 7)

        return sanitize(
            lambda: make_ctx(kind), query, secrets=keys, warmup=build
        )

    @staticmethod
    def _pairs():
        return build_demo_store(make_ctx("insecure"), 256)[1]

    @pytest.mark.parametrize("kind", ["ct", "bia"])
    def test_queries_are_trace_equivalent(self, kind):
        pairs = self._pairs()
        report = self._sanitize(kind, (pairs[3][0], pairs[200][0], 12345))
        assert report.clean, report.describe()

    def test_insecure_queries_leak(self):
        pairs = self._pairs()
        report = self._sanitize("insecure", (pairs[3][0], pairs[200][0]))
        assert not report.clean

    def test_hit_and_miss_look_identical(self):
        # a miss probing near the hit key's position
        key = self._pairs()[50][0]
        report = self._sanitize("bia", (key, key + 1))
        assert report.clean, report.describe()
