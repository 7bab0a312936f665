"""FaultSession: the plumbing every fault campaign family shares."""

import types

import repro.faults as faults
from repro.conformance import CONFORMANCE_CONFIGS, ConformanceWorld, make_backend
from repro.conformance.events import Event
from repro.faults import FaultSession, FaultSpec


def session_over_conformance_world():
    world = ConformanceWorld(make_backend("riscv"),
                             CONFORMANCE_CONFIGS["stress"])
    specs = [FaultSpec(kind="hpt_inst_bit", trigger=10_000),
             FaultSpec(kind="store_fault", trigger=10_000)]
    return world, FaultSession(world, specs, contracts=False, seed=0,
                               campaign=0)


class TestOwnerlessStoreFault:
    """A store fault armed on the backing with no owner (as a test arms
    it by hand) is credited to the first store-kind injector."""

    def test_rollback_is_credited_to_the_store_fault_injector(self):
        world, session = session_over_conformance_world()
        session.backing.arm_store_fault()
        # allow_inst runs inside a domain-0 transaction, which rolls back.
        event = Event("allow_inst", domain=1, inst=3)
        assert session.run(world.apply, event) is None
        hpt, store = session.injectors
        assert (hpt.rollbacks_seen, store.rollbacks_seen) == (0, 1)
        assert session.escaped_faults == 0
        assert hpt.detail == "not triggered"
        assert store.detail.endswith("reconfiguration rolled back")

    def test_store_outside_a_transaction_escapes(self):
        world, session = session_over_conformance_world()
        world.apply(Event("register_gate", gate=0, domain=1))
        session.backing.arm_store_fault()
        # The hccalls trusted-stack push runs outside any transaction.
        event = Event("gate", kind="hccalls", gate=0, address=0x9000)
        assert session.run(world.apply, event) is None
        hpt, store = session.injectors
        assert session.escaped_faults == 1
        assert (hpt.rollbacks_seen, store.rollbacks_seen) == (0, 0)
        assert hpt.detail == "not triggered"
        assert "fired outside any transaction" in store.detail


class TestPackageSurface:
    def test_all_lists_exactly_the_public_imports(self):
        public = {name for name, value in vars(faults).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)}
        assert public == set(faults.__all__)
        assert len(faults.__all__) == len(set(faults.__all__))
        for name in faults.__all__:
            assert hasattr(faults, name), name
