"""DomainVirtualizer: slot recycling, eviction policy, generation guard.

Unit coverage for DESIGN §3.17 — logical tenants multiplexed over a
bounded physical slot pool.  The properties under test are the three
safety mechanisms: generation counters hard-fault stale cores,
flush-on-reuse is transactional (an aborted bind leaks nothing, not
even the free-list slot), and saturation degrades to LRU eviction plus
catchable backpressure rather than a crash or a silent reuse.
"""

import pytest

from repro.core import (
    AccessInfo,
    DomainVirtualizer,
    GateKind,
    SlotExhausted,
    StaleGenerationFault,
    TenantManifest,
)
from repro.core.errors import ConfigurationError, InjectedFault
from repro.core.pcu import DOMAIN_0
from repro.faults import FaultyWordBacking, IntegrityScrubber


@pytest.fixture
def virtualizer(manager):
    return DomainVirtualizer(manager, max_slots=3)


def spawn_bound(virtualizer, *classes):
    """Spawn a tenant with the given instruction grants and bind it."""
    logical = virtualizer.spawn(TenantManifest(instructions=set(classes)))
    return logical, virtualizer.activate(logical)


def enter(virtualizer, physical):
    """Drive the core through the slot's registered gate (HCCALL)."""
    pcu = virtualizer.pcu
    target, _stall = pcu.execute_gate(
        GateKind.HCCALL, virtualizer.gate_id_of(physical),
        virtualizer.gate_address_of(physical), None)
    assert target == virtualizer.dest_address_of(physical)
    assert pcu.current_domain == physical


class TestBinding:
    def test_activate_binds_and_replays_manifest(self, virtualizer, manager):
        logical, physical = spawn_bound(virtualizer, "alu", "load")
        assert virtualizer.bindings[logical] == physical
        assert virtualizer.slot_owner[physical] == logical
        assert manager.domains[physical].instructions == {"alu", "load"}
        assert virtualizer.stats.binds == 1

    def test_activate_is_idempotent_while_bound(self, virtualizer):
        logical, physical = spawn_bound(virtualizer, "alu")
        assert virtualizer.activate(logical) == physical
        assert virtualizer.stats.binds == 1

    def test_retire_recycles_slot_and_bumps_generation(self, virtualizer):
        logical, physical = spawn_bound(virtualizer, "alu")
        address = virtualizer.generation_address_of(physical)
        memory = virtualizer.pcu.trusted_memory
        assert virtualizer.generations[physical] == 0
        assert memory.load_word(address) == 0
        virtualizer.retire(logical)
        # Generation advanced in both the trusted word and the mirror,
        # and the slot went back on the free list for the next tenant.
        assert virtualizer.generations[physical] == 1
        assert memory.load_word(address) == 1
        assert physical in virtualizer.free_slots
        assert physical not in virtualizer.slot_owner
        assert virtualizer.stats.recycles == 1

    def test_recycled_slot_serves_fresh_manifest_only(self, virtualizer,
                                                      manager):
        first, physical = spawn_bound(virtualizer, "alu", "store")
        virtualizer.retire(first)
        second, rebound = spawn_bound(virtualizer, "load")
        assert rebound == physical  # FIFO free list reuses the slot
        assert manager.domains[physical].instructions == {"load"}

    def test_reconfig_tracks_manifest_and_bound_slot(self, virtualizer,
                                                     manager):
        logical, physical = spawn_bound(virtualizer, "alu")
        virtualizer.allow_instructions(logical, ["store"])
        virtualizer.deny_instruction(logical, "alu")
        virtualizer.grant_register(logical, "ctrl", read=True)
        assert manager.domains[physical].instructions == {"store"}
        assert manager.domains[physical].readable_csrs == {"ctrl"}
        assert virtualizer.tenants[logical].instructions == {"store"}
        assert virtualizer.slot_conforms(physical)

    def test_unknown_tenant_is_a_configuration_error(self, virtualizer):
        with pytest.raises(ConfigurationError):
            virtualizer.activate(999)
        with pytest.raises(ConfigurationError):
            virtualizer.retire(999)


class TestEviction:
    def test_lru_victim_is_least_recently_activated(self, virtualizer):
        t1, p1 = spawn_bound(virtualizer, "alu")
        t2, p2 = spawn_bound(virtualizer, "alu")
        t3, p3 = spawn_bound(virtualizer, "alu")
        virtualizer.activate(t1)  # freshen t1; t2 becomes the LRU
        t4, p4 = spawn_bound(virtualizer, "alu")
        assert p4 == p2  # t2's slot was recycled
        assert t2 not in virtualizer.bindings
        assert virtualizer.bindings[t1] == p1
        assert virtualizer.stats.slot_exhausted == 1
        assert virtualizer.stats.evictions == 1
        # The evicted tenant is only unbound, not destroyed: touching it
        # again transparently rebinds.
        assert virtualizer.activate(t2) in (p1, p2, p3, p4)

    def test_pinned_tenants_survive_saturation(self, virtualizer):
        tenants = [spawn_bound(virtualizer, "alu") for _ in range(3)]
        for logical, _ in tenants:
            virtualizer.pin(logical)
        before = virtualizer.stats.slot_exhausted
        overflow = virtualizer.spawn(TenantManifest())
        with pytest.raises(SlotExhausted):
            virtualizer.activate(overflow)
        assert virtualizer.stats.slot_exhausted == before + 1
        # Backpressure is recoverable: unpinning makes room again.
        virtualizer.unpin(tenants[0][0])
        assert virtualizer.activate(overflow) == tenants[0][1]

    def test_core_resident_slot_is_never_evicted(self, virtualizer):
        t1, p1 = spawn_bound(virtualizer, "alu")
        enter(virtualizer, p1)
        t2, p2 = spawn_bound(virtualizer, "alu")
        t3, p3 = spawn_bound(virtualizer, "alu")
        # t1 is the oldest binding but the core sits inside it (and the
        # slots pool is saturated) — the victim must be another slot.
        t4, p4 = spawn_bound(virtualizer, "alu")
        assert virtualizer.bindings[t1] == p1
        assert p4 != p1


class TestGenerationGuard:
    def test_check_after_recycle_hard_faults(self, virtualizer):
        logical, physical = spawn_bound(virtualizer, "alu")
        enter(virtualizer, physical)
        virtualizer.pcu.check(AccessInfo(0))  # granted, current generation
        virtualizer.retire(logical)  # recycles the slot under the core
        with pytest.raises(StaleGenerationFault) as excinfo:
            virtualizer.pcu.check(AccessInfo(0))
        assert excinfo.value.domain == physical

    def test_gate_after_recycle_hard_faults(self, virtualizer):
        t1, p1 = spawn_bound(virtualizer, "alu")
        t2, p2 = spawn_bound(virtualizer, "alu")
        enter(virtualizer, p1)
        virtualizer.retire(t1)
        with pytest.raises(StaleGenerationFault):
            virtualizer.pcu.execute_gate(
                GateKind.HCCALL, virtualizer.gate_id_of(p2),
                virtualizer.gate_address_of(p2), None)

    def test_rebound_slot_still_faults_the_stale_core(self, virtualizer):
        """The ABA case: the slot has a *new* live tenant, but the core
        entered under the old generation — it must never be served the
        new tenant's verdicts."""
        old, physical = spawn_bound(virtualizer, "alu")
        enter(virtualizer, physical)
        virtualizer.retire(old)
        new, rebound = spawn_bound(virtualizer, "alu", "store")
        assert rebound == physical
        with pytest.raises(StaleGenerationFault):
            virtualizer.pcu.check(AccessInfo(0))

    def test_reentering_after_recycle_is_clean(self, virtualizer):
        old, physical = spawn_bound(virtualizer, "alu")
        virtualizer.retire(old)
        new, rebound = spawn_bound(virtualizer, "alu")
        assert rebound == physical
        enter(virtualizer, physical)  # latches the bumped generation
        virtualizer.pcu.check(AccessInfo(0))


class TestTransactionality:
    def test_aborted_bind_returns_slot_to_free_list(self, virtualizer):
        logical = virtualizer.spawn(TenantManifest(instructions={"alu"}))
        fired = []

        def blow_up(physical):
            fired.append(physical)
            raise InjectedFault("store fault in the recycle window")

        virtualizer._recycle_window = blow_up
        with pytest.raises(InjectedFault):
            virtualizer.activate(logical)
        (physical,) = fired
        # Nothing leaked: the slot is free again, no binding recorded.
        assert virtualizer.free_slots[0] == physical
        assert physical not in virtualizer.slot_owner
        assert logical not in virtualizer.bindings
        # And the retry deterministically reuses the same slot.
        virtualizer._recycle_window = lambda physical: None
        assert virtualizer.activate(logical) == physical

    def test_faulted_first_bind_keeps_its_slot(self, manager):
        # The new slot's generation-word store faults before any
        # transaction opens.  The slot must stay in the pool: with one
        # slot, a leak would make the retry raise SlotExhausted.
        virtualizer = DomainVirtualizer(manager, max_slots=1)
        memory = manager.pcu.trusted_memory
        backing = FaultyWordBacking(memory._backing)
        memory._backing = backing
        logical = virtualizer.spawn(TenantManifest(instructions={"alu"}))
        backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            virtualizer.activate(logical)
        (physical,) = virtualizer._slot_index
        assert virtualizer.free_slots == [physical]
        assert not virtualizer.bindings
        assert IntegrityScrubber(manager.pcu, manager).scrub(
            repair=False).clean
        assert virtualizer.activate(logical) == physical
        assert virtualizer._slot_index == {physical: 0}
        assert virtualizer.free_slots == []
        assert manager.domains[physical].instructions == {"alu"}

    def test_refresh_slot_repairs_a_dropped_flush(self, virtualizer,
                                                  manager):
        logical, physical = spawn_bound(virtualizer, "alu")
        # A stale grant the tenant never asked for (dropped flush).
        manager.allow_instructions(physical, ["halt"])
        assert not virtualizer.slot_conforms(physical)
        virtualizer.refresh_slot(physical)
        assert virtualizer.slot_conforms(physical)
        assert manager.domains[physical].instructions == {"alu"}


class TestConstruction:
    def test_slot_budget_is_validated(self, manager):
        with pytest.raises(ConfigurationError):
            DomainVirtualizer(manager, max_slots=0)
        with pytest.raises(ConfigurationError):
            DomainVirtualizer(manager,
                              max_slots=manager.pcu.config.max_domains)

    def test_install_wires_pcu_and_manager(self, virtualizer, manager):
        assert manager.virtualizer is virtualizer
        assert manager.pcu.generation_table is virtualizer.generations
