"""Sealable one-way privileges: the seal survives everything but teardown.

``DomainManager.seal_privileges`` drops a privilege below every verdict
path — the seal words in trusted memory are ANDed out of each HPT read,
so re-grants from domain-0, transactional rollback and trusted-stack
context switches must all leave a sealed privilege dead.  Only a full
slot teardown (destroy / virtualizer recycle) retires the overlay.
"""

import pytest

from repro.core import (
    AccessInfo,
    BitMaskViolationFault,
    ConfigurationError,
    DomainVirtualizer,
    GateKind,
    InjectedFault,
    InstructionPrivilegeFault,
    RegisterReadFault,
    RegisterWriteFault,
    TenantManifest,
)
from repro.faults import FaultyWordBacking

from .test_pcu import enter


@pytest.fixture
def faulty_backing(trusted_memory):
    backing = FaultyWordBacking(trusted_memory._backing)
    trusted_memory._backing = backing
    return backing


@pytest.fixture
def sealed_domain(manager):
    """A domain granted alu+halt+csr and vbase r/w, with halt and the
    vbase read side sealed afterwards."""
    domain = manager.create_domain("tenant")
    manager.allow_instructions(domain.domain_id, ["alu", "halt", "csr"])
    manager.grant_register(domain.domain_id, "vbase", read=True, write=True)
    manager.seal_privileges(domain.domain_id, instructions=["halt"],
                            csrs=["vbase"], read=True, write=False)
    return domain


def halt_access(isa_map):
    return AccessInfo(inst_class=isa_map.inst_class("halt"))


def vbase_read(isa_map):
    return AccessInfo(inst_class=isa_map.inst_class("csr"),
                      csr=isa_map.csr_index("vbase"), csr_read=True)


class TestOneWaySeal:
    def test_sealed_instruction_faults(self, pcu, manager, isa_map,
                                       sealed_domain):
        enter(pcu, manager, sealed_domain.domain_id)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(halt_access(isa_map))

    def test_regrant_does_not_unseal(self, pcu, manager, isa_map,
                                     sealed_domain):
        manager.allow_instructions(sealed_domain.domain_id, ["halt"])
        manager.grant_register(sealed_domain.domain_id, "vbase",
                               read=True, write=True)
        enter(pcu, manager, sealed_domain.domain_id)
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(halt_access(isa_map))
        with pytest.raises(RegisterReadFault):
            pcu.check(vbase_read(isa_map))

    def test_unsealed_side_still_granted(self, pcu, manager, isa_map,
                                         sealed_domain):
        """Only the read side of vbase was sealed; writes stay live."""
        enter(pcu, manager, sealed_domain.domain_id)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("csr"),
                             csr=isa_map.csr_index("vbase"), csr_write=True,
                             write_value=1, old_value=0))

    def test_seal_reported(self, manager, sealed_domain):
        overlay = manager.sealed_privileges(sealed_domain.domain_id)
        assert overlay["instructions"] == {"halt"}
        assert overlay["read_csrs"] == {"vbase"}
        assert overlay["write_csrs"] == set()

    def test_descriptor_keeps_grant_intent(self, manager, sealed_domain):
        """The descriptor records grants; the seal is an overlay."""
        assert "halt" in sealed_domain.instructions

    def test_domain0_cannot_be_sealed(self, manager):
        with pytest.raises(ConfigurationError):
            manager.seal_privileges(0, instructions=["alu"])

    def test_seal_beats_warm_cache(self, pcu, manager, isa_map):
        """A verdict cached pre-seal must not survive the seal."""
        domain = manager.create_domain("warm")
        manager.allow_instructions(domain.domain_id, ["halt"])
        enter(pcu, manager, domain.domain_id)
        pcu.check(halt_access(isa_map))  # warms bypass/caches
        manager.seal_privileges(domain.domain_id, instructions=["halt"])
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(halt_access(isa_map))


class TestSealVsRollback:
    def test_aborted_transaction_cannot_unseal(self, pcu, manager, isa_map,
                                               sealed_domain,
                                               faulty_backing):
        """A domain-0 transaction that faults mid-flight rolls back its
        journalled stores — the journal-bypassed seal words must not be
        'restored' to their pre-seal values alongside them."""
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            manager.allow_instructions(sealed_domain.domain_id,
                                       ["halt", "load"])
        assert pcu.stats.reconfig_rollbacks == 1
        enter(pcu, manager, sealed_domain.domain_id)
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(halt_access(isa_map))

    def test_faulted_seal_store_repairs_toward_sealed(self, pcu, manager,
                                                      isa_map,
                                                      faulty_backing):
        """Seal stores are mirror-first: a faulting trusted-memory store
        leaves the mirror ahead of memory, so the scrubber's next pass
        repairs memory *toward* the sealed state — the seal completes,
        it never silently unwinds."""
        from repro.faults.scrub import IntegrityScrubber

        domain = manager.create_domain("tenant")
        manager.allow_instructions(domain.domain_id, ["halt"])
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            manager.seal_privileges(domain.domain_id, instructions=["halt"])
        report = IntegrityScrubber(pcu, manager).scrub()
        assert report.memory_repairs
        enter(pcu, manager, domain.domain_id)
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(halt_access(isa_map))

    def test_repaired_seal_retires_to_the_grant(self, pcu, manager,
                                                faulty_backing):
        """The repair of a faulted seal writes the seal word and leaves
        the granted word whole, so once a recycle retires the seal,
        trusted memory agrees with domain-0's mirrors again."""
        from repro.faults.scrub import IntegrityScrubber

        virtualizer = DomainVirtualizer(manager, max_slots=1)
        tenant = virtualizer.spawn(TenantManifest(instructions={"halt"}))
        virtualizer.activate(tenant)
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            virtualizer.seal_privileges(tenant, instructions=["halt"])
        assert IntegrityScrubber(pcu, manager).scrub().memory_repairs
        virtualizer.retire(tenant)
        assert IntegrityScrubber(pcu, manager).scrub(repair=False).clean


class TestSealedMaskedCsr:
    def test_sealed_write_mask_zeroed(self, pcu, manager, isa_map):
        """Sealing the write side of a bitwise CSR also zeroes its
        effective mask: only no-change writes pass, and domain-0
        re-widening the mask does not resurrect it."""
        domain = manager.create_domain("tenant")
        manager.allow_instructions(domain.domain_id, ["csr"])
        manager.grant_register(domain.domain_id, "ctrl", read=True,
                               write=True)
        manager.seal_privileges(domain.domain_id, csrs=["ctrl"],
                                read=False, write=True)
        manager.set_register_mask(domain.domain_id, "ctrl", (1 << 64) - 1)
        enter(pcu, manager, domain.domain_id)
        ctrl = isa_map.csr_index("ctrl")
        csr_class = isa_map.inst_class("csr")
        pcu.check(AccessInfo(inst_class=csr_class, csr=ctrl, csr_write=True,
                             write_value=0b101, old_value=0b101))
        with pytest.raises(BitMaskViolationFault):
            pcu.check(AccessInfo(inst_class=csr_class, csr=ctrl,
                                 csr_write=True, write_value=0b111,
                                 old_value=0b101))


class TestSealAcrossContexts:
    def test_seal_survives_context_switch(self, pcu, manager, isa_map,
                                          sealed_domain):
        """save_ctx/restore_ctx park and swap the trusted-stack window;
        the seal lives in the HPT and must be untouched by either."""
        manager.allocate_trusted_stack(frames=4)
        enter(pcu, manager, sealed_domain.domain_id)
        parked = pcu.trusted_stack.save_context()
        pcu.trusted_stack.restore_context(parked)
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(halt_access(isa_map))
        with pytest.raises(RegisterReadFault):
            pcu.check(vbase_read(isa_map))


class TestSealVsRecycle:
    def test_recycled_slot_sheds_previous_tenant_seal(self, pcu, manager,
                                                      isa_map):
        """Slot teardown is the one legitimate end of a seal: the next
        tenant bound into the recycled slot starts with a clean overlay."""
        virtualizer = DomainVirtualizer(manager, max_slots=1)
        first = virtualizer.spawn(TenantManifest(instructions={"halt"}))
        physical = virtualizer.activate(first)
        virtualizer.seal_privileges(first, instructions=["halt"])
        pcu.execute_gate(GateKind.HCCALL, virtualizer.gate_id_of(physical),
                         virtualizer.gate_address_of(physical), None)
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(halt_access(isa_map))
        pcu.reset()
        virtualizer.retire(first)

        second = virtualizer.spawn(TenantManifest(instructions={"halt"}))
        physical = virtualizer.activate(second)
        pcu.execute_gate(GateKind.HCCALL, virtualizer.gate_id_of(physical),
                         virtualizer.gate_address_of(physical), None)
        pcu.check(halt_access(isa_map))  # must NOT inherit the seal

    def test_seal_on_unbound_tenant_is_deferred_noop(self, manager):
        """Seals are slot state: sealing an unbound logical tenant does
        not touch any physical slot (and is not replayed on rebind)."""
        virtualizer = DomainVirtualizer(manager, max_slots=1)
        a = virtualizer.spawn(TenantManifest(instructions={"halt"}))
        b = virtualizer.spawn(TenantManifest(instructions={"halt"}))
        virtualizer.activate(a)
        virtualizer.seal_privileges(b, instructions=["halt"])  # unbound
        physical = virtualizer.activate(b)  # evicts a, binds b
        assert manager.sealed_privileges(physical)["instructions"] == set()
