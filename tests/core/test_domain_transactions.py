"""Transactional reconfiguration: a faulting trusted-memory store must
leave the HPT/SGT bit-identical to the pre-transaction state."""

import pytest

from repro.core import (
    AccessInfo,
    ConfigurationError,
    DomainManager,
    GateKind,
    InjectedFault,
    PrivilegeCheckUnit,
    TrustedMemory,
    CONFIG_8E,
)
from repro.faults import FaultyWordBacking, IntegrityScrubber


@pytest.fixture
def faulty_backing(trusted_memory):
    backing = FaultyWordBacking(trusted_memory._backing)
    trusted_memory._backing = backing
    return backing


def hpt_words(pcu, domain):
    """Every trusted-memory word of one domain's HPT regions."""
    hpt = pcu.hpt
    return (
        [hpt.read_inst_word(domain, i)
         for i in range(hpt.inst_words_per_domain)]
        + [hpt.read_reg_word(domain, i)
           for i in range(hpt.reg_words_per_domain)]
        + [hpt.read_mask(domain, s)
           for s in range(hpt.mask_words_per_domain)]
    )


def mirror_words(pcu, domain):
    """The python-side grant mirrors of one domain, as word lists.

    A grant mutates these in place before its store; only the
    transaction's snapshot copy can put the old words back.
    """
    hpt = pcu.hpt
    return [None if mirror.get(domain) is None
            else mirror[domain].to_words()
            for mirror in (hpt._inst, hpt._regs, hpt._masks)]


def sgt_words(pcu):
    sgt = pcu.sgt
    memory = pcu.trusted_memory
    words = []
    for gate in range(sgt.gate_nr):
        base = sgt.entry_address(gate)
        words += [memory.load_word(base + off * 8) for off in range(4)]
    return words


class TestGrantRollback:
    def test_hpt_bit_identical_after_mid_grant_fault(
            self, pcu, manager, faulty_backing):
        domain = manager.create_domain("victim")
        manager.allow_instructions(domain.domain_id, ["alu", "csr"])
        manager.grant_register(domain.domain_id, "vbase", read=True)
        before = hpt_words(pcu, domain.domain_id)
        mirrors = mirror_words(pcu, domain.domain_id)
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            manager.grant_register(domain.domain_id, "scratch",
                                   read=True, write=True)
        assert hpt_words(pcu, domain.domain_id) == before
        assert mirror_words(pcu, domain.domain_id) == mirrors
        assert pcu.stats.reconfig_rollbacks == 1
        assert IntegrityScrubber(pcu, manager).scrub().clean

    def test_descriptor_state_rolls_back(self, pcu, manager, faulty_backing):
        domain = manager.create_domain("victim")
        manager.allow_instructions(domain.domain_id, ["alu"])
        mirrors = mirror_words(pcu, domain.domain_id)
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            manager.allow_instructions(domain.domain_id, ["load", "store"])
        assert domain.instructions == {"alu"}
        assert mirror_words(pcu, domain.domain_id) == mirrors
        assert IntegrityScrubber(pcu, manager).scrub().clean
        # and the manager still works: the retry commits
        manager.allow_instructions(domain.domain_id, ["load", "store"])
        assert domain.instructions == {"alu", "load", "store"}

    def test_mask_rollback(self, pcu, manager, faulty_backing):
        domain = manager.create_domain("victim")
        manager.set_register_mask(domain.domain_id, "ctrl", 0b1111)
        before = hpt_words(pcu, domain.domain_id)
        mirrors = mirror_words(pcu, domain.domain_id)
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            manager.set_register_mask(domain.domain_id, "ctrl", 0b1)
        assert hpt_words(pcu, domain.domain_id) == before
        assert mirror_words(pcu, domain.domain_id) == mirrors
        assert IntegrityScrubber(pcu, manager).scrub().clean

    def test_committed_grants_survive(self, pcu, manager, faulty_backing):
        domain = manager.create_domain("victim")
        manager.allow_instructions(domain.domain_id, ["alu"])
        assert pcu.stats.reconfig_rollbacks == 0
        assert not pcu.trusted_memory.in_transaction


class TestGateRollback:
    def test_register_gate_rolls_back(self, pcu, manager, faulty_backing):
        domain = manager.create_domain("dest")
        manager.register_gate(0x1000, 0x2000, domain.domain_id)
        before = sgt_words(pcu)
        gates_before = dict(manager.gates)
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            manager.register_gate(0x3000, 0x4000, domain.domain_id)
        assert sgt_words(pcu) == before
        assert manager.gates == gates_before
        # the half-registered gate is not executable
        from repro.core import GateFault
        with pytest.raises(GateFault):
            pcu.execute_gate(GateKind.HCCALL, 1, 0x3000)

    def test_destroy_domain_rolls_back(self, pcu, manager, faulty_backing):
        domain = manager.create_domain("victim")
        manager.allow_instructions(domain.domain_id, ["alu"])
        before = hpt_words(pcu, domain.domain_id)
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            manager.destroy_domain(domain.domain_id)
        assert domain.domain_id in manager.domains
        assert hpt_words(pcu, domain.domain_id) == before
        # still usable after the rollback
        manager.destroy_domain(domain.domain_id)
        assert domain.domain_id not in manager.domains


class TestTransactionMechanics:
    def test_nested_begin_rejected(self, trusted_memory):
        trusted_memory.begin_transaction()
        with pytest.raises(ConfigurationError):
            trusted_memory.begin_transaction()
        trusted_memory.abort_transaction()

    def test_abort_restores_first_touch_values(self, trusted_memory):
        address = trusted_memory.base
        trusted_memory.store_word(address, 0xA)
        trusted_memory.begin_transaction()
        trusted_memory.store_word(address, 0xB)
        trusted_memory.store_word(address, 0xC)
        trusted_memory.abort_transaction()
        assert trusted_memory.load_word(address) == 0xA

    def test_commit_keeps_values(self, trusted_memory):
        address = trusted_memory.base
        trusted_memory.begin_transaction()
        trusted_memory.store_word(address, 0xB)
        trusted_memory.commit_transaction()
        assert trusted_memory.load_word(address) == 0xB

    def test_nested_manager_ops_join_open_transaction(
            self, pcu, manager, faulty_backing):
        """destroy_domain internally revokes/clears: one outer rollback."""
        domain = manager.create_domain("victim")
        manager.allow_instructions(domain.domain_id, ["alu", "load", "csr"])
        manager.grant_register(domain.domain_id, "vbase", read=True)
        faulty_backing.arm_store_fault()
        with pytest.raises(InjectedFault):
            manager.destroy_domain(domain.domain_id)
        assert pcu.stats.reconfig_rollbacks == 1
