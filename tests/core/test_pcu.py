"""The Privilege Check Unit: hybrid checks, gates, caches, domain-0."""

import pytest

from repro.core import (
    AccessInfo,
    BitMaskViolationFault,
    CacheId,
    ConfigurationError,
    GateFault,
    GateKind,
    InstructionPrivilegeFault,
    RegisterReadFault,
    RegisterWriteFault,
    TrustedMemoryFault,
    TrustedStackFault,
)
from repro.conformance.oracle import OraclePcu
from repro.core.errors import PrivilegeFault
from repro.core.pcu import DOMAIN_0


def enter(pcu, manager, domain_id, *, at=0x1000, to=0x2000):
    """Register a throwaway gate and hop into ``domain_id``."""
    gate = manager.register_gate(at, to, domain_id)
    target, _ = pcu.execute_gate(GateKind.HCCALL, gate, at)
    assert target == to
    return gate


@pytest.fixture
def kernel_domain(manager, isa_map):
    domain = manager.create_domain("kernel")
    manager.allow_instructions(domain.domain_id, ["alu", "load", "store", "csr"])
    manager.grant_register(domain.domain_id, "vbase", read=True)
    manager.grant_register_bits(domain.domain_id, "ctrl", 0b1100)
    return domain


class TestInstructionCheck:
    def test_domain0_passes_everything(self, pcu, isa_map):
        for name in isa_map.inst_class_names:
            assert pcu.check(AccessInfo(inst_class=isa_map.inst_class(name))) == 0

    def test_granted_class_passes(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))

    def test_denied_class_faults(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(AccessInfo(inst_class=isa_map.inst_class("sysop")))

    def test_first_check_fills_bypass(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        stall = pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert stall > 0  # bypass fill misses in the cold cache
        assert pcu.stats.bypass_fills == 1
        stall = pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert stall == 0
        assert pcu.stats.bypass_hits == 1

    def test_bypass_disabled_uses_cache(self, isa_map, trusted_memory, manager, kernel_domain):
        # Build a PCU with bypass off sharing nothing with the fixture.
        from repro.core import PcuConfig, PrivilegeCheckUnit, DomainManager, TrustedMemory

        config = PcuConfig(bypass_enabled=False)
        pcu = PrivilegeCheckUnit(isa_map, config, TrustedMemory(0x100000, 1 << 20))
        manager = DomainManager(pcu)
        domain = manager.create_domain("kernel")
        manager.allow_instructions(domain.domain_id, ["alu"])
        enter(pcu, manager, domain.domain_id)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.stats.bypass_fills == 0
        assert pcu.stats.inst_cache.lookups == 2

    def test_disabled_pcu_checks_nothing(self, pcu, isa_map):
        pcu.enabled = False
        assert pcu.check(AccessInfo(inst_class=isa_map.inst_class("sysop"))) == 0

    def test_fault_recorded_in_stats(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(AccessInfo(inst_class=isa_map.inst_class("halt")))
        assert pcu.stats.faults["InstructionPrivilegeFault"] == 1


class TestRegisterCheck:
    def test_read_granted(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(
            inst_class=isa_map.inst_class("csr"),
            csr=isa_map.csr_index("vbase"), csr_read=True,
        ))

    def test_read_denied(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        with pytest.raises(RegisterReadFault):
            pcu.check(AccessInfo(
                inst_class=isa_map.inst_class("csr"),
                csr=isa_map.csr_index("scratch"), csr_read=True,
            ))

    def test_write_denied_on_plain_csr(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        with pytest.raises(RegisterWriteFault):
            pcu.check(AccessInfo(
                inst_class=isa_map.inst_class("csr"),
                csr=isa_map.csr_index("vbase"), csr_write=True,
                write_value=1, old_value=0,
            ))

    def test_bitwise_write_within_mask(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(
            inst_class=isa_map.inst_class("csr"),
            csr=isa_map.csr_index("ctrl"), csr_write=True,
            write_value=0b0100, old_value=0,
        ))

    def test_bitwise_write_outside_mask_faults(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        with pytest.raises(BitMaskViolationFault):
            pcu.check(AccessInfo(
                inst_class=isa_map.inst_class("csr"),
                csr=isa_map.csr_index("ctrl"), csr_write=True,
                write_value=0b0001, old_value=0,
            ))

    def test_bitwise_identity_write_passes(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(
            inst_class=isa_map.inst_class("csr"),
            csr=isa_map.csr_index("ctrl"), csr_write=True,
            write_value=0xABCD, old_value=0xABCD,
        ))

    def test_bitwise_write_requires_values(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        with pytest.raises(ConfigurationError):
            pcu.check(AccessInfo(
                inst_class=isa_map.inst_class("csr"),
                csr=isa_map.csr_index("ctrl"), csr_write=True,
            ))

    def test_masks_ignored_for_reads(self, pcu, manager, isa_map, kernel_domain):
        """Bit-masks only gate writes (Section 4.1)."""
        manager.grant_register(kernel_domain.domain_id, "ctrl", read=True)
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(
            inst_class=isa_map.inst_class("csr"),
            csr=isa_map.csr_index("ctrl"), csr_read=True,
        ))
        assert pcu.stats.mask_checks == 0


class TestGates:
    def test_basic_switch(self, pcu, manager, kernel_domain):
        gate = manager.register_gate(0x1000, 0x2000, kernel_domain.domain_id)
        target, _ = pcu.execute_gate(GateKind.HCCALL, gate, 0x1000)
        assert target == 0x2000
        assert pcu.current_domain == kernel_domain.domain_id
        assert pcu.previous_domain == DOMAIN_0

    def test_wrong_address_faults(self, pcu, manager, kernel_domain):
        """Property (i): injected/ROP gates die on the address check."""
        gate = manager.register_gate(0x1000, 0x2000, kernel_domain.domain_id)
        with pytest.raises(GateFault):
            pcu.execute_gate(GateKind.HCCALL, gate, 0x1004)

    def test_unregistered_gate_faults(self, pcu):
        with pytest.raises(GateFault):
            pcu.execute_gate(GateKind.HCCALL, 7, 0x1000)

    def test_extended_call_and_return(self, pcu, manager, kernel_domain):
        manager.allocate_trusted_stack()
        gate = manager.register_gate(0x1000, 0x2000, kernel_domain.domain_id)
        pcu.execute_gate(GateKind.HCCALLS, gate, 0x1000, return_address=0x1004)
        assert pcu.current_domain == kernel_domain.domain_id
        # hcrets from the new domain returns to the saved frame...
        # except the frame's source is domain-0 — which is forbidden.
        with pytest.raises(GateFault):
            pcu.execute_gate(GateKind.HCRETS, 0, 0x2000)

    def test_extended_return_to_non_zero_domain(self, pcu, manager, kernel_domain):
        other = manager.create_domain("other")
        manager.allocate_trusted_stack()
        enter(pcu, manager, kernel_domain.domain_id)
        gate = manager.register_gate(0x3000, 0x4000, other.domain_id)
        pcu.execute_gate(GateKind.HCCALLS, gate, 0x3000, return_address=0x3004)
        assert pcu.current_domain == other.domain_id
        target, _ = pcu.execute_gate(GateKind.HCRETS, 0, 0x4000)
        assert target == 0x3004
        assert pcu.current_domain == kernel_domain.domain_id

    def test_hccalls_requires_return_address(self, pcu, manager, kernel_domain):
        manager.allocate_trusted_stack()
        gate = manager.register_gate(0x1000, 0x2000, kernel_domain.domain_id)
        with pytest.raises(ConfigurationError):
            pcu.execute_gate(GateKind.HCCALLS, gate, 0x1000)

    def test_hcrets_on_empty_stack_faults(self, pcu, manager):
        manager.allocate_trusted_stack()
        with pytest.raises(TrustedStackFault):
            pcu.execute_gate(GateKind.HCRETS, 0, 0x1000)

    def test_switch_stats(self, pcu, manager, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        assert pcu.stats.domain_switches == 1
        assert pcu.stats.gate_calls == 1

    def test_gate_invalidates_bypass(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.bypass.loaded_domain == kernel_domain.domain_id
        other = manager.create_domain("other")
        enter(pcu, manager, other.domain_id, at=0x5000, to=0x6000)
        assert pcu.bypass.loaded_domain is None


class TestCacheManagement:
    def test_prefetch_then_hit(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.prefetch(isa_map.csr_index("vbase"))
        stall = pcu.check(AccessInfo(
            inst_class=isa_map.inst_class("csr"),
            csr=isa_map.csr_index("vbase"), csr_read=True,
        ))
        # only the instruction-bitmap fill may stall; the CSR word hits
        assert pcu.stats.reg_cache.hits >= 1

    def test_prefetch_all(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.prefetch(0)
        assert pcu.stats.reg_cache.prefetch_fills > 0

    def test_prefetch_disabled_is_noop(self, isa_map):
        from repro.core import PcuConfig, PrivilegeCheckUnit, TrustedMemory

        config = PcuConfig(prefetch_enabled=False)
        pcu = PrivilegeCheckUnit(isa_map, config, TrustedMemory(0x100000, 1 << 20))
        pcu.prefetch(0)
        assert pcu.stats.reg_cache.prefetch_fills == 0

    def test_flush_all(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        pcu.flush(CacheId.ALL)
        assert pcu.bypass.loaded_domain is None
        assert pcu.stats.inst_cache.flushes == 1
        assert pcu.stats.sgt_cache.flushes == 1

    def test_flush_single_module(self, pcu, manager, isa_map, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        pcu.flush(CacheId.SGT)
        assert pcu.stats.sgt_cache.flushes == 1
        assert pcu.stats.inst_cache.flushes == 0
        assert pcu.bypass.loaded_domain == kernel_domain.domain_id


class TestInvalidatePrivileges:
    def _warm(self, pcu, domain):
        pcu.hpt_cache.inst_word(domain, 0, pcu.stats.inst_cache)
        pcu.hpt_cache.reg_word(domain, 0, pcu.stats.reg_cache)
        pcu.hpt_cache.mask_word(domain, 0, pcu.stats.mask_cache)

    def test_sweeps_one_domain_only(self, pcu):
        self._warm(pcu, 1)
        self._warm(pcu, 2)
        pcu.invalidate_privileges(1)
        assert pcu.hpt_cache.inst.lookup((1, 0)) is None
        assert pcu.hpt_cache.reg.lookup((1, 0)) is None
        assert pcu.hpt_cache.mask.lookup((1, 0)) is None
        assert pcu.hpt_cache.inst.lookup((2, 0)) is not None

    def test_none_sweeps_everything(self, pcu):
        self._warm(pcu, 1)
        self._warm(pcu, 2)
        pcu.invalidate_privileges()
        for cache in (pcu.hpt_cache.inst, pcu.hpt_cache.reg, pcu.hpt_cache.mask):
            assert len(cache) == 0

    def test_bypass_dropped_only_for_its_domain(self, pcu):
        pcu.bypass.load(1, [0b1])
        pcu.invalidate_privileges(2)
        assert pcu.bypass.loaded_domain == 1
        pcu.invalidate_privileges(1)
        assert pcu.bypass.loaded_domain is None

    def test_grant_after_cached_denial_takes_effect(
        self, pcu, manager, isa_map, kernel_domain
    ):
        """The stale-denial regression: a word cached while a class was
        denied must not keep faulting after domain-0 grants it."""
        enter(pcu, manager, kernel_domain.domain_id)
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(AccessInfo(inst_class=isa_map.inst_class("sysop")))
        manager.allow_instructions(kernel_domain.domain_id, ["sysop"])
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("sysop")))

    def test_revoke_after_cached_grant_takes_effect(
        self, pcu, manager, isa_map, kernel_domain
    ):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        manager.deny_instruction(kernel_domain.domain_id, "alu")
        with pytest.raises(InstructionPrivilegeFault):
            pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))


class TestTrustedMemoryEnforcement:
    def test_domain0_may_touch_trusted_memory(self, pcu):
        pcu.check_memory_access(pcu.trusted_memory.base)

    def test_other_domains_fault(self, pcu, manager, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        with pytest.raises(TrustedMemoryFault):
            pcu.check_memory_access(pcu.trusted_memory.base + 64)

    def test_outside_region_unrestricted(self, pcu, manager, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.check_memory_access(0x4000)

    def test_disabled_pcu_skips_check(self, pcu, manager, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.enabled = False
        pcu.check_memory_access(pcu.trusted_memory.base)


class TestMemoryFilterMatchesTheOracle:
    """``check_memory_access`` inlines ``TrustedMemory.contains``'s mask
    compare; the oracle keeps ``contains`` as the reference.  Both must
    raise (or not) at exactly the same addresses in every filter state."""

    @staticmethod
    def build(isa):
        if isa == "x86":
            from repro.x86 import build_x86_system as build
        else:
            from repro.riscv import build_riscv_system as build
        pcu = build().pcu
        oracle = OraclePcu(pcu.isa_map, pcu.hpt, pcu.sgt, pcu.trusted_memory,
                           stack_frames=4)
        return pcu, oracle

    @staticmethod
    def addresses(trusted):
        """Every byte within 16 of either bound, interior samples at
        varying page offsets, and addresses far from the range."""
        base, limit = trusted.base, trusted.limit
        near = [*range(base - 16, base + 17), *range(limit - 16, limit + 17)]
        inside = list(range(base, limit, 4093))
        far = [0, 8, base ^ 1 << 40, base | 1 << 63, base + (limit - base) * 2,
               base - (limit - base), (1 << 64) - 8, (1 << 64) - 1]
        return near + inside + far

    @staticmethod
    def outcome(check, address):
        try:
            check(address, 0x40)
        except PrivilegeFault as fault:
            return type(fault).__name__, str(fault)
        return None

    @pytest.mark.parametrize("state", ["domain0", "domain1", "disabled",
                                       "stale"])
    @pytest.mark.parametrize("isa", ["x86", "riscv"])
    def test_sweep(self, isa, state):
        pcu, oracle = self.build(isa)
        if state != "domain0":
            pcu.registers.domain = oracle.domain = 1
        if state == "disabled":
            pcu.enabled = oracle.enabled = False
        if state == "stale":
            pcu.generation_table = oracle.generation_table = {1: 1}
        addresses = self.addresses(pcu.trusted_memory)
        real = [self.outcome(pcu.check_memory_access, a) for a in addresses]
        reference = [self.outcome(oracle.check_memory_access, a)
                     for a in addresses]
        assert real == reference
        faulted = sum(r is not None for r in real)
        if state == "domain1":
            inside = [pcu.trusted_memory.contains(a) for a in addresses]
            assert faulted == sum(inside) > 0
        elif state == "stale":
            assert faulted == len(addresses)
        else:
            assert faulted == 0


class TestReset:
    def test_reset_returns_to_domain0(self, pcu, manager, kernel_domain):
        enter(pcu, manager, kernel_domain.domain_id)
        pcu.reset()
        assert pcu.current_domain == DOMAIN_0
        assert pcu.bypass.loaded_domain is None
