"""The integrity scrubber: detection, repair, degraded mode, halts."""

import pytest

from repro.conformance import Event, generate_events
from repro.core.errors import IntegrityFault
from repro.faults import FaultInjector, FaultSpec


def warm(world):
    """Enter slot 1 with a grant so caches, bypass and stack are live."""
    world.apply(Event("allow_inst", domain=1, inst=0))
    world.apply(Event("register_gate", gate=0, domain=1))
    world.apply(Event("gate", kind="hccall", gate=0))
    world.apply(Event("check", inst=0))


class TestCleanScrub:
    def test_fresh_world_scrubs_clean(self, world, scrubber):
        assert scrubber.scrub().clean
        assert world.pcu.stats.scrubs == 1

    def test_warm_world_scrubs_clean(self, world, scrubber):
        warm(world)
        assert scrubber.scrub().clean

    def test_fuzzed_world_scrubs_clean(self, world, scrubber):
        for event in generate_events(9, 300):
            world.apply(event)
        report = scrubber.scrub()
        assert report.clean, (report.cache_detections, report.unrepairable)

    def test_checksums_match_on_clean_domain(self, world, scrubber):
        warm(world)
        domain = world.slot_ids[1]
        assert (scrubber.domain_checksum(domain)
                == scrubber.expected_domain_checksum(domain))


class TestMemoryRepair:
    def test_hpt_corruption_detected_and_repaired(self, world, scrubber):
        warm(world)
        domain = world.slot_ids[1]
        address = world.pcu.hpt.inst_word_address(domain, 0)
        world.backing.mutate_word(address, 7, "flip")
        assert (scrubber.domain_checksum(domain)
                != scrubber.expected_domain_checksum(domain))
        report = scrubber.scrub()
        assert report.memory_repairs == 1
        assert world.pcu.stats.scrub_repairs == 1
        assert scrubber.scrub().clean  # repaired for real

    def test_detection_without_repair_leaves_corruption(self, world, scrubber):
        warm(world)
        domain = world.slot_ids[1]
        address = world.pcu.hpt.inst_word_address(domain, 0)
        world.backing.mutate_word(address, 7, "flip")
        report = scrubber.scrub(repair=False)
        assert report.memory_repairs == 1
        assert world.pcu.stats.scrub_repairs == 0
        assert not scrubber.scrub(repair=False).clean  # still corrupt

    def test_sgt_corruption_repaired_from_gate_registry(self, world, scrubber):
        warm(world)
        address = world.pcu.sgt.entry_address(0) + 2 * 8  # dest domain word
        world.backing.mutate_word(address, 1, "flip")
        report = scrubber.scrub()
        assert report.memory_repairs == 1
        assert scrubber.scrub().clean

    def test_unregistered_valid_bit_repaired(self, world, scrubber):
        warm(world)
        world.apply(Event("unregister_gate", gate=0))
        address = world.pcu.sgt.entry_address(0) + 3 * 8  # valid word
        world.backing.mutate_word(address, 0, "set")  # resurrect the gate
        report = scrubber.scrub()
        assert report.memory_repairs == 1
        assert world.trusted_memory.load_word(address) == 0


class TestCacheDetection:
    def test_corrupt_cache_line_enters_degraded_mode(self, world, scrubber):
        warm(world)
        spec = FaultSpec("cache_corrupt", 0, module="inst", bit_op="flip")
        FaultInjector(world, world.backing, spec).on_event(0)
        report = scrubber.scrub()
        assert report.cache_detections
        assert report.entered_degraded
        assert world.pcu.degraded
        assert world.pcu.stats.degraded_entries == 1

    def test_clean_scrub_exits_degraded_mode(self, world, scrubber):
        warm(world)
        spec = FaultSpec("cache_corrupt", 0, module="inst", bit_op="flip")
        FaultInjector(world, world.backing, spec).on_event(0)
        scrubber.scrub()
        assert world.pcu.degraded
        report = scrubber.scrub()
        assert report.clean and report.exited_degraded
        assert not world.pcu.degraded

    def test_pinned_stale_line_is_unstuck(self, world, scrubber):
        warm(world)
        # pin a line, then change the configuration under it
        spec = FaultSpec("cache_stale_pin", 0, module="inst")
        FaultInjector(world, world.backing, spec).on_event(0)
        world.apply(Event("deny_inst", domain=1, inst=0))
        report = scrubber.scrub()
        assert report.cache_detections  # the pinned line went stale
        # unpinned + flushed: the next scrub sees a coherent cache layer
        assert scrubber.scrub().clean

    def test_bypass_divergence_detected(self, world, scrubber):
        warm(world)
        spec = FaultSpec("bypass_corrupt", 0, bit=1, bit_op="flip")
        FaultInjector(world, world.backing, spec).on_event(0)
        report = scrubber.scrub()
        assert any("bypass" in d for d in report.cache_detections)

    def test_stale_draco_tuple_detected(self, world, scrubber):
        warm(world)
        draco = world.pcu.draco
        assert draco is not None and len(draco)
        # flip the allow bit under a proven tuple, mirrors included, so
        # only the Draco pass can notice
        domain = world.slot_ids[1]
        world.pcu.hpt.deny_instruction(domain, world.backend.inst_class(0))
        report = scrubber.scrub(repair=False)
        assert any("Draco" in d for d in report.cache_detections)


class TestStackIntegrity:
    def test_live_frame_corruption_is_unrepairable(self, world, scrubber):
        warm(world)  # one live frame would be nice: hccall pushes none
        world.apply(Event("register_gate", gate=1, domain=2))
        world.apply(Event("gate", kind="hccalls", gate=1, address=0x9004))
        assert world.pcu.trusted_stack.depth == 1
        address = world.pcu.registers.hcsb  # return-address word, live
        world.backing.mutate_word(address, 5, "flip")
        report = scrubber.scrub()
        assert report.unrepairable
        with pytest.raises(IntegrityFault):
            scrubber.scrub_or_halt()

    def test_dead_frame_corruption_is_invisible(self, world, scrubber):
        warm(world)
        regs = world.pcu.registers
        assert world.pcu.trusted_stack.depth == 0
        world.backing.mutate_word(regs.hcsb, 5, "flip")  # above hcsp: dead
        assert scrubber.scrub().clean

    def test_popped_corruption_leaves_sticky_residue(self, world, scrubber):
        warm(world)
        world.apply(Event("register_gate", gate=1, domain=2))
        world.apply(Event("gate", kind="hccalls", gate=1, address=0x9004))
        world.backing.mutate_word(world.pcu.registers.hcsb, 5, "flip")
        # return: the pop folds the *corrupt* value into the digest, so
        # the residue persists even though the frame is now dead
        world.apply(Event("gate", kind="hcrets", gate=1, address=0x9004))
        assert world.pcu.trusted_stack.depth == 0
        report = scrubber.scrub()
        assert report.unrepairable
