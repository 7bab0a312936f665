"""The unintended-instruction campaign: gadgets the scanner cannot see.

ERIM-style binary scanning inspects instruction *boundaries*; a gadget
hidden inside an immediate or displacement is invisible to it until a
jump lands mid-instruction.  The PCU checks the decoded class of
whatever actually executes, so every planted gadget must fault no
matter how it was smuggled in — that asymmetry (scanner misses,
PCU blocks) is the paper's §2.3 argument made executable.
"""

from repro.attacks import (
    build_stream,
    run_unintended_campaign,
    run_unintended_campaigns,
)
from repro.attacks.unintended import FIXED_GADGETS, OPERAND_GADGETS
from repro.baselines import linear_disassemble
from repro.x86.isa import RING0_CLASSES

import random


class TestStreamConstruction:
    def test_streams_are_deterministic(self):
        one = build_stream(random.Random(7), 7, 32)
        two = build_stream(random.Random(7), 7, 32)
        assert one == two

    def test_planted_gadget_bytes_are_present(self):
        code, planted = build_stream(random.Random(3), 3, 48)
        assert planted, "a 48-instruction stream should carry gadgets"
        for gadget in planted:
            assert 0 <= gadget.offset < len(code)

    def test_legit_boundaries_never_hit_ring0(self):
        """Straight-line execution of the stream decodes only compute
        classes — the gadgets exist solely at unintended offsets."""
        from repro.x86 import decode

        code, _ = build_stream(random.Random(11), 11, 48)
        for offset, _mnemonic, _size in linear_disassemble(code):
            assert decode(code, offset).inst_class not in RING0_CLASSES

    def test_gadget_kinds_cover_fixed_and_operand(self):
        kinds = set()
        for index in range(16):
            _, planted = build_stream(random.Random(index), index, 48)
            kinds.update(g.kind for g in planted)
        assert kinds & set(FIXED_GADGETS)
        assert kinds & set(OPERAND_GADGETS)


class TestCampaign:
    def test_campaign_blocks_everything_scanner_misses_some(self):
        result = run_unintended_campaign(0, 6, 32)
        gadgets = result.gadgets
        assert gadgets
        assert all(g.pcu_blocked for g in gadgets)
        assert any(not g.scanner_detected for g in gadgets), (
            "every gadget scanner-visible — the streams stopped hiding "
            "anything and the campaign proves nothing")
        assert result.legit_faults == 0
        assert result.sealed_blocked == result.sealed_probes > 0
        assert result.unwaived_contract_violations == 0

    def test_jobs_do_not_change_results(self, tmp_path):
        from repro.orchestrator import KINDS, run_campaign

        serial = run_unintended_campaigns([0, 1], 3, 24)
        parallel, _, _ = run_campaign(
            KINDS["attacks"],
            {"seeds": [0, 1], "n_streams": 3, "stream_len": 24},
            jobs=2, run_dir=str(tmp_path / "run"))
        assert [r.to_dict() for r in serial] == parallel
