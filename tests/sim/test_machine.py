"""The Machine run loop."""

import pytest

from repro.sim import (
    InOrderPipelineModel,
    Machine,
    PhysicalMemory,
    SimulationLimitExceeded,
    StepInfo,
    rocket_hierarchy,
)


class ScriptedCore:
    """A fake CPU that replays a fixed list of StepInfo records."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.pc = 0

    def step(self):
        self.pc += 4
        if self.steps:
            return self.steps.pop(0)
        return StepInfo(pc=self.pc, halted=True)


def make_machine():
    return Machine(PhysicalMemory(size=1 << 20), rocket_hierarchy(),
                   InOrderPipelineModel(rocket_hierarchy()))


class TestRunLoop:
    def test_counts_instructions_and_cycles(self):
        machine = make_machine()
        machine.attach_cpu(ScriptedCore([StepInfo(pc=0), StepInfo(pc=4)]))
        stats = machine.run()
        assert stats.instructions == 3  # two scripted + halt
        assert stats.cycles > 0
        assert stats.halted

    def test_traps_counted(self):
        machine = make_machine()
        machine.attach_cpu(ScriptedCore([StepInfo(pc=0, trapped=True)]))
        stats = machine.run()
        assert stats.traps == 1

    def test_limit_raises_by_default(self):
        machine = make_machine()

        class Runaway:
            pc = 0

            def step(self):
                return StepInfo(pc=0)

        machine.attach_cpu(Runaway())
        with pytest.raises(SimulationLimitExceeded):
            machine.run(max_steps=100)

    def test_limit_tolerated_when_requested(self):
        machine = make_machine()

        class Runaway:
            pc = 0

            def step(self):
                return StepInfo(pc=0)

        machine.attach_cpu(Runaway())
        stats = machine.run(max_steps=100, require_halt=False)
        assert stats.instructions == 100

    def test_no_cpu_is_an_error(self):
        with pytest.raises(RuntimeError):
            make_machine().step()

    def test_cpi_property(self):
        machine = make_machine()
        machine.attach_cpu(ScriptedCore([StepInfo(pc=0)]))
        stats = machine.run()
        assert stats.cpi == pytest.approx(stats.cycles / stats.instructions)

    def test_reset_stats(self):
        machine = make_machine()
        machine.attach_cpu(ScriptedCore([StepInfo(pc=0)]))
        machine.run()
        machine.reset_stats()
        assert machine.stats.instructions == 0
        assert machine.stats.cycles == 0.0

    @pytest.mark.parametrize("blocks", [True, False],
                             ids=["blocks", "per-inst"])
    @pytest.mark.parametrize("isa", ["x86", "riscv"])
    def test_native_loads_and_stores_run_without_a_pcu(self, isa, blocks):
        # Without ISA-Grid there is no PCU and so no trusted-memory
        # filter: the CPUs skip it, and the would-be trusted range is
        # ordinary memory.
        value = 0x1122334455667788
        if isa == "x86":
            from repro.x86 import (KERNEL_BASE, TRUSTED_BASE, assemble,
                                   build_x86_system)
            system = build_x86_system(with_isagrid=False)
            source = """
            entry:
                mov rsp, 0x6e0000
                mov rcx, %d
                mov rbx, %d
                mov [rcx+8], rbx
                mov rdx, [rcx+8]
                push rdx
                pop rsi
                call sub
                hlt
            sub:
                mov rdi, [rcx+8]
                ret
            """
            loaded = (2, 6, 7)
            expected = (value, value, value)
        else:
            from repro.riscv import (KERNEL_BASE, TRUSTED_BASE, assemble,
                                     build_riscv_system)
            system = build_riscv_system(with_isagrid=False)
            source = """
            entry:
                li t1, %d
                li a0, %d
                sd a0, 8(t1)
                ld a1, 8(t1)
                lw a2, 8(t1)
                lbu a3, 15(t1)
                halt
            """
            loaded = (11, 12, 13)
            expected = (value, value & 0xFFFFFFFF, value >> 56)
        assert system.pcu is None and system.cpu.pcu is None
        system.machine.block_summaries = blocks
        program = assemble(source % (TRUSTED_BASE, value), base=KERNEL_BASE)
        system.load(program)
        stats = system.run(program.symbol("entry"), max_steps=1000)
        assert stats.halted
        assert tuple(system.cpu.regs[r] for r in loaded) == expected
        assert system.machine.memory.load(TRUSTED_BASE + 8, 8) == value


class TestStepHook:
    def test_hook_sees_every_step_and_stats_match_hookless(self):
        seen = []
        hooked = make_machine()
        hooked.attach_cpu(ScriptedCore([StepInfo(pc=0), StepInfo(pc=4)]))
        hooked.step_hook = lambda info: seen.append(info.pc) or False
        plain = make_machine()
        plain.attach_cpu(ScriptedCore([StepInfo(pc=0), StepInfo(pc=4)]))
        a, b = hooked.run(), plain.run()
        assert (a.instructions, a.cycles, a.traps) == \
            (b.instructions, b.cycles, b.traps)
        # the halting step is offered to the hook too
        assert len(seen) == a.instructions

    def test_truthy_hook_stops_the_run_with_stats_flushed(self):
        machine = make_machine()
        machine.attach_cpu(ScriptedCore(
            [StepInfo(pc=0, trapped=True)] * 10))
        machine.step_hook = lambda info: machine.stats.instructions >= 3
        stats = machine.run(max_steps=100, require_halt=False)
        assert stats.instructions == 3
        assert stats.traps == 3  # flushed despite the early return
        assert not stats.halted

    def test_machine_step_offers_its_instruction_to_the_hook(self):
        machine = make_machine()
        machine.attach_cpu(ScriptedCore([StepInfo(pc=0), StepInfo(pc=4)]))
        seen = []
        machine.step_hook = lambda info: seen.append(info.pc) or True
        machine.step()
        machine.step()
        assert seen == [0, 4]
        assert machine.stats.instructions == 2
