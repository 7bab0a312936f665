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

    def test_check_data_access_without_pcu_is_noop(self):
        machine = make_machine()
        machine.check_data_access(0x1234)  # must not raise


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
