"""The execution tracer."""

import pytest

from repro.riscv import KERNEL_BASE, assemble, build_riscv_system
from repro.sim import Tracer
from repro.x86 import KERNEL_BASE as X86_KERNEL_BASE
from repro.x86 import assemble as x86_assemble, build_x86_system


def traced_system(source, *, capacity=4096, watch=None, with_isagrid=False,
                  setup=None):
    system = build_riscv_system(with_isagrid=with_isagrid)
    if setup:
        setup(system)
    program = assemble(source, base=KERNEL_BASE)
    system.load(program)
    tracer = Tracer(system.machine, capacity=capacity, watch=watch)
    system.run(program.symbol("entry"), max_steps=100_000)
    return system, tracer


class TestTracer:
    def test_records_every_instruction(self):
        system, tracer = traced_system("""
entry:
    li a0, 1
    li a1, 2
    add a0, a0, a1
    halt
""")
        assert tracer.total_records == 4
        assert tracer.records[-1].halted

    def test_ring_buffer_bounded(self):
        system, tracer = traced_system("""
entry:
    li t0, 100
loop:
    addi t0, t0, -1
    bnez t0, loop
    halt
""", capacity=16)
        assert tracer.total_records > 16
        assert len(tracer.records) == 16

    def test_memory_flags(self):
        system, tracer = traced_system("""
entry:
    li s0, 0x620000
    sd s0, 0(s0)
    ld a0, 0(s0)
    halt
""")
        stores = [r for r in tracer.records if r.is_store]
        loads = [r for r in tracer.records if r.is_load]
        assert stores[0].mem_address == 0x620000
        assert loads[0].mem_address == 0x620000

    def test_domains_visited_tracks_switches(self):
        system = build_riscv_system(with_isagrid=True)
        domain = system.manager.create_domain("kernel")
        system.manager.allow_all_instructions(domain.domain_id)
        program = assemble("""
entry:
    li t0, 0
g0:
    hccall t0
inside:
    halt
""", base=KERNEL_BASE)
        system.load(program)
        system.manager.register_gate(
            program.symbol("g0"), program.symbol("inside"), domain.domain_id
        )
        tracer = Tracer(system.machine)
        system.run(program.symbol("entry"), max_steps=100)
        assert tracer.domains_visited() == [0, domain.domain_id]
        gates = [r for r in tracer.records if r.is_gate]
        assert len(gates) == 1 and gates[0].domain == domain.domain_id

    def test_watch_callback_can_stop_collection(self):
        hits = []

        def watch(record):
            hits.append(record.index)
            return record.index >= 2

        system, tracer = traced_system("""
entry:
    li a0, 1
    li a1, 2
    li a2, 3
    li a3, 4
    halt
""", watch=watch)
        assert hits == [0, 1, 2]
        assert tracer.total_records == 3  # collection stopped

    def test_detach_restores_machine(self):
        system, tracer = traced_system("entry:\n    halt\n")
        before = tracer.total_records
        tracer.detach()
        system.cpu.pc = KERNEL_BASE
        system.machine.step()
        assert tracer.total_records == before

    def test_chains_and_restores_an_installed_hook(self):
        system = build_riscv_system()
        program = assemble("""
entry:
    li a0, 1
    li a1, 2
    li a2, 3
    halt
""", base=KERNEL_BASE)
        system.load(program)
        seen = []

        def hook(info):
            seen.append(info.pc)
            return len(seen) == 2  # stop the run after two instructions

        system.machine.step_hook = hook
        tracer = Tracer(system.machine)
        system.cpu.pc = program.symbol("entry")
        system.machine.run(max_steps=100, require_halt=False)
        assert tracer.total_records == len(seen) == 2
        tracer.detach()
        assert system.machine.step_hook is hook

    def test_traces_every_instruction_of_a_block_capable_machine(self):
        # A block-capable x86 machine: the tracer's hook keeps ``run``
        # on the per-instruction loop, so no instruction goes unseen.
        system = build_x86_system()
        program = x86_assemble("""
entry:
    mov rcx, 5
loop:
    add rax, 1
    add rbx, 2
    sub rcx, 1
    cmp rcx, 0
    jne loop
    hlt
""", base=X86_KERNEL_BASE)
        system.load(program)
        tracer = Tracer(system.machine)
        system.run(program.symbol("entry"), max_steps=1000)
        assert tracer.total_records == system.machine.stats.instructions
        assert tracer.records[-1].halted

    def test_render_tail(self):
        system, tracer = traced_system("""
entry:
    li a0, 7
    halt
""")
        text = tracer.render_tail(5)
        assert "pc=0x" in text and "dom=" in text
