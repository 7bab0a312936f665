"""The x86 functional CPU: semantics, rings, IDT, ISA-Grid."""

import dataclasses

import pytest

from repro.conformance.oracle import OraclePcu
from repro.core import CONFIG_8E, TrustedMemoryFault
from repro.faults.machine import LockstepMonitor
from repro.sim import TrapKind
from repro.x86 import (
    CR4_TSD,
    CpuPanic,
    IDT_BASE,
    KERNEL_BASE,
    RING0,
    RING3,
    TRUSTED_BASE,
    VEC_GP,
    VEC_UD,
    assemble,
    build_x86_system,
)
from repro.x86.cpu import VEC_TRUSTED_MEMORY
from repro.x86.registers import MSR_LSTAR


def run_program(source, *, with_isagrid=False, max_steps=100_000):
    system = build_x86_system(with_isagrid=with_isagrid)
    if with_isagrid:
        domain = system.manager.create_domain("all")
        system.manager.allow_all_instructions(domain.domain_id)
    program = assemble(source, base=KERNEL_BASE)
    system.load(program)
    entry = program.symbol("entry") if "entry" in program.symbols else KERNEL_BASE
    system.run(entry, max_steps=max_steps)
    return system, program


class TestAluAndFlow:
    def test_arithmetic(self):
        system, _ = run_program("""
        entry:
            mov rax, 100
            mov rbx, 7
            add rax, rbx
            sub rax, 3
            mov rcx, rax
            and rcx, 0xF
            or rcx, 0x100
            xor rcx, 0x1
            hlt
        """)
        assert system.cpu.regs[0] == 104
        assert system.cpu.regs[1] == (104 & 0xF | 0x100) ^ 1

    def test_mul_div(self):
        system, _ = run_program("""
        entry:
            mov rax, 100
            mov rbx, 7
            mul rbx
            mov rbx, 6
            mov rdx, 0
            div rbx
            hlt
        """)
        assert system.cpu.regs[0] == 700 // 6
        assert system.cpu.regs[2] == 700 % 6

    def test_shifts(self):
        system, _ = run_program("""
        entry:
            mov rbx, 3
            shl rbx, 4
            mov rcx, 0x100
            shr rcx, 4
            hlt
        """)
        assert system.cpu.regs[3] == 48
        assert system.cpu.regs[1] == 0x10

    def test_conditional_branches(self):
        system, _ = run_program("""
        entry:
            mov rax, 5
            mov rbx, 9
            cmp rax, rbx
            jl less
            mov rdi, 1
            jmp done
        less:
            mov rdi, 2
        done:
            cmp rbx, rax
            jb wrong
            mov rsi, 3
            jmp out
        wrong:
            mov rsi, 4
        out:
            hlt
        """)
        assert system.cpu.regs[7] == 2
        assert system.cpu.regs[6] == 3

    def test_signed_vs_unsigned_compare(self):
        system, _ = run_program("""
        entry:
            mov rax, -1
            mov rbx, 1
            cmp rax, rbx
            jl signed_less
            mov rdi, 0
            jmp next
        signed_less:
            mov rdi, 1
        next:
            cmp rax, rbx
            jb unsigned_less
            mov rsi, 0
            jmp out
        unsigned_less:
            mov rsi, 1
        out:
            hlt
        """)
        assert system.cpu.regs[7] == 1  # -1 < 1 signed
        assert system.cpu.regs[6] == 0  # 2^64-1 > 1 unsigned

    def test_stack_and_call(self):
        system, _ = run_program("""
        entry:
            mov rsp, 0x6e0000
            mov rax, 9
            push rax
            call triple
            pop rbx
            hlt
        triple:
            mov rcx, 31
            ret
        """)
        assert system.cpu.regs[1] == 31
        assert system.cpu.regs[3] == 9
        assert system.cpu.regs[4] == 0x6E0000

    def test_lea(self):
        system, _ = run_program("""
        entry:
            mov rbx, 0x1000
            lea rax, [rbx+0x234]
            hlt
        """)
        assert system.cpu.regs[0] == 0x1234


class TestInterrupts:
    IDT_SETUP = """
    entry:
        mov rsp, 0x6e0000
        mov rax, %d
        mov rbx, handler
        mov [rax+%d], rbx
        mov rbx, %d
        mov rcx, 0x610000
        mov [rcx+0], rbx
        mov rbx, 4095
        mov [rcx+8], rbx
        lidt [rcx+0]
    """ % (IDT_BASE, 8 * 0x21, IDT_BASE)

    def test_int_vectors_and_iret(self):
        system, _ = run_program(self.IDT_SETUP + """
            int 0x21
        after:
            mov rbx, 7
            hlt
        handler:
            mov rdi, 42
            iret
        """)
        assert system.cpu.regs[7] == 42
        assert system.cpu.regs[3] == 7  # execution resumed after int

    def test_trap_without_idt_panics(self):
        with pytest.raises(CpuPanic):
            run_program("entry:\n    int 0x21\n    hlt\n")

    def test_ud_vector_on_bad_opcode(self):
        source = self.IDT_SETUP.replace(str(8 * 0x21), str(8 * VEC_UD)) + """
            .byte 0xD6
            hlt
        handler:
            mov rdi, 99
            hlt
        """
        system, _ = run_program(source)
        assert system.cpu.regs[7] == 99


class TestTrapFramesAreFiltered:
    """``int`` pushes a 16-byte frame and ``iret`` pops one, so the frame
    passes the trusted-memory filter first, as every load and store
    does.  In domain 1 a frame that reaches trusted memory faults the
    same way on both loops and under the lockstep monitor, whose oracle
    agrees."""

    SOURCE = TestInterrupts.IDT_SETUP + """
        mov rax, %d
        mov rbx, fault_handler
        mov [rax+%d], rbx
        mov r10, 0
    g0:
        hccall r10
    attack:
        mov rsp, %%d
    victim:
        %%s
        hlt
    handler:
        mov rdi, 42
        hlt
    fault_handler:
        mov rdi, 33
        hlt
    """ % (IDT_BASE, 8 * VEC_TRUSTED_MEMORY)

    MODES = ("blocks", "steps", "lockstep")

    def run(self, mode, rsp, instruction):
        """Run the frame at ``rsp`` from domain 1; return the system, the
        program, what escaped the run (or ``None``), the 16 bytes below
        ``rsp`` before the run and the oracle's judged (address, size)
        pairs under the monitor."""
        config = CONFIG_8E
        if mode == "steps":
            config = dataclasses.replace(CONFIG_8E, block_summaries=False)
        system = build_x86_system(config)
        manager = system.manager
        domain = manager.create_domain("all")
        manager.allow_all_instructions(domain.domain_id)
        program = assemble(self.SOURCE % (rsp, instruction), base=KERNEL_BASE)
        system.load(program)
        manager.register_gate(program.symbol("g0"), program.symbol("attack"),
                              domain.domain_id)
        judged = []
        monitor = None
        if mode == "lockstep":
            pcu = system.pcu
            oracle = OraclePcu(pcu.isa_map, pcu.hpt, pcu.sgt,
                               pcu.trusted_memory, stack_frames=0)
            reference = oracle.check_memory_access

            def judge(address, pc=0, size=1):
                judged.append((address, size))
                return reference(address, pc, size)

            oracle.check_memory_access = judge
            monitor = LockstepMonitor(pcu, oracle, system.machine.stats)
            monitor.install()
        below = system.machine.memory.load_bytes(rsp - 16, 16)
        system.cpu.pc = program.symbol("entry")
        try:
            system.machine.run(1000)
            escaped = None
        except TrustedMemoryFault as fault:
            escaped = fault
        if monitor is not None:
            monitor.uninstall()
            assert monitor.divergence is None
        return system, program, escaped, below, judged

    @pytest.mark.parametrize("mode", MODES)
    def test_int_frame_into_trusted_memory_escapes_unwritten(self, mode):
        # The push faults; so does the push of that fault's own frame at
        # the same rsp, which escapes the run before anything is stored.
        rsp = TRUSTED_BASE + 16
        system, program, escaped, below, judged = self.run(mode, rsp,
                                                           "int 0x21")
        assert escaped is not None and escaped.address == program.symbol("victim")
        assert system.machine.memory.load_bytes(rsp - 16, 16) == below
        assert system.cpu.regs[4] == rsp and system.cpu.regs[7] == 0
        assert system.pcu.stats.faults == {"TrustedMemoryFault": 2}
        if mode == "lockstep":
            assert judged[-2:] == [(rsp - 16, 16)] * 2

    @pytest.mark.parametrize("mode", MODES)
    def test_iret_frame_in_trusted_memory_is_dispatched(self, mode):
        # The pop faults like any instruction; its fault's frame, below
        # trusted memory, is pushed and the handler runs.
        rsp = TRUSTED_BASE - 8
        system, program, escaped, _, judged = self.run(mode, rsp, "iret")
        cpu = system.cpu
        assert escaped is None and system.machine.stats.halted
        assert cpu.regs[7] == 33
        assert cpu.last_trap.kind is TrapKind.TRUSTED_MEMORY_FAULT
        assert cpu.last_trap.pc == program.symbol("victim")
        assert cpu.regs[4] == rsp - 16
        assert system.machine.memory.load(rsp - 8, 8) == program.symbol("victim")
        assert system.pcu.stats.faults == {"TrustedMemoryFault": 1}
        if mode == "lockstep":
            assert judged[-2:] == [(rsp, 16), (rsp - 16, 16)]


class TestSyscall:
    def test_syscall_sysret_roundtrip(self):
        system, _ = run_program("""
        entry:
            mov rsp, 0x6e0000
            mov rcx, %d
            mov rax, kernel_entry
            mov rdx, 0
            wrmsr
            mov rcx, user_code
            sysret
        user_code:
            mov rdi, 5
            syscall
        back:
            syscall
        kernel_entry:
            add r15, 1
            cmp r15, 2
            je stop
            add rdi, 100
            sysret
        stop:
            hlt
        """ % MSR_LSTAR)
        assert system.cpu.regs[7] == 105  # first round trip ran
        assert system.cpu.ring == RING0   # halted inside the kernel

    def test_syscall_without_lstar_is_gp(self):
        with pytest.raises(CpuPanic):
            run_program("entry:\n    syscall\n    hlt\n")

    def test_ring3_cannot_hlt(self):
        with pytest.raises(CpuPanic) as excinfo:
            run_program("""
            entry:
                mov rcx, %d
                mov rax, kernel_entry
                mov rdx, 0
                wrmsr
                mov rcx, user
                sysret
            user:
                hlt
            kernel_entry:
                hlt
            """ % MSR_LSTAR)
        assert "13" in str(excinfo.value)  # #GP with no IDT


class TestSystemRegisters:
    def test_cr_read_write(self):
        system, _ = run_program("""
        entry:
            mov rax, 0x5000
            mov cr3, rax
            mov rbx, cr3
            hlt
        """)
        assert system.cpu.sys.cr3 == 0x5000
        assert system.cpu.regs[3] == 0x5000

    def test_msr_read_write(self):
        system, _ = run_program("""
        entry:
            mov rcx, 0x150
            mov rax, 0x1234
            mov rdx, 0x1
            wrmsr
            mov rax, 0
            mov rdx, 0
            rdmsr
            hlt
        """)
        assert system.cpu.sys.msrs[0x150] == 0x1 << 32 | 0x1234
        assert system.cpu.regs[0] == 0x1234
        assert system.cpu.regs[2] == 0x1

    def test_unknown_msr_is_gp(self):
        with pytest.raises(CpuPanic):
            run_program("""
            entry:
                mov rcx, 0x9999
                rdmsr
                hlt
            """)

    def test_cpuid_vendor_string(self):
        system, _ = run_program("""
        entry:
            mov rax, 0
            cpuid
            hlt
        """)
        assert system.cpu.regs[3] == 0x756E6547  # "Genu"

    def test_rdtsc_returns_cycles(self):
        system, _ = run_program("""
        entry:
            nop
            nop
            rdtsc
            hlt
        """)
        assert system.cpu.regs[0] > 0

    def test_rdtsc_blocked_by_cr4_tsd_in_ring3(self):
        with pytest.raises(CpuPanic):
            run_program("""
            entry:
                mov rax, cr4
                or rax, %d
                mov cr4, rax
                mov rcx, %d
                mov rax, kernel_entry
                mov rdx, 0
                wrmsr
                mov rcx, user
                sysret
            user:
                rdtsc
                syscall
            kernel_entry:
                hlt
            """ % (CR4_TSD, MSR_LSTAR))

    def test_lidt_updates_idtr(self):
        system, _ = run_program("""
        entry:
            mov rcx, 0x610000
            mov rbx, 0x123000
            mov [rcx+0], rbx
            mov rbx, 255
            mov [rcx+8], rbx
            lidt [rcx+0]
            hlt
        """)
        assert system.cpu.sys.idtr.base == 0x123000
        assert system.cpu.sys.idtr.limit == 255

    def test_sidt_reads_back(self):
        system, _ = run_program("""
        entry:
            mov rcx, 0x610000
            mov rbx, 0x123000
            mov [rcx+0], rbx
            mov rbx, 255
            mov [rcx+8], rbx
            lidt [rcx+0]
            mov rdx, 0x611000
            sidt [rdx+0]
            mov rsi, [rdx+0]
            hlt
        """)
        assert system.cpu.regs[6] == 0x123000

    def test_dr4_dr5_reserved(self):
        with pytest.raises(CpuPanic):
            run_program("""
            entry:
                mov dr4, rax
                hlt
            """)

    def test_wrpkru_allowed_in_ring3(self):
        """The MPK hole: wrpkru is NOT ring-gated (Section 2.2)."""
        system, _ = run_program("""
        entry:
            mov rcx, %d
            mov rax, kernel_entry
            mov rdx, 0
            wrmsr
            mov rcx, user
            sysret
        user:
            mov rax, 0xFF
            wrpkru
            syscall
        kernel_entry:
            hlt
        """ % MSR_LSTAR)
        assert system.cpu.sys.pkru == 0xFF

    def test_wbinvd_flushes_hierarchy(self):
        system, _ = run_program("""
        entry:
            mov rbx, 0x620000
            mov rax, [rbx+0]
            wbinvd
            hlt
        """)
        # After wbinvd the same line misses again.
        hierarchy = system.machine.hierarchy
        assert hierarchy.access_data(0x620000) == hierarchy.miss_path_latency

    def test_clts_clears_ts(self):
        system, _ = run_program("""
        entry:
            mov rax, cr0
            or rax, 8
            mov cr0, rax
            clts
            hlt
        """)
        assert not system.cpu.sys.cr0 & 8
