"""The RISC-V MiniKernel and its ISA-Grid decomposition (Section 6.1).

The kernel is real simulated code: boot, supervisor trap entry, a
syscall dispatcher covering the LMbench operation set, and a handful of
privileged helper functions that touch CSRs.  It builds in two modes:

``native``
    The baseline: no ISA-Grid hardware, privileged helpers are plain
    function calls, every CSR is writable from anywhere in S mode.

``decomposed``
    The paper's use case 1.  The bulk of the kernel runs in a
    de-privileged *basic* domain that can execute general computation,
    read the exception CSRs, and flip only the SPP/SPIE/SIE bits of
    ``sstatus``.  Each CSR-writing helper lives in its own ISA domain
    reachable only through registered gates:

    ================  =======================  =====================
    domain            privilege                 caller
    ================  =======================  =====================
    ``vm``            write SATP, sfence.vma    ``sys_mmap``
    ``irq``           write SIE/SIP             ``sys_sigaction``
    ``ctx``           sstatus.FS bits           ``sys_yield``
    ``misc``          write scounteren only     ``sys_vuln`` (the
                                                hijackable module)
    ================  =======================  =====================

ISA-Grid faults vector to the shared trap entry, gate into the basic
domain, bump a fault counter in kernel data, skip the faulting
instruction and resume — so attack programs run to completion and the
evaluation reads the counter afterwards.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import CONFIG_8E, PcuConfig
from repro.riscv import (
    DATA_BASE,
    KERNEL_BASE,
    KERNEL_STACK_TOP,
    TRUSTED_BASE,
    TRUSTED_SIZE,
    USER_BASE,
    Program,
    RiscvSystem,
    assemble,
    build_riscv_system,
)
from repro.sim.machine import MachineStats

from .syscalls import (
    SYS_CLOSE,
    SYS_DUP,
    SYS_EXIT,
    SYS_FSTAT,
    SYS_GETPID,
    SYS_GETPPID,
    SYS_GETTIME,
    SYS_IOCTL,
    SYS_MMAP,
    SYS_MMAP2,
    SYS_OPEN,
    SYS_READ,
    SYS_REGISTER,
    SYS_SELECT,
    SYS_SIGACTION,
    SYS_STAT,
    SYS_VULN,
    SYS_WRITE,
    SYS_YIELD,
)

# Kernel-data layout (offsets from DATA_BASE).
OFF_FAULT_COUNT = 0x00
OFF_LAST_CAUSE = 0x08
OFF_SYSCALL_COUNT = 0x18
OFF_SIG_TABLE = 0x400
OFF_KBUF = 0x800
OFF_FD_TABLE = 0xA00
OFF_STAT = 0xE00
OFF_PT_AREA = 0x1000   # page-table pages populated by sys_mmap
OFF_CTX_AREA = 0x2000  # register-context area used by sys_yield
OFF_RT_GATE = 0x20     # gate id returned by runtime registration (§5.2)

# Runtime-registration metadata kept at the top of trusted memory:
# domain-0's registration function (assembly) reads the SGT base and
# bumps the next-free gate id here.  Only domain-0 can touch these
# words — they live inside the trusted region.
META_NEXT_GATE = TRUSTED_BASE + TRUSTED_SIZE - 8
META_SGT_BASE = TRUSTED_BASE + TRUSTED_SIZE - 16

# Representative work sizes for the heavyweight syscalls, sized so the
# native latencies approximate LMbench-on-Linux ratios (a real mmap or
# context switch costs thousands of cycles; the gate adds ~23).
PTE_ENTRIES = 192
SIGFRAME_WORDS = 96
CTX_SAVE_WORDS = 112

SSTATUS_BASIC_MASK = 0x122   # SPP | SPIE | SIE
SSTATUS_FS_MASK = 0x6000     # FS field

#: sys_vuln module selectors (the a1 argument).
VULN_MODULES = {"misc": 0, "vm": 1, "irq": 2, "ctx": 3}


@dataclass(frozen=True)
class GateSite:
    """One gate call site in the kernel source."""

    name: str
    gate_label: str
    dest_label: str
    domain: str


def _privileged_call(
    decomposed: bool, gate_index: int, gate_label: str, dest_label: str
) -> List[str]:
    """Emit either a gated cross-domain call or a plain function call."""
    if decomposed:
        return [
            "    li t0, %d" % gate_index,
            "%s:" % gate_label,
            "    hccalls t0",
        ]
    return ["    jal ra, %s" % dest_label]


def _privileged_return(decomposed: bool) -> List[str]:
    return ["    hcrets"] if decomposed else ["    ret"]


def kernel_source(
    decomposed: bool, *, pti: bool = False
) -> Tuple[str, Tuple[GateSite, ...]]:
    """Generate the MiniKernel assembly and its gate plan.

    With ``pti`` the syscall path switches SATP on entry and exit, the
    page-table-isolation cost of the Table 4 "w/ PTI" row (only
    meaningful in native mode).
    """
    gates: List[GateSite] = []

    def gate(name: str, gate_label: str, dest_label: str, domain: str) -> int:
        gates.append(GateSite(name, gate_label, dest_label, domain))
        return len(gates) - 1

    lines: List[str] = []
    emit = lines.append

    # ------------------------------------------------------------------
    # Boot (domain-0 on the decomposed kernel).
    # ------------------------------------------------------------------
    emit("boot:")
    emit("    li sp, %d" % KERNEL_STACK_TOP)
    # sscratch holds the top of the unused trap-stack region; the trap
    # entry swaps it with sp, which keeps nested traps re-entrant.
    emit("    li t0, %d" % KERNEL_STACK_TOP)
    emit("    csrw sscratch, t0")
    emit("    la t0, trap_entry")
    emit("    csrw stvec, t0")
    emit("    li t1, 7")
    emit("    csrw scounteren, t1")
    if decomposed:
        index = gate("leave_d0", "g_leave_d0", "kernel_init", "kernel")
        emit("    li t0, %d" % index)
        emit("g_leave_d0:")
        emit("    hccall t0")
    emit("kernel_init:")
    emit("    la t0, %d" % USER_BASE)
    emit("    csrw sepc, t0")
    emit("    li t1, 0x100")
    emit("    csrrc x0, sstatus, t1")
    emit("    sret")

    # ------------------------------------------------------------------
    # Trap entry.
    # ------------------------------------------------------------------
    # Re-entrant trap frame: swap sp with the trap-stack top held in
    # sscratch, save the interrupted sp and sepc in the frame, then move
    # sscratch down so a nested trap gets its own frame.
    emit("    .align 64")
    emit("trap_entry:")
    emit("    csrrw sp, sscratch, sp")
    emit("    addi sp, sp, -64")
    emit("    sd ra, 0(sp)")
    emit("    sd t0, 8(sp)")
    emit("    sd t1, 16(sp)")
    emit("    sd t2, 24(sp)")
    emit("    sd t3, 32(sp)")
    emit("    csrr t0, sscratch")
    emit("    sd t0, 40(sp)")
    emit("    csrr t0, sepc")
    emit("    sd t0, 48(sp)")
    emit("    csrw sscratch, sp")
    emit("    csrr t0, scause")
    emit("    li t1, 8")
    emit("    beq t0, t1, do_syscall")
    emit("    li t1, 9")
    emit("    beq t0, t1, do_syscall")
    emit("fault_path:")
    if decomposed:
        index = gate("fault", "g_fault", "fault_handler", "kernel")
        emit("    li t0, %d" % index)
        emit("g_fault:")
        emit("    hccall t0")
    else:
        emit("    j fault_handler")
    emit("    .align 64")
    emit("fault_handler:")
    emit("    la t1, %d" % DATA_BASE)
    emit("    ld t2, %d(t1)" % OFF_FAULT_COUNT)
    emit("    addi t2, t2, 1")
    emit("    sd t2, %d(t1)" % OFF_FAULT_COUNT)
    emit("    csrr t2, scause")
    emit("    sd t2, %d(t1)" % OFF_LAST_CAUSE)
    # Skip the faulting instruction: bump the sepc saved in this frame.
    emit("    ld t2, 48(sp)")
    emit("    addi t2, t2, 4")
    emit("    sd t2, 48(sp)")
    emit("    j trap_exit")

    # ------------------------------------------------------------------
    # Syscall dispatch.
    # ------------------------------------------------------------------
    emit("    .align 64")
    emit("do_syscall:")
    emit("    ld t0, 48(sp)")
    emit("    addi t0, t0, 4")
    emit("    sd t0, 48(sp)")
    emit("    la t1, %d" % DATA_BASE)
    emit("    ld t2, %d(t1)" % OFF_SYSCALL_COUNT)
    emit("    addi t2, t2, 1")
    emit("    sd t2, %d(t1)" % OFF_SYSCALL_COUNT)
    if pti:
        emit("    jal ra, fn_pti_enter")
    # Syscall jump table (like Linux's sys_call_table): one indirect
    # jump through a table of `j` trampolines instead of a compare chain.
    dispatch = {
        SYS_EXIT: "sys_exit",
        SYS_GETPID: "sys_getpid",
        SYS_READ: "sys_read",
        SYS_WRITE: "sys_write",
        SYS_STAT: "sys_stat",
        SYS_FSTAT: "sys_stat",
        SYS_OPEN: "sys_open",
        SYS_CLOSE: "sys_close",
        SYS_SIGACTION: "sys_sigaction",
        SYS_MMAP: "sys_mmap",
        SYS_GETPPID: "sys_getpid",
        SYS_DUP: "sys_dup",
        SYS_IOCTL: "sys_ioctl",
        SYS_YIELD: "sys_yield",
        SYS_GETTIME: "sys_gettime",
        SYS_SELECT: "sys_select",
        SYS_VULN: "sys_vuln",
        SYS_REGISTER: "sys_register",
        SYS_MMAP2: "sys_mmap2",
    }
    table_size = max(dispatch) + 1
    emit("    li t0, %d" % table_size)
    emit("    bgeu a7, t0, trap_exit_far")
    emit("    slli t0, a7, 2")
    emit("    la t1, syscall_table")
    emit("    add t1, t1, t0")
    emit("    jr t1")
    emit("trap_exit_far:")
    emit("    j trap_exit")
    emit("    .align 64")
    emit("syscall_table:")
    for number in range(table_size):
        emit("    j %s" % dispatch.get(number, "trap_exit"))

    # ------------------------------------------------------------------
    # Syscall bodies.
    # ------------------------------------------------------------------
    emit("    .align 64")
    emit("sys_exit:")
    emit("    halt")

    emit("    .align 64")
    emit("sys_getpid:")
    emit("    li a0, 42")
    emit("    j trap_exit")

    # read(buf, len): copy from the kernel buffer (len capped at 256,
    # rounded to 8).
    emit("    .align 64")
    emit("sys_read:")
    emit("    la t0, %d" % (DATA_BASE + OFF_KBUF))
    emit("    andi a1, a1, 248")
    emit("    mv t2, a0")
    emit("read_loop:")
    emit("    beqz a1, read_done")
    emit("    ld t1, 0(t0)")
    emit("    sd t1, 0(t2)")
    emit("    addi t0, t0, 8")
    emit("    addi t2, t2, 8")
    emit("    addi a1, a1, -8")
    emit("    j read_loop")
    emit("read_done:")
    emit("    mv a0, a1")
    emit("    j trap_exit")

    emit("    .align 64")
    emit("sys_write:")
    emit("    la t0, %d" % (DATA_BASE + OFF_KBUF))
    emit("    andi a1, a1, 248")
    emit("    mv t2, a0")
    emit("write_loop:")
    emit("    beqz a1, write_done")
    emit("    ld t1, 0(t2)")
    emit("    sd t1, 0(t0)")
    emit("    addi t0, t0, 8")
    emit("    addi t2, t2, 8")
    emit("    addi a1, a1, -8")
    emit("    j write_loop")
    emit("write_done:")
    emit("    mv a0, a1")
    emit("    j trap_exit")

    # stat/fstat: fill a 16-word record.
    emit("    .align 64")
    emit("sys_stat:")
    emit("    la t0, %d" % (DATA_BASE + OFF_STAT))
    emit("    li t1, 16")
    emit("stat_loop:")
    emit("    sd t1, 0(t0)")
    emit("    addi t0, t0, 8")
    emit("    addi t1, t1, -1")
    emit("    bnez t1, stat_loop")
    emit("    li a0, 0")
    emit("    j trap_exit")

    # open(path-hash): hash the argument, claim an fd slot.
    emit("    .align 64")
    emit("sys_open:")
    emit("    mv t0, a0")
    emit("    li t1, 0")
    emit("    li t2, 8")
    emit("open_hash:")
    emit("    slli t1, t1, 5")
    emit("    add t1, t1, t0")
    emit("    srli t0, t0, 3")
    emit("    addi t2, t2, -1")
    emit("    bnez t2, open_hash")
    emit("    andi t1, t1, 63")
    emit("    la t0, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    slli t2, t1, 3")
    emit("    add t0, t0, t2")
    emit("    li t3, 1")
    emit("    sd t3, 0(t0)")
    emit("    mv a0, t1")
    emit("    j trap_exit")

    emit("    .align 64")
    emit("sys_close:")
    emit("    andi a0, a0, 63")
    emit("    la t0, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    slli t2, a0, 3")
    emit("    add t0, t0, t2")
    emit("    sd zero, 0(t0)")
    emit("    li a0, 0")
    emit("    j trap_exit")

    emit("    .align 64")
    emit("sys_dup:")
    emit("    andi a0, a0, 63")
    emit("    la t0, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    slli t2, a0, 3")
    emit("    add t2, t0, t2")
    emit("    ld t3, 0(t2)")
    emit("    addi a0, a0, 1")
    emit("    andi a0, a0, 63")
    emit("    slli t2, a0, 3")
    emit("    add t2, t0, t2")
    emit("    sd t3, 0(t2)")
    emit("    j trap_exit")

    # sigaction(sig, handler): store the handler, build the sigframe
    # bookkeeping a real kernel does, then enable the interrupt line —
    # the SIE write lives in the irq domain.
    emit("    .align 64")
    emit("sys_sigaction:")
    emit("    andi a0, a0, 63")
    emit("    la t0, %d" % (DATA_BASE + OFF_SIG_TABLE))
    emit("    slli t2, a0, 3")
    emit("    add t0, t0, t2")
    emit("    sd a1, 0(t0)")
    emit("    la t0, %d" % (DATA_BASE + OFF_STAT))
    emit("    li t1, %d" % SIGFRAME_WORDS)
    emit("sig_frame_loop:")
    emit("    sd a1, 0(t0)")
    emit("    addi t0, t0, 8")
    emit("    addi t1, t1, -1")
    emit("    bnez t1, sig_frame_loop")
    index = gate("enable_irq", "g_enable_irq", "fn_enable_irq", "irq")
    lines.extend(_privileged_call(decomposed, index, "g_enable_irq", "fn_enable_irq"))
    emit("    li a0, 0")
    emit("    j trap_exit")

    # mmap(satp-value): populate the page-table entries (the bulk of a
    # real mmap), then install the root via the vm domain's SATP write.
    emit("    .align 64")
    emit("sys_mmap:")
    emit("    la t0, %d" % (DATA_BASE + OFF_PT_AREA))
    emit("    li t1, %d" % PTE_ENTRIES)
    emit("    mv t2, a0")
    emit("mmap_pte_loop:")
    emit("    slli t3, t1, 10")
    emit("    or t3, t3, t2")
    emit("    sd t3, 0(t0)")
    emit("    addi t0, t0, 8")
    emit("    addi t1, t1, -1")
    emit("    bnez t1, mmap_pte_loop")
    index = gate("set_satp", "g_set_satp", "fn_set_satp", "vm")
    lines.extend(_privileged_call(decomposed, index, "g_set_satp", "fn_set_satp"))
    emit("    li a0, 0")
    emit("    j trap_exit")

    emit("    .align 64")
    emit("sys_ioctl:")
    emit("    li a0, 0")
    emit("    j trap_exit")

    # yield: context-switch work — save and restore a full register
    # context plus a runqueue scan, the way a real scheduler tick does;
    # FPU-state handling lives in the ctx domain (sstatus.FS bits).
    emit("    .align 64")
    emit("sys_yield:")
    emit("    la t0, %d" % (DATA_BASE + OFF_CTX_AREA))
    emit("    li t1, %d" % CTX_SAVE_WORDS)
    emit("yield_save:")
    emit("    sd t1, 0(t0)")
    emit("    addi t0, t0, 8")
    emit("    addi t1, t1, -1")
    emit("    bnez t1, yield_save")
    emit("    la t0, %d" % (DATA_BASE + OFF_CTX_AREA))
    emit("    li t1, %d" % CTX_SAVE_WORDS)
    emit("yield_restore:")
    emit("    ld t2, 0(t0)")
    emit("    addi t0, t0, 8")
    emit("    addi t1, t1, -1")
    emit("    bnez t1, yield_restore")
    index = gate("ctx_fpu", "g_ctx_fpu", "fn_ctx_fpu", "ctx")
    lines.extend(_privileged_call(decomposed, index, "g_ctx_fpu", "fn_ctx_fpu"))
    emit("    li a0, 0")
    emit("    j trap_exit")

    emit("    .align 64")
    emit("sys_gettime:")
    emit("    csrr a0, time")
    emit("    j trap_exit")

    emit("    .align 64")
    emit("sys_select:")
    emit("    la t0, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    li t1, 64")
    emit("    li a0, 0")
    emit("select_loop:")
    emit("    ld t2, 0(t0)")
    emit("    add a0, a0, t2")
    emit("    addi t0, t0, 8")
    emit("    addi t1, t1, -1")
    emit("    bnez t1, select_loop")
    emit("    j trap_exit")

    # vuln(target, module): a hijackable entry point per kernel module —
    # jumps to a caller-controlled address *inside that module's ISA
    # domain* (the attacker model of §6.1: a control-flow hijack in an
    # unrelated module).  a0 = target address, a1 = module selector.
    vuln_modules = ("misc", "vm", "irq", "ctx")
    emit("    .align 64")
    emit("sys_vuln:")
    for module_index, module in enumerate(vuln_modules):
        emit("    li t0, %d" % module_index)
        emit("    beq a1, t0, vuln_%s" % module)
    emit("    j trap_exit")
    for module in vuln_modules:
        emit("vuln_%s:" % module)
        index = gate(
            "vuln_%s" % module, "g_vuln_%s" % module, "fn_vuln_%s" % module, module
        )
        lines.extend(
            _privileged_call(
                decomposed, index, "g_vuln_%s" % module, "fn_vuln_%s" % module
            )
        )
        emit("    li a0, 0")
        emit("    j trap_exit")

    # Runtime gate registration (§5.2): gate into domain-0, whose
    # software writes the new SGT entry directly into trusted memory —
    # only domain-0 loads/stores may touch that region.  a0 = gate
    # address, a1 = destination address, a2 = destination domain.
    emit("    .align 64")
    emit("sys_register:")
    if decomposed:
        index = gate("register", "g_register", "fn_register_d0", "domain-0")
        lines.extend(_privileged_call(decomposed, index, "g_register", "fn_register_d0"))
    else:
        emit("    li a0, -1")  # no gates to register on the native kernel
    emit("    la t1, %d" % DATA_BASE)
    emit("    sd a0, %d(t1)" % OFF_RT_GATE)
    emit("    j trap_exit")

    # mmap2: identical to mmap but through the runtime-registered gate.
    emit("    .align 64")
    emit("sys_mmap2:")
    if decomposed:
        emit("    la t1, %d" % DATA_BASE)
        emit("    ld t0, %d(t1)" % OFF_RT_GATE)
        emit("g_mmap2:")
        emit("    hccalls t0")
    else:
        emit("    jal ra, fn_set_satp")
    emit("    li a0, 0")
    emit("    j trap_exit")

    # ------------------------------------------------------------------
    # Privileged helper functions (their own domains when decomposed).
    # ------------------------------------------------------------------
    if decomposed:
        # Domain-0's registration service: append one SGT entry.
        emit("    .align 64")
        emit("fn_register_d0:")
        emit("    li t1, %d" % META_NEXT_GATE)
        emit("    ld t2, 0(t1)")           # next free gate id
        emit("    li t3, %d" % META_SGT_BASE)
        emit("    ld t3, 0(t3)")           # SGT base address
        emit("    slli t4, t2, 5")         # 4 words = 32 bytes per entry
        emit("    add t3, t3, t4")
        emit("    sd a0, 0(t3)")           # gate address
        emit("    sd a1, 8(t3)")           # destination address
        emit("    sd a2, 16(t3)")          # destination domain
        emit("    li t4, 1")
        emit("    sd t4, 24(t3)")          # valid
        emit("    addi t4, t2, 1")
        emit("    sd t4, 0(t1)")
        emit("    mv a0, t2")              # return the new gate id
        emit("    hcrets")

    emit("    .align 64")
    emit("fn_set_satp:")
    emit("    csrw satp, a0")
    emit("    sfence.vma")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_enable_irq:")
    emit("    li t3, 2")
    emit("    csrrs x0, sie, t3")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_ctx_fpu:")
    emit("    li t3, 0x2000")
    emit("    csrrs x0, sstatus, t3")
    emit("    csrrc x0, sstatus, t3")
    lines.extend(_privileged_return(decomposed))

    for module in vuln_modules:
        emit("fn_vuln_%s:" % module)
        emit("    addi sp, sp, -8")
        emit("    sd ra, 0(sp)")
        emit("    mv t3, a0")
        emit("    jalr ra, t3")
        emit("    ld ra, 0(sp)")
        emit("    addi sp, sp, 8")
        lines.extend(_privileged_return(decomposed))

    if pti:
        emit("fn_pti_enter:")
        emit("    csrr t3, satp")
        emit("    csrw satp, t3")
        emit("    sfence.vma")
        emit("    ret")

    # ------------------------------------------------------------------
    # Trap exit.
    # ------------------------------------------------------------------
    emit("    .align 64")
    emit("trap_exit:")
    if pti:
        emit("    csrr t3, satp")
        emit("    csrw satp, t3")
        emit("    sfence.vma")
    emit("    ld t0, 48(sp)")
    emit("    csrw sepc, t0")
    emit("    addi t1, sp, 64")
    emit("    csrw sscratch, t1")
    emit("    ld ra, 0(sp)")
    emit("    ld t0, 8(sp)")
    emit("    ld t1, 16(sp)")
    emit("    ld t2, 24(sp)")
    emit("    ld t3, 32(sp)")
    emit("    ld sp, 40(sp)")
    emit("    sret")

    return "\n".join(lines) + "\n", tuple(gates)


@functools.lru_cache(maxsize=None)
def kernel_image(decomposed: bool, pti: bool) -> Tuple[Program, Tuple[GateSite, ...]]:
    """The assembled kernel and its gate plan, built once per process.

    Every boot with the same ``(decomposed, pti)`` shares this frozen
    image: :class:`RiscvKernel` copies its bytes into the machine's
    memory and only reads its symbols and gate plan, so the cache holds
    at most four images.
    """
    source, gate_plan = kernel_source(decomposed, pti=pti)
    return assemble(source, base=KERNEL_BASE), gate_plan


#: CSR privileges of the basic kernel domain (read, write sets).
BASIC_READABLE = (
    "sstatus", "sie", "stvec", "scounteren", "sscratch", "sepc", "scause",
    "stval", "sip", "satp", "domain", "pdomain", "cycle", "time", "instret",
)
BASIC_WRITABLE = ("sscratch", "sepc", "stval", "scounteren")

#: Instruction classes for the basic kernel domain.
BASIC_CLASSES = (
    "alu", "mul", "load", "store", "branch", "jump", "fence",
    "ecall", "ebreak", "csr", "sret", "wfi", "halt", "pfch", "pflh",
)

#: Every module domain needs the trap-entry footprint.
MODULE_READABLE = ("scause", "sepc", "stval", "sscratch", "cycle", "domain", "pdomain")
MODULE_WRITABLE = ("sscratch",)
MODULE_CLASSES = (
    "alu", "mul", "load", "store", "branch", "jump", "fence", "csr", "halt",
)


class RiscvKernel:
    """A booted MiniKernel on a RISC-V system.

    Parameters
    ----------
    mode:
        ``"native"`` (no ISA-Grid hardware) or ``"decomposed"``
        (use case 1).
    config:
        PCU configuration for the decomposed mode.
    pti:
        Add page-table-isolation work to the syscall path (Table 4).
    """

    def __init__(
        self,
        mode: str = "decomposed",
        config: PcuConfig = CONFIG_8E,
        *,
        pti: bool = False,
    ):
        if mode not in ("native", "decomposed"):
            raise ValueError("mode must be 'native' or 'decomposed'")
        self.mode = mode
        self.decomposed = mode == "decomposed"
        self.system = build_riscv_system(config, with_isagrid=self.decomposed)
        self.program, self.gate_plan = kernel_image(self.decomposed, pti)
        self.domains: Dict[str, int] = {}
        self.system.load(self.program)
        if self.decomposed:
            self._configure_domains()

    # ------------------------------------------------------------------
    def _configure_domains(self) -> None:
        manager = self.system.manager
        assert manager is not None
        kernel = manager.create_domain("kernel")
        manager.allow_instructions(kernel.domain_id, BASIC_CLASSES)
        for name in BASIC_READABLE:
            manager.grant_register(kernel.domain_id, name, read=True)
        for name in BASIC_WRITABLE:
            manager.grant_register(kernel.domain_id, name, write=True)
        manager.grant_register_bits(kernel.domain_id, "sstatus", SSTATUS_BASIC_MASK)
        manager.grant_register(kernel.domain_id, "sstatus", read=True)
        self.domains["kernel"] = kernel.domain_id

        for name in ("vm", "irq", "ctx", "misc"):
            domain = manager.create_domain(name)
            manager.allow_instructions(domain.domain_id, MODULE_CLASSES)
            for csr in MODULE_READABLE:
                manager.grant_register(domain.domain_id, csr, read=True)
            for csr in MODULE_WRITABLE:
                manager.grant_register(domain.domain_id, csr, write=True)
            self.domains[name] = domain.domain_id

        manager.allow_instructions(self.domains["vm"], ("sfence_vma",))
        manager.grant_register(self.domains["vm"], "satp", read=True, write=True)
        manager.grant_register(self.domains["irq"], "sie", read=True, write=True)
        manager.grant_register(self.domains["irq"], "sip", read=True, write=True)
        manager.grant_register_bits(self.domains["ctx"], "sstatus", SSTATUS_FS_MASK)
        manager.grant_register(self.domains["ctx"], "sstatus", read=True)
        manager.grant_register(self.domains["misc"], "scounteren", read=True, write=True)

        self.domains["domain-0"] = 0
        manager.allocate_trusted_stack(frames=128)
        for site in self.gate_plan:
            manager.register_gate(
                self.program.symbol(site.gate_label),
                self.program.symbol(site.dest_label),
                self.domains[site.domain],
            )
        # Publish the SGT base and next-free gate id for domain-0's
        # runtime registration service (§5.2).
        pcu = self.system.pcu
        self.memory.store_word(META_SGT_BASE, pcu.sgt.base)
        self.memory.store_word(META_NEXT_GATE, pcu.sgt.gate_nr)

    # ------------------------------------------------------------------
    @property
    def cpu(self):
        return self.system.cpu

    @property
    def memory(self):
        return self.system.machine.memory

    @property
    def fault_count(self) -> int:
        return self.memory.load(DATA_BASE + OFF_FAULT_COUNT, 8)

    @property
    def last_fault_cause(self) -> int:
        return self.memory.load(DATA_BASE + OFF_LAST_CAUSE, 8)

    @property
    def syscall_count(self) -> int:
        return self.memory.load(DATA_BASE + OFF_SYSCALL_COUNT, 8)

    def load_user(self, user: Program) -> None:
        if user.base != USER_BASE:
            raise ValueError("user programs must be assembled at USER_BASE")
        self.system.load(user)

    def run(self, user: Optional[Program] = None, max_steps: int = 5_000_000) -> MachineStats:
        """Boot the kernel (entering the user program) and run to halt."""
        if user is not None:
            self.load_user(user)
        return self.system.run(self.program.symbol("boot"), max_steps)

    def symbol(self, name: str) -> int:
        return self.program.symbol(name)
