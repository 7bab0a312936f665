"""The x86 MiniKernel and its ISA-Grid decomposition (Section 6.1).

The x86 variant follows the paper's x86 prototype: IDTR/GDTR/LSTAR and
the speculation-control MSRs are written once during boot (in domain-0)
and frozen afterwards — no runtime domain can write them.  Each function
that modifies LDTR, CR0.TS/CR0.NE, CR3, or one of the runtime MSRs lives
in its own ISA domain; the basic kernel domain may flip *only* the
CR4.SMAP bit (bit-level control), which it does around user-memory
copies.

Domains (decomposed mode):

==========  =============================================  ===========
domain      extra privilege                                 used by
==========  =============================================  ===========
``kernel``  CR4.SMAP bit only; CR reads; rdtsc              all syscalls
``vm``      write CR3, invlpg                               sys_mmap
``fpu``     CR0.TS/CR0.NE bits, clts                        sys_yield
``ldt``     write LDTR                                      sys_sigaction
``power``   MSR 0x150 read/write                            ioctl 5
``mtrr``    MTRR MSR reads                                  ioctl 2
``cpuid``   cpuid                                           ioctl 1
``pmu``     rdpmc, PMC reads                                ioctl 3, 4
``debug``   DR0-DR7 read/write                              sys_vuln (the
                                                            hijackable
                                                            module)
==========  =============================================  ===========

ISA-Grid faults (and #GP/#UD) vector through the IDT, gate into the
basic domain, bump the fault counter, and redirect the interrupted
context to a caller-provided abort continuation (x86 instructions have
variable length, so skip-and-continue is not possible the way it is on
RISC-V); with no abort continuation configured the machine halts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import CONFIG_8E, PcuConfig
from repro.sim.machine import MachineStats
from repro.x86 import (
    DATA_BASE,
    IDT_BASE,
    KERNEL_BASE,
    KERNEL_STACK_TOP,
    MSR_LSTAR,
    Program,
    TRUSTED_BASE,
    TRUSTED_SIZE,
    USER_BASE,
    VEC_GP,
    VEC_ISA_GRID,
    VEC_TRUSTED_MEMORY,
    VEC_UD,
    X86System,
    assemble,
    build_x86_system,
)
from repro.x86.registers import (
    CR0_NE,
    CR0_TS,
    CR0_WP,
    CR4_SMAP,
    EFER_SCE,
    MSR_EFER,
    MSR_SPEC_CTRL,
)

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
OFF_SAVED_RSP = 0x10
OFF_SYSCALL_COUNT = 0x18
OFF_SAVED_RCX = 0x28
OFF_ABORT_RIP = 0x30
OFF_DTR_SCRATCH = 0x40
OFF_MON_LOG_IDX = 0x38
OFF_SIG_TABLE = 0x400
OFF_KBUF = 0x800
OFF_FD_TABLE = 0xA00
OFF_STAT = 0xE00
OFF_PT_AREA = 0x1000      # the "page table" the nested monitor guards
OFF_MON_LOG = 0x1200      # Nest.Mon.Log circular buffer (256 frames)
OFF_CTX_AREA = 0x2800     # register-context area used by sys_yield
OFF_PTE_WORK = 0x3000     # page-table pages populated by sys_mmap
OFF_RT_GATE = 0x20        # gate id returned by runtime registration (§5.2)

# Runtime-registration metadata at the top of trusted memory (see the
# RISC-V kernel for the protocol).
META_NEXT_GATE = TRUSTED_BASE + TRUSTED_SIZE - 8
META_SGT_BASE = TRUSTED_BASE + TRUSTED_SIZE - 16

# Representative work sizes (see the RISC-V kernel for rationale).
PTE_ENTRIES = 192
SIGFRAME_WORDS = 96
CTX_SAVE_WORDS = 112

SERVICE_CPUID = 1
SERVICE_MTRR = 2
SERVICE_PMC_IRQ = 3
SERVICE_PMC_MISS = 4
SERVICE_VOLTAGE = 5

#: sys_vuln module selectors (the rsi argument).
VULN_MODULES = {
    "debug": 0, "power": 1, "mtrr": 2, "cpuid": 3,
    "pmu": 4, "vm": 5, "fpu": 6, "ldt": 7,
}


@dataclass(frozen=True)
class GateSite:
    name: str
    gate_label: str
    dest_label: str
    domain: str


def _privileged_call(
    decomposed: bool, gate_index: int, gate_label: str, dest_label: str
) -> List[str]:
    if decomposed:
        return [
            "    mov r10, %d" % gate_index,
            "%s:" % gate_label,
            "    hccalls r10",
        ]
    return ["    call %s" % dest_label]


def _privileged_return(decomposed: bool) -> List[str]:
    return ["    hcrets"] if decomposed else ["    ret"]


def kernel_source(
    decomposed: bool, variant: str = "plain"
) -> Tuple[str, Tuple[GateSite, ...]]:
    """Generate the x86 MiniKernel assembly and its gate plan.

    ``variant`` selects how page-table updates are handled:

    * ``"plain"`` — ``sys_mmap`` writes CR3 via the vm domain (§6.1);
    * ``"nested"`` — a Nested-Kernel monitor mediates all page-table
      writes behind entry/exit gates, toggling CR0.WP (§6.2, Nest.Mon.);
    * ``"nested_log"`` — as ``"nested"`` plus a circular log of recent
      page-table modifications (Nest.Mon.Log).
    """
    if variant not in ("plain", "nested", "nested_log"):
        raise ValueError("unknown kernel variant %r" % variant)
    gates: List[GateSite] = []

    def gate(name: str, gate_label: str, dest_label: str, domain: str) -> int:
        gates.append(GateSite(name, gate_label, dest_label, domain))
        return len(gates) - 1

    lines: List[str] = []
    emit = lines.append

    # ------------------------------------------------------------------
    # Boot (domain-0): IDT, IDTR, LSTAR, EFER.SCE, spec-ctrl hardening.
    # These registers are frozen after boot — no runtime domain can
    # write them (Section 6.1).
    # ------------------------------------------------------------------
    emit("boot:")
    emit("    mov rsp, %d" % KERNEL_STACK_TOP)
    emit("    mov rax, %d" % IDT_BASE)
    for vector, label in (
        (VEC_UD, "vec_ud"),
        (VEC_GP, "vec_gp"),
        (VEC_ISA_GRID, "vec_isagrid"),
        (VEC_TRUSTED_MEMORY, "vec_tmem"),
    ):
        emit("    mov rbx, %s" % label)
        emit("    mov [rax+%d], rbx" % (8 * vector))
    emit("    mov rbx, %d" % DATA_BASE)
    emit("    mov rcx, %d" % IDT_BASE)
    emit("    mov [rbx+%d], rcx" % OFF_DTR_SCRATCH)
    emit("    mov rcx, 4095")
    emit("    mov [rbx+%d], rcx" % (OFF_DTR_SCRATCH + 8))
    emit("    lidt [rbx+%d]" % OFF_DTR_SCRATCH)
    emit("    mov rcx, %d" % MSR_LSTAR)
    emit("    mov rax, syscall_entry")
    emit("    mov rdx, 0")
    emit("    wrmsr")
    emit("    mov rcx, %d" % MSR_EFER)
    emit("    mov rax, %d" % EFER_SCE)
    emit("    mov rdx, 0")
    emit("    wrmsr")
    emit("    mov rcx, %d" % MSR_SPEC_CTRL)  # SgxPectre hardening at init
    emit("    mov rax, 1")
    emit("    mov rdx, 0")
    emit("    wrmsr")
    if decomposed:
        index = gate("leave_d0", "g_leave_d0", "kernel_init", "kernel")
        emit("    mov r10, %d" % index)
        emit("g_leave_d0:")
        emit("    hccall r10")
    emit("kernel_init:")
    emit("    mov rcx, %d" % USER_BASE)
    emit("    sysret")

    # ------------------------------------------------------------------
    # Fault vectors: record which vector fired, then take the common
    # fault path (gate into the basic domain when decomposed).
    # ------------------------------------------------------------------
    for label, vector in (
        ("vec_ud", VEC_UD),
        ("vec_gp", VEC_GP),
        ("vec_isagrid", VEC_ISA_GRID),
        ("vec_tmem", VEC_TRUSTED_MEMORY),
    ):
        emit("%s:" % label)
        emit("    mov r8, %d" % DATA_BASE)
        emit("    mov r9, %d" % vector)
        emit("    mov [r8+%d], r9" % OFF_LAST_CAUSE)
        emit("    jmp fault_path")
    emit("fault_path:")
    if decomposed:
        index = gate("fault", "g_fault", "fault_body", "kernel")
        emit("    mov r10, %d" % index)
        emit("g_fault:")
        emit("    hccall r10")
    emit("    .align 64")
    emit("fault_body:")
    emit("    mov r8, %d" % DATA_BASE)
    emit("    mov r9, [r8+%d]" % OFF_FAULT_COUNT)
    emit("    add r9, 1")
    emit("    mov [r8+%d], r9" % OFF_FAULT_COUNT)
    emit("    mov r9, [r8+%d]" % OFF_ABORT_RIP)
    emit("    test r9, r9")
    emit("    jne fault_redirect")
    emit("    hlt")  # no abort continuation: stop the machine visibly
    emit("fault_redirect:")
    emit("    mov rbx, rsp")      # rsp-based operands need SIB; copy first
    emit("    mov [rbx+8], r9")   # rewrite the interrupt frame's rip
    emit("    mov r9, 3")
    emit("    mov [rbx+0], r9")   # resume in ring 3
    emit("    iret")

    # ------------------------------------------------------------------
    # Syscall entry (LSTAR target).
    # ------------------------------------------------------------------
    emit("    .align 64")
    emit("syscall_entry:")
    emit("    mov r8, %d" % DATA_BASE)
    emit("    mov [r8+%d], rsp" % OFF_SAVED_RSP)
    emit("    mov [r8+%d], rcx" % OFF_SAVED_RCX)
    emit("    mov rsp, %d" % (KERNEL_STACK_TOP - 64))
    emit("    mov r9, [r8+%d]" % OFF_SYSCALL_COUNT)
    emit("    add r9, 1")
    emit("    mov [r8+%d], r9" % OFF_SYSCALL_COUNT)
    # Syscall jump table (like Linux's sys_call_table): index into a
    # table of 8-byte jmp trampolines, enter via push+ret (the encoder
    # subset has no indirect jmp).
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
    emit("    cmp rax, %d" % table_size)
    emit("    jae bad_syscall")
    emit("    mov r9, rax")
    emit("    shl r9, 3")
    emit("    add r9, syscall_table")
    emit("    push r9")
    emit("    ret")
    emit("bad_syscall:")
    emit("    mov rax, -1")
    emit("    jmp syscall_exit")
    emit("    .align 64")
    emit("syscall_table:")
    for number in range(table_size):
        emit("    jmp %s" % dispatch.get(number, "bad_syscall"))
        emit("    .align 8")

    # ------------------------------------------------------------------
    # Syscall bodies.
    # ------------------------------------------------------------------
    emit("    .align 64")
    emit("sys_exit:")
    emit("    mov rax, rdi")
    emit("    hlt")

    emit("    .align 64")
    emit("sys_getpid:")
    emit("    mov rax, 42")
    emit("    jmp syscall_exit")

    # read(buf, len): SMAP-opened copy from the kernel buffer.  The
    # CR4 writes flip only the SMAP bit — the basic domain's entire
    # write privilege on CR4 (bit-level control in action).
    for name, src_is_kernel in (("read", True), ("write", False)):
        emit("sys_%s:" % name)
        emit("    mov rax, cr4")
        emit("    or rax, %d" % CR4_SMAP)
        emit("    mov cr4, rax")
        if src_is_kernel:
            emit("    mov r9, %d" % (DATA_BASE + OFF_KBUF))
            emit("    mov r10, rdi")
        else:
            emit("    mov r9, rdi")
            emit("    mov r10, %d" % (DATA_BASE + OFF_KBUF))
        emit("    mov r11, rsi")
        emit("    and r11, 248")
        emit("%s_loop:" % name)
        emit("    cmp r11, 0")
        emit("    je %s_done" % name)
        emit("    mov rbx, [r9+0]")
        emit("    mov [r10+0], rbx")
        emit("    add r9, 8")
        emit("    add r10, 8")
        emit("    sub r11, 8")
        emit("    jmp %s_loop" % name)
        emit("%s_done:" % name)
        emit("    mov rax, cr4")
        emit("    and rax, %d" % -(CR4_SMAP + 1))
        emit("    mov cr4, rax")
        emit("    mov rax, 0")
        emit("    jmp syscall_exit")

    emit("    .align 64")
    emit("sys_stat:")
    emit("    mov r9, %d" % (DATA_BASE + OFF_STAT))
    emit("    mov r10, 16")
    emit("stat_loop:")
    emit("    mov [r9+0], r10")
    emit("    add r9, 8")
    emit("    sub r10, 1")
    emit("    jne stat_loop")
    emit("    mov rax, 0")
    emit("    jmp syscall_exit")

    emit("    .align 64")
    emit("sys_open:")
    emit("    mov r9, rdi")
    emit("    mov r10, 0")
    emit("    mov r11, 8")
    emit("open_hash:")
    emit("    shl r10, 5")
    emit("    add r10, r9")
    emit("    shr r9, 3")
    emit("    sub r11, 1")
    emit("    jne open_hash")
    emit("    and r10, 63")
    emit("    mov r9, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    mov rbx, r10")
    emit("    shl rbx, 3")
    emit("    add r9, rbx")
    emit("    mov rbx, 1")
    emit("    mov [r9+0], rbx")
    emit("    mov rax, r10")
    emit("    jmp syscall_exit")

    emit("    .align 64")
    emit("sys_close:")
    emit("    mov r9, rdi")
    emit("    and r9, 63")
    emit("    shl r9, 3")
    emit("    add r9, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    mov rbx, 0")
    emit("    mov [r9+0], rbx")
    emit("    mov rax, 0")
    emit("    jmp syscall_exit")

    emit("    .align 64")
    emit("sys_dup:")
    emit("    mov r9, rdi")
    emit("    and r9, 63")
    emit("    shl r9, 3")
    emit("    add r9, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    mov rbx, [r9+0]")
    emit("    mov [r9+8], rbx")
    emit("    mov rax, 0")
    emit("    jmp syscall_exit")

    # sigaction(sig, handler): store handler, build the sigframe, then
    # refresh the LDT (the LDTR write lives in the ldt domain).
    emit("    .align 64")
    emit("sys_sigaction:")
    emit("    mov r9, rdi")
    emit("    and r9, 63")
    emit("    shl r9, 3")
    emit("    add r9, %d" % (DATA_BASE + OFF_SIG_TABLE))
    emit("    mov [r9+0], rsi")
    emit("    mov r9, %d" % (DATA_BASE + OFF_STAT))
    emit("    mov r10, %d" % SIGFRAME_WORDS)
    emit("sig_frame_loop:")
    emit("    mov [r9+0], rsi")
    emit("    add r9, 8")
    emit("    sub r10, 1")
    emit("    jne sig_frame_loop")
    index = gate("set_ldt", "g_set_ldt", "fn_set_ldt", "ldt")
    lines.extend(_privileged_call(decomposed, index, "g_set_ldt", "fn_set_ldt"))
    emit("    mov rax, 0")
    emit("    jmp syscall_exit")

    # mmap: a page-table update.  Plain variant: the CR3 write lives in
    # the vm domain.  Nested variants: the monitor mediates the
    # page-table-entry writes behind entry/exit gates (Section 6.2).
    emit("    .align 64")
    emit("sys_mmap:")
    # Populate the page-table entries first (the bulk of a real mmap).
    emit("    mov r9, %d" % (DATA_BASE + OFF_PTE_WORK))
    emit("    mov r10, %d" % PTE_ENTRIES)
    emit("mmap_pte_loop:")
    emit("    mov rbx, r10")
    emit("    shl rbx, 10")
    emit("    or rbx, rdi")
    emit("    mov [r9+0], rbx")
    emit("    add r9, 8")
    emit("    sub r10, 1")
    emit("    jne mmap_pte_loop")
    if variant == "plain":
        index = gate("write_cr3", "g_write_cr3", "fn_write_cr3", "vm")
        lines.extend(_privileged_call(decomposed, index, "g_write_cr3", "fn_write_cr3"))
    elif decomposed:
        index = gate("mon_enter", "g_mon_enter", "monitor_entry", "monitor")
        emit("    mov r10, %d" % index)
        emit("g_mon_enter:")
        emit("    hccall r10")
    else:
        emit("    jmp monitor_entry")
    emit("mmap_done:")
    emit("    mov rax, 0")
    emit("    jmp syscall_exit")

    # yield: context-switch work — full register-context save/restore
    # plus a runqueue scan; the CR0.TS flip lives in the fpu domain.
    emit("    .align 64")
    emit("sys_yield:")
    emit("    mov r9, %d" % (DATA_BASE + OFF_CTX_AREA))
    emit("    mov r10, %d" % CTX_SAVE_WORDS)
    emit("yield_save:")
    emit("    mov [r9+0], r10")
    emit("    add r9, 8")
    emit("    sub r10, 1")
    emit("    jne yield_save")
    emit("    mov r9, %d" % (DATA_BASE + OFF_CTX_AREA))
    emit("    mov r10, %d" % CTX_SAVE_WORDS)
    emit("yield_restore:")
    emit("    mov rbx, [r9+0]")
    emit("    add r9, 8")
    emit("    sub r10, 1")
    emit("    jne yield_restore")
    index = gate("fpu_switch", "g_fpu_switch", "fn_fpu_switch", "fpu")
    lines.extend(_privileged_call(decomposed, index, "g_fpu_switch", "fn_fpu_switch"))
    emit("    mov rax, 0")
    emit("    jmp syscall_exit")

    emit("    .align 64")
    emit("sys_gettime:")
    emit("    rdtsc")
    emit("    jmp syscall_exit")

    emit("    .align 64")
    emit("sys_select:")
    emit("    mov r9, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    mov r10, 64")
    emit("    mov rax, 0")
    emit("select_loop:")
    emit("    mov rbx, [r9+0]")
    emit("    add rax, rbx")
    emit("    add r9, 8")
    emit("    sub r10, 1")
    emit("    jne select_loop")
    emit("    jmp syscall_exit")

    # ioctl(service, arg): the Table-5 path.  Mirrors a VFS ioctl: fd
    # lookup, permission scan, argument staging, then dispatch into the
    # service module's domain.
    emit("    .align 64")
    emit("sys_ioctl:")
    emit("    mov r9, %d" % (DATA_BASE + OFF_FD_TABLE))
    emit("    mov r10, 16")
    emit("ioctl_fd_scan:")
    emit("    mov rbx, [r9+0]")
    emit("    add r9, 8")
    emit("    sub r10, 1")
    emit("    jne ioctl_fd_scan")
    emit("    mov r9, %d" % (DATA_BASE + OFF_STAT))
    emit("    mov r10, 8")
    emit("ioctl_arg_copy:")
    emit("    mov rbx, [r9+0]")
    emit("    mov [r9+64], rbx")
    emit("    add r9, 8")
    emit("    sub r10, 1")
    emit("    jne ioctl_arg_copy")
    services = [
        (SERVICE_CPUID, "svc_cpuid", "fn_svc_cpuid", "cpuid"),
        (SERVICE_MTRR, "svc_mtrr", "fn_svc_mtrr", "mtrr"),
        (SERVICE_PMC_IRQ, "svc_pmc_irq", "fn_svc_pmc_irq", "pmu"),
        (SERVICE_PMC_MISS, "svc_pmc_miss", "fn_svc_pmc_miss", "pmu"),
        (SERVICE_VOLTAGE, "svc_voltage", "fn_svc_voltage", "power"),
    ]
    for number, name, fn_label, _domain in services:
        emit("    cmp rdi, %d" % number)
        emit("    je ioctl_%s" % name)
    emit("    mov rax, -1")
    emit("    jmp syscall_exit")
    for number, name, fn_label, domain in services:
        emit("ioctl_%s:" % name)
        index = gate(name, "g_%s" % name, fn_label, domain)
        lines.extend(_privileged_call(decomposed, index, "g_%s" % name, fn_label))
        emit("    jmp syscall_exit")

    # vuln(target, module): a hijackable entry point per kernel module —
    # jumps to a caller-chosen address inside that module's ISA domain
    # (attacker model: control-flow hijack in an unrelated module).
    # rdi = target address, rsi = module selector.
    vuln_modules = ("debug", "power", "mtrr", "cpuid", "pmu", "vm", "fpu", "ldt")
    emit("    .align 64")
    emit("sys_vuln:")
    for module_index, module in enumerate(vuln_modules):
        emit("    cmp rsi, %d" % module_index)
        emit("    je vuln_%s" % module)
    emit("    mov rax, -1")
    emit("    jmp syscall_exit")
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
        emit("    mov rax, 0")
        emit("    jmp syscall_exit")

    # Runtime gate registration (§5.2): gate into domain-0, whose
    # software appends an SGT entry in trusted memory (rdi = gate
    # address, rsi = destination, rdx = destination domain).
    emit("    .align 64")
    emit("sys_register:")
    if decomposed:
        index = gate("register", "g_register", "fn_register_d0", "domain-0")
        lines.extend(_privileged_call(decomposed, index, "g_register", "fn_register_d0"))
    else:
        emit("    mov rax, -1")
    emit("    mov r8, %d" % DATA_BASE)
    emit("    mov [r8+%d], rax" % OFF_RT_GATE)
    emit("    jmp syscall_exit")

    # mmap2: identical to mmap's CR3 write but through the runtime gate.
    emit("    .align 64")
    emit("sys_mmap2:")
    if decomposed:
        emit("    mov r8, %d" % DATA_BASE)
        emit("    mov r10, [r8+%d]" % OFF_RT_GATE)
        emit("g_mmap2:")
        emit("    hccalls r10")
    else:
        emit("    call fn_write_cr3")
    emit("    mov rax, 0")
    emit("    jmp syscall_exit")

    # ------------------------------------------------------------------
    # Privileged helpers (own domains when decomposed).
    # ------------------------------------------------------------------
    if decomposed:
        emit("    .align 64")
        emit("fn_register_d0:")
        emit("    mov r8, %d" % META_NEXT_GATE)
        emit("    mov r9, [r8+0]")         # next free gate id
        emit("    mov r11, %d" % META_SGT_BASE)
        emit("    mov r11, [r11+0]")       # SGT base address
        emit("    mov rbx, r9")
        emit("    shl rbx, 5")             # 4 words = 32 bytes per entry
        emit("    add r11, rbx")
        emit("    mov [r11+0], rdi")       # gate address
        emit("    mov [r11+8], rsi")       # destination address
        emit("    mov [r11+16], rdx")      # destination domain
        emit("    mov rbx, 1")
        emit("    mov [r11+24], rbx")      # valid
        emit("    mov rax, r9")            # return the new gate id
        emit("    inc r9")
        emit("    mov [r8+0], r9")
        emit("    hcrets")

    emit("    .align 64")
    emit("fn_write_cr3:")
    emit("    mov cr3, rdi")
    emit("    mov rbx, %d" % DATA_BASE)
    emit("    invlpg [rbx+0]")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_fpu_switch:")
    emit("    mov rbx, cr0")
    emit("    or rbx, %d" % CR0_TS)
    emit("    mov cr0, rbx")
    emit("    clts")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_set_ldt:")
    emit("    mov rbx, 8")
    emit("    lldt rbx")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_svc_cpuid:")
    emit("    mov rax, 1")
    emit("    cpuid")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_svc_mtrr:")
    emit("    mov rcx, 0x200")
    emit("    rdmsr")
    emit("    and rax, 255")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_svc_pmc_irq:")
    emit("    mov rcx, 0")
    emit("    rdpmc")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_svc_pmc_miss:")
    emit("    mov rcx, 1")
    emit("    rdpmc")
    lines.extend(_privileged_return(decomposed))

    emit("    .align 64")
    emit("fn_svc_voltage:")
    emit("    mov rcx, 0x150")
    emit("    rdmsr")
    lines.extend(_privileged_return(decomposed))

    # Nested-Kernel monitor (Section 6.2): clears CR0.WP, validates and
    # writes the page-table entries, optionally logs, restores WP and
    # exits through the registered exit gate.
    if variant != "plain":
        emit("    .align 64")
        emit("monitor_entry:")
        emit("    mov rbx, cr0")
        emit("    and rbx, %d" % -(CR0_WP + 1))
        emit("    mov cr0, rbx")
        emit("    mov r9, %d" % (DATA_BASE + OFF_PT_AREA))
        emit("    mov r11, 4")
        emit("mon_pt_loop:")
        emit("    mov [r9+0], rdi")
        emit("    add r9, 8")
        emit("    sub r11, 1")
        emit("    jne mon_pt_loop")
        if variant == "nested_log":
            emit("    mov r8, %d" % DATA_BASE)
            emit("    mov r9, [r8+%d]" % OFF_MON_LOG_IDX)
            emit("    mov r11, r9")
            emit("    shl r11, 4")
            emit("    add r11, %d" % (DATA_BASE + OFF_MON_LOG))
            emit("    mov [r11+0], rdi")
            emit("    mov [r11+8], r9")
            emit("    add r9, 1")
            emit("    and r9, 255")
            emit("    mov [r8+%d], r9" % OFF_MON_LOG_IDX)
        emit("    mov rbx, cr0")
        emit("    or rbx, %d" % CR0_WP)
        emit("    mov cr0, rbx")
        if decomposed:
            index = gate("mon_exit", "g_mon_exit", "mmap_done", "kernel")
            emit("    mov r10, %d" % index)
            emit("g_mon_exit:")
            emit("    hccall r10")
        else:
            emit("    jmp mmap_done")

    # The hijackable module bodies: call the attacker-controlled target
    # (no indirect call in the encoder subset, so push-target-and-ret).
    for module in vuln_modules:
        emit("fn_vuln_%s:" % module)
        emit("    mov rbx, rdi")
        emit("    call vuln_dispatch")
        lines.extend(_privileged_return(decomposed))
    emit("vuln_dispatch:")
    emit("    push rbx")
    emit("    ret")

    # ------------------------------------------------------------------
    # Syscall exit.
    # ------------------------------------------------------------------
    emit("    .align 64")
    emit("syscall_exit:")
    emit("    mov r8, %d" % DATA_BASE)
    emit("    mov rcx, [r8+%d]" % OFF_SAVED_RCX)
    emit("    mov rsp, [r8+%d]" % OFF_SAVED_RSP)
    emit("    sysret")

    return "\n".join(lines) + "\n", tuple(gates)


@functools.lru_cache(maxsize=None)
def kernel_image(decomposed: bool, variant: str) -> Tuple[Program, Tuple[GateSite, ...]]:
    """The assembled kernel and its gate plan, built once per process.

    Every boot with the same ``(decomposed, variant)`` shares this frozen
    image: :class:`X86Kernel` copies its bytes into the machine's memory
    and only reads its symbols and gate plan.  ``kernel_source`` rejects
    unknown variants, so the cache holds at most six images.
    """
    source, gate_plan = kernel_source(decomposed, variant)
    return assemble(source, base=KERNEL_BASE), gate_plan


#: Instruction classes of the basic kernel domain.
BASIC_CLASSES = (
    "alu", "mov", "stack", "branch", "call", "nop", "string",
    "syscall", "sysret", "int", "iret", "rdtsc", "hlt", "pfch", "pflh",
    "mov_cr",
)
BASIC_READABLE = ("cr0", "cr2", "cr3", "cr4", "tsc", "domain", "pdomain")

#: Every module domain's baseline.
MODULE_CLASSES = ("alu", "mov", "stack", "branch", "call", "nop", "string", "hlt")

#: Per-module extra grants: name -> (extra classes, [(csr, read, write)],
#: [(csr, bitmask)]).
MODULE_GRANTS = {
    "vm": (("mov_cr", "invlpg"), [("cr3", True, True)], []),
    "fpu": (("mov_cr", "clts"), [("cr0", True, False)], [("cr0", CR0_TS | CR0_NE)]),
    "ldt": (("lldt",), [("ldtr", True, True)], []),
    "power": (("rdmsr", "wrmsr"), [("msr_voltage", True, True)], []),
    "mtrr": (("rdmsr",), [
        ("msr_mtrrcap", True, False),
        ("msr_mtrr_physbase0", True, False),
        ("msr_mtrr_physmask0", True, False),
        ("msr_mtrr_def_type", True, False),
    ], []),
    "cpuid": (("cpuid",), [], []),
    "pmu": (("rdpmc",), [("pmc0", True, False), ("pmc1", True, False)], []),
    "debug": (("mov_dr",), [
        ("dr0", True, True), ("dr1", True, True), ("dr2", True, True),
        ("dr3", True, True), ("dr6", True, True), ("dr7", True, True),
    ], []),
    # The Nested-Kernel monitor: "runs in an ISA domain with the
    # privilege of writing the MSRs and control registers" (§6.2).
    "monitor": (("mov_cr", "invlpg", "rdmsr", "wrmsr"), [
        ("cr0", True, False), ("cr3", True, True), ("msr_efer", True, True),
    ], [("cr0", CR0_WP)]),
}


class X86Kernel:
    """A booted x86 MiniKernel (native or decomposed)."""

    def __init__(
        self,
        mode: str = "decomposed",
        config: PcuConfig = CONFIG_8E,
        *,
        variant: str = "plain",
    ):
        if mode not in ("native", "decomposed"):
            raise ValueError("mode must be 'native' or 'decomposed'")
        self.mode = mode
        self.variant = variant
        self.decomposed = mode == "decomposed"
        self.system = build_x86_system(config, with_isagrid=self.decomposed)
        self.program, self.gate_plan = kernel_image(self.decomposed, variant)
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
        manager.grant_register_bits(kernel.domain_id, "cr4", CR4_SMAP)
        self.domains["kernel"] = kernel.domain_id

        for name, (classes, csrs, masks) in MODULE_GRANTS.items():
            domain = manager.create_domain(name)
            manager.allow_instructions(domain.domain_id, MODULE_CLASSES)
            manager.allow_instructions(domain.domain_id, classes)
            for csr, read, write in csrs:
                manager.grant_register(domain.domain_id, csr, read=read, write=write)
            for csr, mask in masks:
                manager.grant_register_bits(domain.domain_id, csr, mask)
            self.domains[name] = domain.domain_id

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
    def last_fault_vector(self) -> int:
        return self.memory.load(DATA_BASE + OFF_LAST_CAUSE, 8)

    @property
    def syscall_count(self) -> int:
        return self.memory.load(DATA_BASE + OFF_SYSCALL_COUNT, 8)

    def set_abort_continuation(self, address: int) -> None:
        """Where faulted contexts resume (attack programs set this)."""
        self.memory.store(DATA_BASE + OFF_ABORT_RIP, address, 8)

    def load_user(self, user: Program) -> None:
        if user.base != USER_BASE:
            raise ValueError("user programs must be assembled at USER_BASE")
        self.system.load(user)

    def run(self, user: Optional[Program] = None, max_steps: int = 5_000_000) -> MachineStats:
        if user is not None:
            self.load_user(user)
        return self.system.run(self.program.symbol("boot"), max_steps)

    def symbol(self, name: str) -> int:
        return self.program.symbol(name)
