"""The MiniKernel system-call ABI (shared by both architectures).

The syscall set mirrors the low-level operations LMbench measures
(Section 7: null call, read, write, stat, open/close, signal install,
mmap, context switch) plus an ``ioctl`` used by the Table-5 service
modules and a deliberately vulnerable entry point used by the attack
evaluation (it simulates a control-flow hijack inside a kernel module,
the attacker model of Section 6.1).

Calling convention:

* RISC-V: number in ``a7``, args in ``a0``-``a2``, result in ``a0``.
* x86: number in ``rax``, args in ``rdi``/``rsi``/``rdx``, result ``rax``.
"""

from __future__ import annotations

SYS_EXIT = 0          # halt the simulated machine; a0 = exit code
SYS_GETPID = 1        # the LMbench "null call"
SYS_READ = 2          # copy from the kernel buffer to user memory
SYS_WRITE = 3         # copy from user memory to the kernel buffer
SYS_STAT = 4          # fill a stat record
SYS_FSTAT = 5
SYS_OPEN = 6          # hash the path, allocate an fd slot
SYS_CLOSE = 7
SYS_SIGACTION = 8     # install a handler; touches interrupt-enable state
SYS_MMAP = 9          # address-space change; writes SATP / CR3
SYS_GETPPID = 10
SYS_DUP = 11
SYS_IOCTL = 12        # dispatch to a service module (Table 5)
SYS_YIELD = 13        # context-switch work; touches FPU/context state
SYS_GETTIME = 14      # read the cycle counter
SYS_SELECT = 15       # scan the fd table
SYS_VULN = 16         # simulated hijackable module entry (attack eval)
SYS_REGISTER = 17     # runtime gate registration through domain-0 (§5.2)
SYS_MMAP2 = 18        # mmap through a gate that only exists after SYS_REGISTER
