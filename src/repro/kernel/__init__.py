"""MiniKernel and the paper's use cases.

* :class:`RiscvKernel` / :class:`X86Kernel` — bootable kernels in
  ``native`` (baseline) and ``decomposed`` (use case 1) modes; the x86
  kernel additionally supports the Nested-Kernel monitor variants
  (use case 2) and hosts the Table-5 service modules (use case 4).
* :mod:`repro.kernel.pks` — the PKS/wrpkrs trampoline (use case 3).
"""

from .pks import (
    Case3Estimate,
    PksDemoResult,
    estimate_case3,
    measure_two_hccall,
    run_pks_demo,
)
from .sandbox import SANDBOX_CLASSES, SandboxResult, run_sandbox
from .riscv_kernel import RiscvKernel
from .riscv_kernel import kernel_source as riscv_kernel_source
from .syscalls import (
    SYS_MMAP2,
    SYS_REGISTER,
    SYS_CLOSE,
    SYS_DUP,
    SYS_EXIT,
    SYS_FSTAT,
    SYS_GETPID,
    SYS_GETPPID,
    SYS_GETTIME,
    SYS_IOCTL,
    SYS_MMAP,
    SYS_OPEN,
    SYS_READ,
    SYS_SELECT,
    SYS_SIGACTION,
    SYS_STAT,
    SYS_VULN,
    SYS_WRITE,
    SYS_YIELD,
)
from .x86_kernel import (
    SERVICE_CPUID,
    SERVICE_MTRR,
    SERVICE_PMC_IRQ,
    SERVICE_PMC_MISS,
    SERVICE_VOLTAGE,
    X86Kernel,
)
from .x86_kernel import kernel_source as x86_kernel_source

__all__ = [
    "Case3Estimate",
    "SANDBOX_CLASSES",
    "SandboxResult",
    "SYS_MMAP2",
    "SYS_REGISTER",
    "run_sandbox",
    "PksDemoResult",
    "RiscvKernel",
    "SERVICE_CPUID",
    "SERVICE_MTRR",
    "SERVICE_PMC_IRQ",
    "SERVICE_PMC_MISS",
    "SERVICE_VOLTAGE",
    "SYS_CLOSE",
    "SYS_DUP",
    "SYS_EXIT",
    "SYS_FSTAT",
    "SYS_GETPID",
    "SYS_GETPPID",
    "SYS_GETTIME",
    "SYS_IOCTL",
    "SYS_MMAP",
    "SYS_OPEN",
    "SYS_READ",
    "SYS_SELECT",
    "SYS_SIGACTION",
    "SYS_STAT",
    "SYS_VULN",
    "SYS_WRITE",
    "SYS_YIELD",
    "X86Kernel",
    "estimate_case3",
    "measure_two_hccall",
    "riscv_kernel_source",
    "run_pks_demo",
    "x86_kernel_source",
]
