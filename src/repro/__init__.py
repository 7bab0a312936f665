"""ISA-Grid reproduction: fine-grained privilege control for ISA resources.

A Python reproduction of *ISA-Grid: Architecture of Fine-grained
Privilege Control for Instructions and Registers* (ISCA 2023).

Subpackages
-----------
``repro.core``
    The architecture-neutral Privilege Check Unit, Hybrid Privilege
    Table, Switching Gate Table, trusted memory and domain-0 runtime.
``repro.sim``
    Simulation substrate: physical memory, cache hierarchy, pipeline
    timing models, the Machine that couples a CPU with a PCU.
``repro.riscv`` / ``repro.x86``
    Functional CPU models with ISA-Grid integrated (the paper's Rocket
    and Gem5 prototypes, respectively).
``repro.kernel``
    MiniKernel and the four use cases (Linux decomposition, Nested
    Kernel, PKS trampoline, multi-service protection).
``repro.attacks``
    The ISA-abuse-based attacks of Table 1 plus gate-forgery attacks.
``repro.baselines``
    Privilege-level-only, trap-and-emulate and binary-scanning baselines.
``repro.workloads``
    Synthetic LMbench/SQLite/Mbedtls/compression workload generators.
``repro.hwcost``
    Analytic FPGA resource model (Table 6).
``repro.analysis``
    Table rendering and experiment report helpers.
"""

__version__ = "1.0.0"

import importlib

_SUBPACKAGES = (
    "analysis",
    "attacks",
    "baselines",
    "core",
    "hwcost",
    "kernel",
    "riscv",
    "sim",
    "workloads",
    "x86",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    """Import a subpackage on first use (PEP 562), so ``import repro``
    alone loads none of them."""
    if name in _SUBPACKAGES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
