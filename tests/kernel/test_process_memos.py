"""Per-process memos: kernel images and instruction decodes.

Every boot of a kernel with the same key shares one frozen image, and
equal instruction bytes (or words) decode to one shared frozen
``Instruction``.  Errors are never memoized, so the #UD path is the same
on every call.
"""

import dataclasses

import pytest

from repro.core import CONFIG_8E
from repro.kernel import RiscvKernel, X86Kernel, riscv_kernel, x86_kernel
from repro.riscv import encoding as riscv_encoding
from repro.x86 import encoding as x86_encoding
from repro.x86.encoding import Encoder


@pytest.mark.parametrize("mode", ["native", "decomposed"])
@pytest.mark.parametrize("variant", ["plain", "nested", "nested_log"])
def test_x86_boots_share_one_image(mode, variant):
    first = X86Kernel(mode, CONFIG_8E, variant=variant)
    second = X86Kernel(mode, CONFIG_8E, variant=variant)
    assert first.program is second.program
    assert first.gate_plan is second.gate_plan
    assert (first.program, first.gate_plan) == x86_kernel.kernel_image(
        mode == "decomposed", variant)


@pytest.mark.parametrize("mode", ["native", "decomposed"])
@pytest.mark.parametrize("pti", [False, True])
def test_riscv_boots_share_one_image(mode, pti):
    first = RiscvKernel(mode, CONFIG_8E, pti=pti)
    second = RiscvKernel(mode, CONFIG_8E, pti=pti)
    assert first.program is second.program
    assert first.gate_plan is second.gate_plan
    assert (first.program, first.gate_plan) == riscv_kernel.kernel_image(
        mode == "decomposed", pti)


@pytest.mark.parametrize("kernel_class", [X86Kernel, RiscvKernel])
def test_the_shared_image_is_frozen(kernel_class):
    kernel = kernel_class("decomposed", CONFIG_8E)
    assert isinstance(kernel.gate_plan, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        kernel.program.data = b""
    with pytest.raises(dataclasses.FrozenInstanceError):
        kernel.gate_plan[0].domain = "kernel"
    with pytest.raises(TypeError):
        kernel.program.symbols["boot"] = 0
    # A boot's stores land in its machine's memory, never in the image.
    boot = kernel.symbol("boot")
    offset = boot - kernel.program.base
    kernel.memory.store(boot, 0, 4)
    fresh = kernel_class("decomposed", CONFIG_8E)
    assert fresh.program is kernel.program
    assert fresh.memory.load_bytes(boot, 4) == \
        kernel.program.data[offset:offset + 4] != bytes(4)


def test_cache_clear_rebuilds_an_equal_image():
    warm = x86_kernel.kernel_image(True, "plain")
    x86_kernel.kernel_image.cache_clear()
    cold = x86_kernel.kernel_image(True, "plain")
    assert cold is not warm
    assert cold == warm


@pytest.mark.parametrize("kernel_class", [X86Kernel, RiscvKernel])
def test_boots_share_their_decodes(kernel_class):
    first, second = (kernel_class("decomposed", CONFIG_8E) for _ in range(2))
    boot = first.symbol("boot")
    assert first.cpu._decode_entry(boot)[0] is second.cpu._decode_entry(boot)[0]


def test_equal_bytes_decode_to_one_instruction():
    code = Encoder.mov_imm64(3, 0x1234)
    copy = bytes(bytearray(code))
    assert copy is not code
    assert x86_encoding.decode(copy) is x86_encoding.decode(code)


def test_equal_words_decode_to_one_instruction():
    word = riscv_encoding.encode("addi", rd=1, rs1=2, imm=3)
    assert riscv_encoding.decode(word) is riscv_encoding.decode(word)


@pytest.mark.parametrize("decode, undecodable", [
    (x86_encoding.decode, b"\xD6"),
    (riscv_encoding.decode, 0xFFFFFFFF),
], ids=["x86", "riscv"])
def test_an_undecodable_input_raises_on_every_call(decode, undecodable):
    hits = decode.cache_info().hits
    for _ in range(3):
        with pytest.raises((x86_encoding.EncodingError,
                            riscv_encoding.EncodingError)):
            decode(undecodable)
    assert decode.cache_info().hits == hits
