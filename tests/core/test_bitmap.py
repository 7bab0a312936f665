"""Unit and property tests for the HPT bitmap structures."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bitmap import (
    WORD_MASK,
    BitMaskArray,
    InstructionBitmap,
    RegisterBitmap,
    words_for_bits,
)


def assert_independent(original, clone, mutate):
    """Mutating either of a copy and its original leaves the other as
    it was (a transaction snapshot must not share the live words)."""
    for changed, other in ((clone, original), (original, clone)):
        changed_before, other_before = changed.to_words(), other.to_words()
        mutate(changed)
        assert changed.to_words() != changed_before
        assert other.to_words() == other_before


class TestWordsForBits:
    def test_exact_word(self):
        assert words_for_bits(64) == 1

    def test_one_over(self):
        assert words_for_bits(65) == 2

    def test_small(self):
        assert words_for_bits(1) == 1

    @given(st.integers(min_value=1, max_value=10_000))
    def test_covers_all_bits(self, nbits):
        words = words_for_bits(nbits)
        assert words * 64 >= nbits
        assert (words - 1) * 64 < nbits


class TestInstructionBitmap:
    def test_starts_all_denied(self):
        bitmap = InstructionBitmap(20)
        assert not any(bitmap.allowed(i) for i in range(20))

    def test_fill_starts_all_allowed(self):
        bitmap = InstructionBitmap(20, fill=True)
        assert all(bitmap.allowed(i) for i in range(20))

    def test_fill_clears_tail_bits(self):
        bitmap = InstructionBitmap(10, fill=True)
        assert bitmap.word(0) == (1 << 10) - 1

    def test_allow_and_deny(self):
        bitmap = InstructionBitmap(128)
        bitmap.allow(100)
        assert bitmap.allowed(100)
        bitmap.deny(100)
        assert not bitmap.allowed(100)

    def test_allow_many(self):
        bitmap = InstructionBitmap(64)
        bitmap.allow_many([1, 5, 63])
        assert bitmap.allowed(1) and bitmap.allowed(5) and bitmap.allowed(63)
        assert not bitmap.allowed(0)

    def test_out_of_range_raises(self):
        bitmap = InstructionBitmap(10)
        with pytest.raises(IndexError):
            bitmap.allow(10)
        with pytest.raises(IndexError):
            bitmap.allowed(-1)

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError):
            InstructionBitmap(0)

    def test_word_serialization_single_bit(self):
        bitmap = InstructionBitmap(128)
        bitmap.allow(70)
        assert bitmap.word(0) == 0
        assert bitmap.word(1) == 1 << 6

    def test_set_word_roundtrip(self):
        bitmap = InstructionBitmap(128)
        bitmap.set_word(1, 0xDEADBEEF)
        assert bitmap.word(1) == 0xDEADBEEF

    def test_set_word_masks_tail(self):
        bitmap = InstructionBitmap(66)
        bitmap.set_word(1, 0xFF)
        assert bitmap.word(1) == 0b11  # only 2 tail bits exist

    def test_copy_keeps_size_words_and_cleared_tail(self):
        bitmap = InstructionBitmap(70, fill=True)
        bitmap.deny(3)
        clone = bitmap.copy()
        assert clone.n_classes == 70
        assert clone.to_words() == bitmap.to_words()
        assert clone.word(1) == (1 << 6) - 1  # 70 classes: 6 tail bits
        clone.set_word(1, WORD_MASK)
        assert clone.word(1) == (1 << 6) - 1

    def test_copy_is_independent(self):
        bitmap = InstructionBitmap(70, fill=True)
        assert_independent(bitmap, bitmap.copy(), lambda b: b.deny(0))

    @given(st.sets(st.integers(min_value=0, max_value=199), max_size=50))
    def test_allowed_matches_grant_set(self, grants):
        bitmap = InstructionBitmap(200)
        bitmap.allow_many(grants)
        for i in range(200):
            assert bitmap.allowed(i) == (i in grants)


class TestRegisterBitmap:
    def test_starts_denied(self):
        bitmap = RegisterBitmap(10)
        assert not bitmap.can_read(3)
        assert not bitmap.can_write(3)

    def test_read_and_write_independent(self):
        bitmap = RegisterBitmap(10)
        bitmap.grant_read(3)
        assert bitmap.can_read(3) and not bitmap.can_write(3)
        bitmap.grant_write(4)
        assert bitmap.can_write(4) and not bitmap.can_read(4)

    def test_grant_both(self):
        bitmap = RegisterBitmap(10)
        bitmap.grant(2, read=True, write=True)
        assert bitmap.can_read(2) and bitmap.can_write(2)

    def test_revoke(self):
        bitmap = RegisterBitmap(10)
        bitmap.grant(2, read=True, write=True)
        bitmap.revoke_write(2)
        assert bitmap.can_read(2) and not bitmap.can_write(2)
        bitmap.revoke_read(2)
        assert not bitmap.can_read(2)

    def test_interleaved_layout(self):
        """CSR i occupies bits 2i (read) and 2i+1 (write)."""
        bitmap = RegisterBitmap(40)
        bitmap.grant_read(0)
        bitmap.grant_write(1)
        assert bitmap.word(0) == 0b1001

    def test_second_word(self):
        bitmap = RegisterBitmap(40)
        bitmap.grant_write(33)
        assert bitmap.word(1) == 1 << ((2 * 33 + 1) - 64)

    def test_fill(self):
        bitmap = RegisterBitmap(33, fill=True)
        assert bitmap.can_read(32) and bitmap.can_write(32)
        # tail cleared beyond 2*33 bits
        assert bitmap.word(1) >> (2 * 33 - 64) == 0

    def test_copy_keeps_size_words_and_cleared_tail(self):
        bitmap = RegisterBitmap(33, fill=True)
        bitmap.revoke_read(7)
        clone = bitmap.copy()
        assert clone.n_csrs == 33
        assert clone.to_words() == bitmap.to_words()
        assert clone.word(1) == 0b11  # 33 CSRs: 2 tail bits
        clone.set_word(1, WORD_MASK)
        assert clone.word(1) == 0b11

    def test_copy_is_independent(self):
        bitmap = RegisterBitmap(33, fill=True)
        assert_independent(bitmap, bitmap.copy(),
                           lambda b: b.revoke_write(32))

    def test_out_of_range(self):
        bitmap = RegisterBitmap(4)
        with pytest.raises(IndexError):
            bitmap.can_read(4)

    @given(
        st.sets(st.integers(min_value=0, max_value=99), max_size=30),
        st.sets(st.integers(min_value=0, max_value=99), max_size=30),
    )
    def test_reads_writes_never_interfere(self, reads, writes):
        bitmap = RegisterBitmap(100)
        for csr in reads:
            bitmap.grant_read(csr)
        for csr in writes:
            bitmap.grant_write(csr)
        for csr in range(100):
            assert bitmap.can_read(csr) == (csr in reads)
            assert bitmap.can_write(csr) == (csr in writes)


class TestBitMaskArray:
    def test_default_masks_deny_all(self):
        masks = BitMaskArray(4)
        assert masks.get_mask(0) == 0
        assert not masks.write_permitted(0, old=0, new=1)

    def test_fill_allows_all(self):
        masks = BitMaskArray(2, fill=True)
        assert masks.write_permitted(0, old=0, new=0xFFFFFFFFFFFFFFFF)

    def test_write_equation(self):
        """(old ^ new) & ~mask == 0 (the paper's Section 4.1 equation)."""
        masks = BitMaskArray(1)
        masks.set_mask(0, 0b1010)
        assert masks.write_permitted(0, old=0b0000, new=0b1010)
        assert masks.write_permitted(0, old=0b1010, new=0b0000)
        assert not masks.write_permitted(0, old=0b0000, new=0b0100)
        # unchanged protected bits are fine even when set
        assert masks.write_permitted(0, old=0b0100, new=0b1110)

    def test_identity_write_always_permitted(self):
        masks = BitMaskArray(1)
        assert masks.write_permitted(0, old=0x1234, new=0x1234)

    def test_allow_and_deny_bits(self):
        masks = BitMaskArray(1)
        masks.allow_bits(0, 0b11)
        assert masks.get_mask(0) == 0b11
        masks.deny_bits(0, 0b01)
        assert masks.get_mask(0) == 0b10

    def test_width_truncation(self):
        masks = BitMaskArray(1, width=8)
        masks.set_mask(0, 0xFFFF)
        assert masks.get_mask(0) == 0xFF

    def test_bad_width(self):
        with pytest.raises(ValueError):
            BitMaskArray(1, width=65)

    def test_copy_keeps_size_width_and_words(self):
        masks = BitMaskArray(3, width=12, fill=True)
        masks.deny_bits(1, 0b101)
        clone = masks.copy()
        assert (clone.n_masks, clone.width) == (3, 12)
        assert clone.to_words() == masks.to_words() == [0xFFF, 0xFFA, 0xFFF]
        clone.set_mask(0, WORD_MASK)
        assert clone.get_mask(0) == 0xFFF

    def test_copy_is_independent(self):
        masks = BitMaskArray(3, width=12, fill=True)
        assert_independent(masks, masks.copy(),
                           lambda m: m.deny_bits(2, 1))

    def test_slot_out_of_range(self):
        masks = BitMaskArray(2)
        with pytest.raises(IndexError):
            masks.get_mask(2)

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    def test_equation_matches_definition(self, mask, old, new):
        masks = BitMaskArray(1)
        masks.set_mask(0, mask)
        expected = ((old ^ new) & ~mask & (1 << 64) - 1) == 0
        assert masks.write_permitted(0, old, new) == expected

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_masked_writes_always_permitted(self, mask, flips):
        """Flipping only mask-exposed bits is always legal."""
        masks = BitMaskArray(1)
        masks.set_mask(0, mask)
        old = 0x5555555555555555
        new = old ^ (flips & mask)
        assert masks.write_permitted(0, old, new)
