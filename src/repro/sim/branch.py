"""Tournament branch predictor (timing only).

The paper's Gem5 configuration uses a tournament predictor (Table 3).
This is a compact functional model: a local 2-bit-counter table indexed
by PC, a global 2-bit-counter table indexed by history, and a chooser
that learns which of the two to trust per branch.  Only the predicted
taken/not-taken bit feeds back into the pipeline model (mispredict =>
flush penalty); targets are assumed BTB-resident.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BranchStats:
    predictions: int = 0
    mispredictions: int = 0

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


def _update_counter(counter: int, taken: bool) -> int:
    """Saturating 2-bit counter update."""
    if taken:
        return min(3, counter + 1)
    return max(0, counter - 1)


class TournamentPredictor:
    """Local + global predictor with a per-branch chooser."""

    def __init__(self, local_bits: int = 10, global_bits: int = 10):
        self.local_size = 1 << local_bits
        self.global_size = 1 << global_bits
        self._local = [1] * self.local_size     # weakly not-taken
        self._global = [1] * self.global_size
        self._chooser = [2] * self.local_size   # weakly prefer global
        self._history = 0
        # Sizes are powers of two, so ``% size`` == ``& mask`` for the
        # non-negative indices used here; update() runs once per branch.
        self._local_mask = self.local_size - 1
        self._global_mask = self.global_size - 1

    def _indices(self, pc: int) -> "tuple[int, int]":
        # XOR-fold the upper PC bits into the index (as real predictors
        # do) so code regions a power-of-two apart don't alias head-on.
        folded = (pc >> 2) ^ (pc >> 13) ^ (pc >> 21)
        local_index = folded % self.local_size
        global_index = (self._history ^ folded) % self.global_size
        return local_index, global_index

    def predict(self, pc: int) -> bool:
        local_index, global_index = self._indices(pc)
        if self._chooser[local_index] >= 2:
            return self._global[global_index] >= 2
        return self._local[local_index] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Record the outcome; returns True if the prediction was wrong.

        This runs once per simulated branch, so ``_indices`` and
        ``_update_counter`` are inlined with mask arithmetic; the
        resulting counters and history are bit-identical to the
        readable versions above.
        """
        folded = (pc >> 2) ^ (pc >> 13) ^ (pc >> 21)
        local_index = folded & self._local_mask
        global_index = (self._history ^ folded) & self._global_mask
        local = self._local
        global_ = self._global
        chooser = self._chooser
        local_counter = local[local_index]
        global_counter = global_[global_index]
        local_prediction = local_counter >= 2
        global_prediction = global_counter >= 2
        if chooser[local_index] >= 2:
            prediction = global_prediction
        else:
            prediction = local_prediction

        # Chooser learns toward whichever component was right.
        if local_prediction != global_prediction:
            choice = chooser[local_index]
            if global_prediction == taken:
                if choice < 3:
                    chooser[local_index] = choice + 1
            elif choice > 0:
                chooser[local_index] = choice - 1

        if taken:
            if local_counter < 3:
                local[local_index] = local_counter + 1
            if global_counter < 3:
                global_[global_index] = global_counter + 1
            self._history = ((self._history << 1) | 1) & self._global_mask
        else:
            if local_counter:
                local[local_index] = local_counter - 1
            if global_counter:
                global_[global_index] = global_counter - 1
            self._history = (self._history << 1) & self._global_mask
        return prediction != taken

    # ------------------------------------------------------------------
    # The update, as source for a compiled block (DESIGN §3.18
    # "Generated blocks").  The lines reach this predictor, which the
    # CPU holds as ``cpu._predictor``, and its three tables through
    # locals the block's prologue reads once per call
    # (``BLOCK_PROLOGUE``), and use the scratch names ``h``, ``g``,
    # ``x``, ``y``, ``z`` and ``u``.  The history is an integer, so it
    # is read and written on the predictor at each update.  A loop
    # block also tests the fixed point of its back edge
    # (:meth:`steady_source`, DESIGN §3.18 "Loop blocks").
    # ------------------------------------------------------------------
    #: What a block's prologue reads for the lines below, as
    #: ``(local, expression)``.  Nothing replaces the tables.
    BLOCK_PROLOGUE = (("predictor", "cpu._predictor"),
                      ("p_local", "cpu._predictor._local"),
                      ("p_global", "cpu._predictor._global"),
                      ("p_chooser", "cpu._predictor._chooser"))

    def render_key(self) -> "tuple[int, int]":
        """The constants :meth:`update_source` renders besides the pc."""
        return self._local_mask, self._global_mask

    def update_source(self, pc: int, taken: str) -> "tuple[list, str]":
        """Statements that do what :meth:`update` does for the constant
        ``pc`` and the outcome expression ``taken``, and an expression
        that reads true after them when the prediction was wrong.

        The fold and the local index are constants; so is the fold's
        part of the global index, because the history never exceeds the
        global mask.
        """
        folded = (pc >> 2) ^ (pc >> 13) ^ (pc >> 21)
        local_index = folded & self._local_mask
        mask = self._global_mask
        return [
            "h = predictor._history",
            "g = h ^ %d" % (folded & mask),
            "x = p_local[%d]" % local_index,
            "y = p_global[g]",
            "z = p_chooser[%d]" % local_index,
            "u = y >= 2 if z >= 2 else x >= 2",
            # The chooser learns toward whichever component was right.
            "if (x >= 2) != (y >= 2):",
            "    if (y >= 2) == %s:" % taken,
            "        if z < 3:",
            "            p_chooser[%d] = z + 1" % local_index,
            "    elif z > 0:",
            "        p_chooser[%d] = z - 1" % local_index,
            "if %s:" % taken,
            "    if x < 3:",
            "        p_local[%d] = x + 1" % local_index,
            "    if y < 3:",
            "        p_global[g] = y + 1",
            "    predictor._history = (h << 1 | 1) & %d" % mask,
            "else:",
            "    if x:",
            "        p_local[%d] = x - 1" % local_index,
            "    if y:",
            "        p_global[g] = y - 1",
            "    predictor._history = (h << 1) & %d" % mask,
        ], "u != %s" % taken

    def steady_source(self, pc: int, continues: bool) -> str:
        """An expression that reads true when this predictor is at the
        fixed point of the constant ``pc`` for the outcome ``continues``:
        then :meth:`update` with that outcome predicts it, writes no
        table and leaves the history as it was, so only the caller's
        prediction count moves.

        Taken, the history is all ones, so the global index is the
        mask's complement of the fold's part, and the local and global
        counters are saturated taken.  Not taken is the mirror image: a
        history of zeros and both counters at zero.  Either way the two
        components agree, so the chooser is not touched either.
        """
        folded = (pc >> 2) ^ (pc >> 13) ^ (pc >> 21)
        local_index = folded & self._local_mask
        mask = self._global_mask
        if continues:
            return ("predictor._history == %d and p_local[%d] == 3"
                    " and p_global[%d] == 3"
                    % (mask, local_index, mask ^ (folded & mask)))
        return ("predictor._history == 0 and p_local[%d] == 0"
                " and p_global[%d] == 0" % (local_index, folded & mask))
