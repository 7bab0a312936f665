"""Tournament branch predictor, and the update and the fixed-point test
it renders for blocks."""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import TournamentPredictor

from ..profiles import NIGHTLY_SCALE, PROFILE
from .test_block_executor import seeded_mutant

#: Hypothesis budgets scale by this under the nightly profile.
NIGHTLY_FACTOR = NIGHTLY_SCALE if PROFILE == "nightly" else 1


class TestPredictor:
    def test_learns_always_taken(self):
        predictor = TournamentPredictor()
        pc = 0x1000
        for _ in range(8):
            predictor.update(pc, taken=True)
        assert predictor.predict(pc) is True

    def test_learns_never_taken(self):
        predictor = TournamentPredictor()
        pc = 0x1000
        for _ in range(8):
            predictor.update(pc, taken=False)
        assert predictor.predict(pc) is False

    def test_update_reports_mispredictions(self):
        predictor = TournamentPredictor()
        pc = 0x1000
        for _ in range(8):
            predictor.update(pc, taken=True)
        assert predictor.update(pc, taken=True) is False  # correct
        assert predictor.update(pc, taken=False) is True  # mispredicted

    def test_loop_branch_accuracy(self):
        """A taken-99-times loop branch should mispredict rarely."""
        predictor = TournamentPredictor()
        pc = 0x2000
        mispredictions = 0
        for _ in range(10):            # 10 runs of a 100-iteration loop
            for i in range(100):
                taken = i != 99
                mispredictions += predictor.update(pc, taken)
        assert mispredictions < 10 * 8  # far better than always-wrong

    def test_alternating_pattern_learned_by_global_history(self):
        predictor = TournamentPredictor()
        pc = 0x3000
        # Warm up on a strict alternation.
        for i in range(200):
            predictor.update(pc, taken=i % 2 == 0)
        late_mispredictions = sum(
            predictor.update(pc, taken=i % 2 == 0) for i in range(200, 260)
        )
        assert late_mispredictions <= 10

    def test_distinct_branches_tracked_separately(self):
        """Two interleaved opposite-biased branches both become
        predictable (via local tables and/or history correlation)."""
        predictor = TournamentPredictor()
        for _ in range(50):
            predictor.update(0x1000, taken=True)
            predictor.update(0x2000, taken=False)
        mispredictions = 0
        for _ in range(50):
            mispredictions += predictor.update(0x1000, taken=True)
            mispredictions += predictor.update(0x2000, taken=False)
        assert mispredictions <= 5


# ----------------------------------------------------------------------
# The update a compiled block runs (DESIGN §3.18 "Generated blocks") is
# rendered by the predictor from its constants; it must be the method.
# ----------------------------------------------------------------------
def rendered_update(predictor, pc, source=TournamentPredictor.update_source):
    """``predictor.update_source`` (or a mutant ``source`` of it) for
    ``pc``, compiled on its own as ``update(cpu, taken) ->
    mispredicted`` behind the prologue lines it reads."""
    lines, mispredicted = source(predictor, pc, "taken")
    lines = ["%s = %s" % pair for pair in predictor.BLOCK_PROLOGUE] + lines
    text = "def update(cpu, taken):\n%s    return %s\n" % (
        "".join("    %s\n" % line for line in lines), mispredicted)
    scope = {}
    exec(compile(text, "<update 0x%x>" % pc, "exec"), {}, scope)
    return scope["update"]


def predictor_state(predictor):
    return (predictor._local, predictor._global, predictor._chooser,
            predictor._history)


def drive_both(bits, outcomes, source=TournamentPredictor.update_source):
    """Feed ``outcomes`` to ``update`` on one predictor and to the
    rendered update (from ``source``) on another; return each one's
    mispredictions and final state."""
    method, rendered = (TournamentPredictor(*bits) for _ in range(2))
    cpu = SimpleNamespace(_predictor=rendered)
    updates = {}
    results = [[], []]
    for pc, taken in outcomes:
        if pc not in updates:
            updates[pc] = rendered_update(rendered, pc, source)
        results[0].append(method.update(pc, taken))
        results[1].append(updates[pc](cpu, taken))
    return ((results[0], predictor_state(method)),
            (results[1], predictor_state(rendered)))


#: A few pcs that share local and global entries, and any other.
PCS = st.one_of(
    st.sampled_from([0x1000, 0x1004, 0x2000, 0x3000, 0x100694, 0x102000,
                     0x201000, 0x400000]),
    st.integers(min_value=0, max_value=(1 << 48) - 1))
OUTCOMES = st.lists(st.tuples(PCS, st.booleans()), max_size=400)
BITS = st.sampled_from([(10, 10), (12, 12), (14, 14), (10, 14), (14, 4)])


class TestRenderedUpdate:
    @settings(max_examples=40 * NIGHTLY_FACTOR, deadline=None)
    @given(bits=BITS, outcomes=OUTCOMES)
    def test_matches_the_method(self, bits, outcomes):
        method, rendered = drive_both(bits, outcomes)
        assert rendered == method

    def test_render_key_holds_the_masks(self):
        assert TournamentPredictor(12, 14).render_key() == (4095, 16383)

    def test_seeded_history_bug_is_caught(self):
        # A rendered update that skips the history shift on a taken
        # branch: the history, and with it the global index, drifts.
        mutant = seeded_mutant(
            TournamentPredictor.update_source,
            '"    predictor._history = (h << 1 | 1) & %d" % mask,',
            '"    predictor._history = (h | 1) & %d" % mask,')
        outcomes = [(0x1000 + 4 * (i % 5), i % 3 != 0) for i in range(200)]
        method, rendered = drive_both((10, 10), outcomes)
        assert rendered == method
        method, rendered = drive_both((10, 10), outcomes, mutant)
        assert rendered != method


# ----------------------------------------------------------------------
# The fixed point a loop block's steady body relies on (DESIGN §3.18
# "Loop blocks"): where the rendered test holds, the update with the
# loop's continuing outcome changes nothing but the prediction count.
# ----------------------------------------------------------------------
def steady_holds(predictor, pc, continues,
                 source=TournamentPredictor.steady_source):
    """Whether ``source``'s rendered test for ``pc`` holds now."""
    return eval(source(predictor, pc, continues), {}, {
        "predictor": predictor, "p_local": predictor._local,
        "p_global": predictor._global})


def drive_back_edge(predictor, pc, continues, repeats,
                    source=TournamentPredictor.steady_source):
    """Take the back edge at ``pc`` ``repeats`` times; each time the
    rendered test holds, the update must predict the outcome and leave
    the tables and history as they were.  How often it held."""
    held = 0
    for _ in range(repeats):
        if steady_holds(predictor, pc, continues, source):
            before = copy.deepcopy(predictor_state(predictor))
            assert predictor.update(pc, continues) is False
            assert predictor_state(predictor) == before
            held += 1
        else:
            predictor.update(pc, continues)
    return held


class TestSteadyTest:
    @settings(max_examples=40 * NIGHTLY_FACTOR, deadline=None)
    @given(bits=BITS, outcomes=OUTCOMES, pc=PCS, continues=st.booleans())
    def test_holds_only_at_the_fixed_point(self, bits, outcomes, pc,
                                           continues):
        # After any history, a back edge taken the same way more often
        # than the history is wide (plus three, to saturate a counter)
        # reaches the fixed point, where the test must hold.
        predictor = TournamentPredictor(*bits)
        for other, taken in outcomes:
            predictor.update(other, taken)
        assert drive_back_edge(predictor, pc, continues, max(bits) + 8)

    def test_seeded_test_without_history_is_caught(self):
        # Saturated counters alone are not the fixed point: after a
        # not-taken branch elsewhere, the history still moves.
        mutant = seeded_mutant(
            TournamentPredictor.steady_source,
            '"predictor._history == %d and p_local[%d] == 3"',
            '"%d and p_local[%d] == 3"')
        predictor = TournamentPredictor(10, 10)
        drive_back_edge(predictor, 0x1000, True, 20)
        predictor.update(0x2000, False)
        assert not steady_holds(predictor, 0x1000, True)
        with pytest.raises(AssertionError):
            drive_back_edge(predictor, 0x1000, True, 20, mutant)
