"""Length-bucketed mini-batches and the ragged passes that evaluate them.

A batch's rows are cut into passes of whole equal-length runs, and a run
above the caller's ceiling into chunks of ceiling // T rows; inside a pass
rows are end-aligned and the cells before a row's window are padding.
These tests pin that padding changes no row's score or gradient, that a cut
batch takes the whole batch's step, that every default batch is one
training pass (so data of one length trains as before), that a large batch
and a prediction call stay within their memory bounds, and that the batches of one length are
those of plain shuffled mini-batches.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import uniform_set
from _reference import ref_make_epoch_batches, ref_window_copies
from icubench.neural import build_model, grad_check
from icubench.neural.lstm import PassBuffers
from icubench.neural.models import real_cells
from icubench.neural.training import (
    PASS_CELLS,
    TRAIN_PASS_CELLS,
    InstanceSet,
    batch_loss_and_grads,
    make_epoch_batches,
    predict_scores,
    split_passes,
    train_model,
)
from icubench.schema import N_NUMERIC, Task

VOCABS = {"A": 4, "B": 3, "C": 5, "D": 4, "E": 3, "F": 3, "G": 6}
LENGTHS = [7, 7, 5, 3, 3, 1]   # longest first, three runs and a single


def ragged_set(rng, task, lengths=LENGTHS, vocabs=VOCABS):
    lengths = np.asarray(lengths)
    n, cells = len(lengths), int(np.sum(lengths))
    num = rng.normal(size=(cells, N_NUMERIC))
    cat = np.stack([rng.integers(0, size, size=cells) for size in vocabs.values()], axis=-1)
    if task == Task.PHENOTYPING:
        labels = (rng.random((n, 25)) < 0.4).astype(float)
    elif task == Task.LOS:
        labels = rng.uniform(0.0, 3.0, size=n)
    else:
        labels = np.array([1.0, 0.0] * (n // 2))
    return InstanceSet(np.cumsum(lengths) - lengths, lengths, num, cat, labels)


def one_pass(data):
    return data.window_pass(np.arange(len(data)))


class TestWindowPass:
    # the content of a padding cell is unspecified (the model zeroes it), so only real cells are compared
    def test_rows_are_end_aligned(self):
        data = ragged_set(np.random.default_rng(0), Task.MORTALITY)
        num, cat, labels, lengths = one_pass(data)
        assert num.shape == (6, 7, N_NUMERIC) and cat.shape == (6, 7, len(VOCABS))
        assert lengths.tolist() == LENGTHS and np.array_equal(labels, data.labels)
        for r, length in enumerate(LENGTHS):
            lo, hi = data.starts[r], data.starts[r] + length
            assert np.array_equal(num[r, 7 - length:], data.num[lo:hi])
            assert np.array_equal(cat[r, 7 - length:], data.cat[lo:hi])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_shared_rows_give_the_copied_windows(self, draw):
        # overlapping windows (decompensation) and repeated positions (oversampling) into one row array
        n_rows = draw.draw(st.integers(1, 30))
        starts = np.array(draw.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=10)))
        lengths = np.array([draw.draw(st.integers(1, n_rows - s)) for s in starts.tolist()])
        picks = np.array(draw.draw(st.lists(st.integers(0, len(starts) - 1), min_size=1, max_size=16)))
        rng = np.random.default_rng(n_rows)
        num, cat = rng.normal(size=(n_rows, N_NUMERIC)), rng.integers(1, 5, size=(n_rows, len(VOCABS)))
        data = InstanceSet(starts, lengths, num, cat, np.arange(len(starts), dtype=float))
        got_num, got_cat, labels, got_lengths = data.window_pass(picks)
        real = real_cells(got_lengths, got_num.shape[1])
        assert np.array_equal(got_num[real], ref_window_copies(num, starts, lengths, picks)[real])
        assert np.array_equal(got_cat[real], ref_window_copies(cat, starts, lengths, picks)[real])
        assert labels.tolist() == picks.tolist() and got_lengths.tolist() == lengths[picks].tolist()

    def test_uniform_set_round_trips(self):
        rng = np.random.default_rng(1)
        num, cat = rng.normal(size=(5, 4, N_NUMERIC)), rng.integers(0, 3, size=(5, 4, 7))
        data = uniform_set(num, cat, np.zeros(5))
        got_num, got_cat, _, lengths = data.window_pass(np.array([3, 0, 4]))
        assert np.array_equal(got_num, num[[3, 0, 4]]) and np.array_equal(got_cat, cat[[3, 0, 4]])
        assert lengths.tolist() == [4, 4, 4]


class TestRaggedPass:
    @pytest.mark.parametrize("task", [Task.MORTALITY, Task.LOS, Task.PHENOTYPING, Task.DECOMPENSATION])
    @pytest.mark.parametrize("kind", ["lr", "ann", "bilstm"])
    def test_gradient_check(self, kind, task):
        # criterion 1's check and bound, on a pass with padding
        rng = np.random.default_rng(100)
        model = build_model(kind, task, rng, vocab_sizes=VOCABS, hidden=8, ann_hidden=12)
        num, cat, labels, lengths = one_pass(ragged_set(rng, task))
        result = grad_check(model, (num, cat, labels), n_coords=200, rng=np.random.default_rng(7), lengths=lengths)
        assert result.max_rel_error < 1e-4

    # float32 keeps 24 bits; a score in (0, 1) summed in another order moves by a few ulps
    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("kind", ["lr", "ann", "bilstm"])
    def test_row_score_equals_its_score_alone(self, kind, dtype, bound):
        rng = np.random.default_rng(3)
        data = ragged_set(rng, Task.PHENOTYPING)
        model = build_model(kind, Task.PHENOTYPING, rng, vocab_sizes=VOCABS, hidden=8).astype(dtype)
        num, cat, _, lengths = one_pass(data)
        together = model.predict(num, cat, lengths=lengths)
        for r in range(len(data)):
            alone_num, alone_cat, _, _ = data.window_pass(np.array([r]))
            alone = model.predict(alone_num, alone_cat)
            assert np.max(np.abs(together[r] - alone[0])) <= bound

    @pytest.mark.parametrize("kind", ["lr", "ann"])
    def test_pooled_mean_excludes_padding(self, kind):
        rng = np.random.default_rng(4)
        model = build_model(kind, Task.MORTALITY, rng, vocab_sizes=VOCABS, ann_hidden=6).astype(np.float64)
        num, cat, labels, lengths = one_pass(ragged_set(rng, Task.MORTALITY))
        rep, cache, _ = model._core(*model._assemble(num, cat, lengths))
        pooled = rep if kind == "lr" else cache["pooled"]
        full = model._assemble(num, cat, None)[0]
        for r, length in enumerate(lengths):
            assert np.max(np.abs(pooled[r] - full[r, num.shape[1] - length:].mean(axis=0))) < 1e-12
        # garbage in the padding cells changes nothing
        pad = ~real_cells(lengths, num.shape[1])
        noisy_num, noisy_cat = num.copy(), cat.copy()
        noisy_num[pad] = 1e3
        noisy_cat[pad] = 2
        assert np.array_equal(model.predict(noisy_num, noisy_cat, lengths=lengths),
                              model.predict(num, cat, lengths=lengths))

    def test_bilstm_pass_ignores_what_the_padding_cells_hold(self):
        # window_pass leaves padding cells unspecified; the model alone zeroes them
        rng = np.random.default_rng(4)
        model = build_model("bilstm", Task.MORTALITY, rng, vocab_sizes=VOCABS, hidden=6)
        num, cat, labels, lengths = one_pass(ragged_set(rng, Task.MORTALITY))
        pad = ~real_cells(lengths, num.shape[1])
        num[pad], cat[pad] = 0.0, 0
        noisy_num, noisy_cat = num.copy(), cat.copy()
        noisy_num[pad] = 1e3
        noisy_cat[pad] = 2
        assert (model.predict(noisy_num, noisy_cat, lengths=lengths).tobytes()
                == model.predict(num, cat, lengths=lengths).tobytes())
        loss, grads = model.loss_and_grads(num, cat, labels, lengths=lengths)
        noisy_loss, noisy_grads = model.loss_and_grads(noisy_num, noisy_cat, labels, lengths=lengths)
        assert noisy_loss == loss and noisy_grads.keys() == grads.keys()
        for name, g in grads.items():
            assert noisy_grads[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("kind", ["lr", "ann", "bilstm"])
    def test_trainable_embedding_gets_no_gradient_from_padding(self, kind):
        # real cells use rows 0-2 of every table; padding points at the last row, which must get exactly 0
        vocabs = {name: 4 for name in VOCABS}
        rng = np.random.default_rng(5)
        data = ragged_set(rng, Task.MORTALITY, vocabs={name: 3 for name in VOCABS})
        model = build_model(kind, Task.MORTALITY, rng, vocab_sizes=vocabs, hidden=6, ann_hidden=6)
        num, cat, labels, lengths = one_pass(data)
        pad = ~real_cells(lengths, num.shape[1])
        cat[pad] = 3
        _, grads = model.loss_and_grads(num, cat, labels, lengths=lengths)
        emb = {k: g for k, g in grads.items() if k.startswith("emb/")}
        assert len(emb) == len(VOCABS)
        for name, g in emb.items():
            assert not g[3].any(), name
            assert g[:3].any(), name

    def test_batch_gradient_is_the_row_weighted_sum_of_its_passes(self):
        # 40 rows of lengths 60..21 need several merged passes; 200 rows of length 40 are a run of 8,000
        # cells, cut into 153 + 47 rows.  Either batch taken as one ragged pass gives the same step.
        rng = np.random.default_rng(6)
        for lengths, n_passes in ((np.arange(60, 20, -1), 2), (np.r_[np.full(200, 40), 30, 30, 7], 3)):
            assert len(split_passes(lengths, TRAIN_PASS_CELLS)) == n_passes
            data = ragged_set(rng, Task.PHENOTYPING, lengths=lengths)
            model = build_model("bilstm", Task.PHENOTYPING, rng, vocab_sizes=VOCABS, hidden=5).astype(np.float64)
            rows = rng.permutation(len(lengths))
            loss, grads = batch_loss_and_grads(model, data, rows)
            num, cat, labels, lens = one_pass(data)
            want_loss, want = model.loss_and_grads(num, cat, labels, lengths=lens)
            assert abs(loss - want_loss) < 1e-12
            assert grads.keys() == want.keys()
            for name in want:
                assert np.max(np.abs(grads[name] - want[name])) < 1e-12, name

    def test_predict_scores_are_in_instance_order(self):
        rng = np.random.default_rng(7)
        lengths = rng.integers(1, 50, size=60)
        data = ragged_set(rng, Task.PHENOTYPING, lengths=lengths)
        model = build_model("bilstm", Task.PHENOTYPING, rng, vocab_sizes=VOCABS, hidden=5).astype(np.float64)
        scores = predict_scores(model, data)
        assert scores.shape == (60, 25) and scores.dtype == np.float64
        for r in (0, 17, 59):
            num, cat, _, _ = data.window_pass(np.array([r]))
            assert np.max(np.abs(scores[r] - model.predict(num, cat)[0])) < 1e-12

    def test_prediction_passes_stay_within_the_cell_budget(self, monkeypatch):
        # 600 windows of one length are one run; predicting it whole would take 14,400 cells at once
        rng = np.random.default_rng(8)
        data = ragged_set(rng, Task.MORTALITY, lengths=np.full(600, 24))
        model = build_model("bilstm", Task.MORTALITY, rng, vocab_sizes=VOCABS, hidden=8)
        whole = model.predict
        cells = []

        def counted(num, cat, **kwargs):
            cells.append(num.shape[0] * num.shape[1])
            return whole(num, cat, **kwargs)

        monkeypatch.setattr(model, "predict", counted)
        scores = predict_scores(model, data)
        assert max(cells) <= PASS_CELLS and sum(cells) == 600 * 24
        num, cat, _, lengths = one_pass(data)
        assert np.max(np.abs(scores - whole(num, cat, lengths=lengths))) <= 1e-6


class TestUniformDataUnchanged:
    @pytest.mark.parametrize("n, batch_size", [(1, 4), (7, 3), (128, 128), (300, 128), (513, 64)])
    def test_one_length_gives_the_reference_batches(self, n, batch_size):
        group = SimpleNamespace(size=n, num=None, cat=None, labels=np.arange(n))
        ref_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(3):   # epochs draw from one generator in turn
            want = [labels for _, _, labels in ref_make_epoch_batches([group], batch_size, ref_rng)]
            got = make_epoch_batches(np.full(n, 24), batch_size, rng)
            assert [b.tolist() for b in got] == [b.tolist() for b in want]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(1, 500), st.integers(1, 300)), min_size=1, max_size=8))
    def test_passes_are_whole_runs_cut_greedily(self, runs):
        # the one rule for both ceilings: runs merge greedily up to PASS_CELLS, and a run is split only
        # when it exceeds the ceiling, into chunks of ceiling // T rows with the remainder last
        lengths = np.repeat(*np.array(sorted(runs, reverse=True)).T)
        run_start = {T: int(np.argmax(lengths == T)) for T in set(lengths.tolist())}
        run_stop = {T: len(lengths) - int(np.argmax(lengths[::-1] == T)) for T in run_start}
        for ceiling in (PASS_CELLS, TRAIN_PASS_CELLS):
            passes = split_passes(lengths, ceiling)
            assert passes[0].start == 0 and passes[-1].stop == len(lengths)
            for before, after in zip(passes, passes[1:]):
                assert before.stop == after.start
            for part in passes:
                T, rows = int(lengths[part.start]), part.stop - part.start
                run_rows = run_stop[T] - run_start[T]
                if run_rows * T > ceiling:
                    step = max(1, ceiling // T)
                    assert (part.start - run_start[T]) % step == 0 and rows == min(step, run_stop[T] - part.start)
                    continue
                assert part.start == run_start[T] and part.stop == run_stop[int(lengths[part.stop - 1])]
                assert rows == run_rows or rows * T <= PASS_CELLS   # whole runs, several only within PASS_CELLS
                if part.stop < len(lengths):   # the next run did not fit
                    assert (run_stop[int(lengths[part.stop])] - part.start) * T > PASS_CELLS

    def test_a_uniform_batch_is_one_pass(self):
        # a default batch of 128 windows of decompensation or LoS (12 hours), mortality24 or mortality48
        # trains as one pass, so same-seed reports of default configs take whole-batch steps
        for T in (12, 24, 48):
            assert split_passes(np.full(128, T), TRAIN_PASS_CELLS) == [slice(0, 128)]


class TestPassMemory:
    # measured at 11.25 MB (5.5 KB a cell) when PASS_CELLS went to 2,048; a kernel change that
    # spends more per cell makes every training pass, and the run's peak RSS, larger
    PEAK_BYTES = 11_600_000

    def test_a_full_ragged_pass_stays_within_its_measured_peak(self):
        # the phenotyping benchmark's shape: OHE width 49 + 13 numeric = D 62, H 64, 25 labels
        vocabs = {name: 7 for name in VOCABS}
        rng = np.random.default_rng(0)
        model = build_model("bilstm", Task.PHENOTYPING, rng, vocab_sizes=vocabs, encoding="ohe", hidden=64)
        assert model.input_width == 62
        lengths = np.linspace(64, 16, 32).astype(int)   # 32 rows x longest 64 = 2,048 cells
        assert len(lengths) * lengths[0] == PASS_CELLS
        data = ragged_set(rng, Task.PHENOTYPING, lengths=lengths, vocabs=vocabs)
        num, cat, labels, lens = one_pass(data)
        model.loss_and_grads(num, cat, labels, lengths=lens)   # first-call allocations are not the pass's
        tracemalloc.start()
        try:
            model.loss_and_grads(num, cat, labels, lengths=lens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES


class TestPredictMemory:
    # measured at 9.38 MB with each pass allocating its arrays, against 11.38 MB when predict_scores held a
    # PassBuffers (and with it the input-GEMM array) through every pass
    PEAK_BYTES = 9_850_000

    def test_three_full_ragged_passes_stay_within_their_measured_peak(self):
        # TestPassMemory's phenotyping shape, as three ragged passes of 2,048 cells: T 64, 32 and 16
        vocabs = {name: 7 for name in VOCABS}
        rng = np.random.default_rng(0)
        model = build_model("bilstm", Task.PHENOTYPING, rng, vocab_sizes=vocabs, encoding="ohe", hidden=64)
        lengths = np.concatenate([np.linspace(64, 33, 32), np.linspace(32, 17, 64), np.linspace(16, 1, 128)])
        lengths = lengths.astype(int)
        assert split_passes(lengths, PASS_CELLS) == [slice(0, 32), slice(32, 96), slice(96, 224)]
        data = ragged_set(rng, Task.PHENOTYPING, lengths=lengths, vocabs=vocabs)
        predict_scores(model, data)   # first-call allocations are not the passes'
        tracemalloc.start()
        try:
            predict_scores(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES


class TestBatchMemory:
    # a mortality48 batch of 1,024 windows as one pass peaked at 273.6 MB; cut at TRAIN_PASS_CELLS into
    # 8 passes it measured 34.8 MB, about one default 128-window batch (34.4 MB)
    PEAK_BYTES = 36_000_000

    def test_a_large_batch_trains_within_the_bound_of_a_default_batch(self):
        # mortality48's shape: T 48, BiLSTM H 64 with trainable embeddings (input width 41)
        vocabs = {name: 7 for name in VOCABS}
        rng = np.random.default_rng(0)
        model = build_model("bilstm", Task.MORTALITY, rng, vocab_sizes=vocabs, hidden=64)
        lengths = np.full(1024, 48)
        assert len(split_passes(lengths, TRAIN_PASS_CELLS)) == 8
        data = ragged_set(rng, Task.MORTALITY, lengths=lengths, vocabs=vocabs)
        rows = rng.permutation(len(lengths))
        batch_loss_and_grads(model, data, rows)   # first-call allocations are not the step's
        tracemalloc.start()
        try:
            batch_loss_and_grads(model, data, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES


class TestPassBuffers:
    """The passes of one train_model call share one set of kernel buffers."""

    def test_reused_buffers_give_the_bits_of_fresh_ones(self):
        # a uniform 128 x 24 pass, then a shorter ragged pass that reads the stale hs and dz_all rows the
        # first one left, then a larger pass that grows every buffer
        vocabs = {name: 7 for name in VOCABS}
        rng = np.random.default_rng(3)
        model = build_model("bilstm", Task.MORTALITY, rng, vocab_sizes=vocabs, hidden=64)
        buffers = PassBuffers()
        for lengths in (np.full(128, 24), np.sort(rng.integers(1, 31, size=40))[::-1], np.full(160, 30)):
            num, cat, labels, lens = one_pass(ragged_set(rng, Task.MORTALITY, lengths=lengths, vocabs=vocabs))
            loss, grads = model.loss_and_grads(num, cat, labels, lengths=lens)
            reused_loss, reused_grads = model.loss_and_grads(num, cat, labels, lengths=lens, buffers=buffers)
            assert reused_loss == loss and reused_grads.keys() == grads.keys()
            for name, g in grads.items():
                assert reused_grads[name].tobytes() == g.tobytes(), name

    def test_a_repeated_pass_allocates_under_half_of_the_first(self, monkeypatch):
        # two 128 x 24 passes in one train_model: the second reuses the buffers the first allocated
        vocabs = {name: 7 for name in VOCABS}
        rng = np.random.default_rng(0)
        model = build_model("bilstm", Task.MORTALITY, rng, vocab_sizes=vocabs, hidden=64)
        data = ragged_set(rng, Task.MORTALITY, lengths=np.full(256, 24), vocabs=vocabs)
        whole = model.loss_and_grads
        allocated = []

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = whole(*args, **kwargs)
            allocated.append(tracemalloc.get_traced_memory()[1] - start)
            return result

        monkeypatch.setattr(model, "loss_and_grads", traced)
        tracemalloc.start()
        try:
            train_model(model, data, epochs=1, batch_size=128, rng=rng)
        finally:
            tracemalloc.stop()
        assert len(allocated) == 2
        assert allocated[1] < allocated[0] / 2
