import json
import math

import numpy as np
import pytest

from icubench.errors import SchemaError, TrainingError
from icubench.neural import (
    Adam,
    EmbeddingTable,
    bce_loss,
    build_model,
    embedding_dims,
    grad_check,
    mse_loss,
    train_model,
)
from icubench.neural import lstm
from icubench.neural.checkpoint import load_checkpoint, save_checkpoint, schema_hash
from icubench.neural.training import InstanceGroup
from icubench.schema import CATEGORICAL_VARIABLES, Task, normal_values

VOCABS = {"A": 4, "B": 3, "C": 5, "D": 4, "E": 3, "F": 3, "G": 6}


def small_batch(rng, task, T=6, B=3, n_num=13):
    num = rng.normal(size=(B, T, n_num))
    cat = np.stack([rng.integers(0, size, size=(B, T)) for size in VOCABS.values()], axis=-1)
    if task == Task.PHENOTYPING:
        labels = (rng.random((B, 25)) < 0.4).astype(float)
    elif task == Task.LOS:
        labels = rng.uniform(0.0, 3.0, size=B)
    else:
        labels = (rng.random(B) < 0.5).astype(float)
        labels[0] = 1.0
        labels[1] = 0.0
    return num, cat, labels


class TestEmbedding:
    def test_identity_equals_one_hot(self):
        emb = EmbeddingTable.identity({"A": 4, "B": 3})
        out = emb.forward(np.array([[2, 0]]))[0]
        expected = np.concatenate([np.eye(4)[2], np.eye(3)[0]])
        assert np.array_equal(out, expected)

    def test_zero_tables_give_zero_vector(self):
        emb = EmbeddingTable({"A": np.zeros((4, 2)), "B": np.zeros((3, 2))})
        assert np.array_equal(emb.forward(np.array([[1, 2]]))[0], np.zeros(4))

    def test_unselected_rows_get_zero_gradient(self):
        rng = np.random.default_rng(0)
        emb = EmbeddingTable.random({"A": 4}, {"A": 3}, rng)
        idx = np.array([[0], [2]])
        dout = rng.normal(size=(2, 3))
        grads = emb.backward(idx, dout)
        assert np.all(grads["A"][1] == 0.0) and np.all(grads["A"][3] == 0.0)
        assert np.any(grads["A"][0] != 0.0)

    def test_out_of_range_index_faults(self):
        emb = EmbeddingTable.identity({"A": 4})
        with pytest.raises(IndexError):
            emb.forward(np.array([[4]]))

    def test_default_dims_heuristic(self):
        assert embedding_dims({"A": 3, "B": 99, "C": 200}) == {"A": 2, "B": 50, "C": 50}


class TestLosses:
    def test_bce_half_prediction_is_ln2(self):
        loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bce_near_zero_when_correct(self):
        loss, _ = bce_loss(np.array([1.0 - 1e-12, 1e-12]), np.array([1.0, 0.0]))
        assert loss < 1e-9

    def test_bce_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            bce_loss(np.array([0.5]), np.array([0.3]))

    def test_mse_zero_when_exact(self):
        loss, grad = mse_loss(np.array([1.5, 2.0]), np.array([1.5, 2.0]))
        assert loss == 0.0 and np.all(grad == 0.0)


def head_model(task, W, b):
    """A model whose head parameters are set to W and b."""
    model = build_model("lr", task, np.random.default_rng(0))
    model.params["head/W"], model.params["head/b"] = W, b
    return model


class TestHeads:
    def test_zero_head_is_half(self):
        model = head_model(Task.MORTALITY, np.zeros((1, 6)), np.zeros(1))
        assert model._head_out(np.ones((1, 6)))[1][0] == 0.5

    def test_los_head_clamps_negative(self):
        model = head_model(Task.LOS, np.full((1, 4), -0.5), np.zeros(1))
        assert model._head_out(np.ones((1, 4)))[1][0] == 0.0

    def test_phenotyping_zero_head_outputs_25_halves(self):
        model = head_model(Task.PHENOTYPING, np.zeros((25, 6)), np.zeros(25))
        out = model._head_out(np.ones((2, 6)))[1]
        assert out.shape == (2, 25) and np.all(out == 0.5)

    def test_width_mismatch(self):
        model = head_model(Task.MORTALITY, np.zeros((1, 6)), np.zeros(1))
        with pytest.raises(ValueError):
            model._head_out(np.ones((1, 5)))

    def test_sigmoid_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        model = head_model(Task.DECOMPENSATION, rng.normal(size=(1, 6)), rng.normal(size=1))
        out = model._head_out(rng.normal(size=(100, 6)) * 5)[1]
        assert np.all(out > 0.0) and np.all(out < 1.0)


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, -2.0])}
        opt = Adam(params)
        opt.step({"w": np.zeros(2)})
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        opt = Adam(params, step_size=1e-3)
        opt.step({"w": np.array([1.0])})
        assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_constant_gradient_moves_against_sign(self):
        params = {"w": np.array([0.0, 0.0])}
        opt = Adam(params)
        for _ in range(50):
            opt.step({"w": np.array([1.0, -2.0])})
        assert params["w"][0] < 0.0 < params["w"][1]

    def test_nonfinite_gradient_raises(self):
        opt = Adam({"w": np.zeros(1)})
        with pytest.raises(TrainingError, match="batch 3"):
            opt.step({"w": np.array([np.nan])}, batch_id="batch 3")


class TestGradCheck:
    @pytest.mark.parametrize("task", [Task.MORTALITY, Task.LOS, Task.PHENOTYPING, Task.DECOMPENSATION])
    def test_linear_model_tight(self, task):
        # near-linear loss: a wider step kills the round-off term, and the
        # truncation term stays negligible, so 1e-7 relative is attainable
        rng = np.random.default_rng(4)
        model = build_model("lr", task, rng, vocab_sizes=VOCABS)
        result = grad_check(model, small_batch(rng, task), eps=3e-4, n_coords=150, rng=np.random.default_rng(0))
        assert result.max_rel_error < 1e-7

    def test_ann_model(self):
        rng = np.random.default_rng(5)
        model = build_model("ann", Task.MORTALITY, rng, vocab_sizes=VOCABS, ann_hidden=16)
        result = grad_check(model, small_batch(rng, Task.MORTALITY), eps=1e-4, n_coords=200,
                            rng=np.random.default_rng(0))
        assert result.max_rel_error < 1e-6

    def test_bilstm_model(self):
        rng = np.random.default_rng(6)
        model = build_model("bilstm", Task.MORTALITY, rng, vocab_sizes=VOCABS, hidden=8)
        result = grad_check(model, small_batch(rng, Task.MORTALITY), n_coords=220, rng=np.random.default_rng(0))
        assert result.max_rel_error < 1e-4
        assert result.n_checked >= 200

    def test_model_is_left_untouched_in_float32(self):
        rng = np.random.default_rng(6)
        model = build_model("bilstm", Task.MORTALITY, rng, vocab_sizes=VOCABS, hidden=4)
        before = {k: v.copy() for k, v in model.params.items()}
        grad_check(model, small_batch(rng, Task.MORTALITY), n_coords=30, rng=np.random.default_rng(0))
        assert model.params.keys() == before.keys()
        for key, value in model.params.items():
            assert value.dtype == np.float32
            assert value.tobytes() == before[key].tobytes()

    def test_los_kinks_are_reported_not_failed(self):
        rng = np.random.default_rng(7)
        model = build_model("lr", Task.LOS, rng, vocab_sizes=None, use_numeric=True)
        # park the head exactly on the kink for one instance
        model.params["head/W"][:] = 0.0
        model.params["head/b"][:] = 0.0
        num, _, labels = small_batch(rng, Task.LOS)
        result = grad_check(model, (num, None, labels), n_coords=40, rng=np.random.default_rng(0))
        assert result.skipped_kinks  # zero pre-activation flips sign under perturbation


class TestEncodingEquivalence:
    def test_ohe_equals_identity_frozen_embedding_bitwise(self):
        task = Task.MORTALITY
        num, cat, labels = small_batch(np.random.default_rng(8), task)
        models = []
        for encoding, init in (("ohe", "random"), ("embedding", "identity")):
            rng = np.random.default_rng(99)
            models.append(
                build_model("bilstm", task, rng, vocab_sizes=VOCABS, encoding=encoding,
                            embed_init=init, embed_frozen=True, hidden=6)
            )
        a, b = models
        group = InstanceGroup(indices=np.arange(len(labels)), num=num, cat=cat, labels=labels)
        train_model(a, [group], epochs=3, batch_size=2, rng=np.random.default_rng(1))
        train_model(b, [group], epochs=3, batch_size=2, rng=np.random.default_rng(1))
        assert np.array_equal(a.predict(num, cat), b.predict(num, cat))

    def test_frozen_tables_get_no_gradient(self):
        num, cat, labels = small_batch(np.random.default_rng(5), Task.MORTALITY)
        for encoding, expect_emb_grads in (("ohe", False), ("embedding", True)):
            model = build_model("lr", Task.MORTALITY, np.random.default_rng(0), vocab_sizes=VOCABS,
                                encoding=encoding)
            _, grads = model.loss_and_grads(num, cat, labels)
            assert any(k.startswith("emb/") for k in grads) == expect_emb_grads

    def test_categorical_only_width(self):
        model = build_model("lr", Task.MORTALITY, np.random.default_rng(0),
                            use_numeric=False, vocab_sizes=VOCABS)
        expected = sum(embedding_dims(VOCABS).values())
        assert model.input_width == expected


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        task = Task.DECOMPENSATION
        num, cat, labels = small_batch(np.random.default_rng(2), task, B=8)
        group = InstanceGroup(indices=np.arange(8), num=num, cat=cat, labels=labels)
        snapshots = []
        for _ in range(2):
            model = build_model("bilstm", task, np.random.default_rng(3), vocab_sizes=VOCABS, hidden=5)
            train_model(model, [group], epochs=2, batch_size=4, rng=np.random.default_rng(4))
            snapshots.append({k: v.copy() for k, v in model.params.items()})
        for key in snapshots[0]:
            assert np.array_equal(snapshots[0][key], snapshots[1][key])


class TestFloat32:
    """Models train in float32: numpy promotes float32 @ float64 to float64
    without a word, and one stray float64 array would undo the saving."""

    @pytest.mark.parametrize("task", [Task.PHENOTYPING, Task.LOS])   # the BCE and the MSE path
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("encoding", ["ohe", "embedding"])
    @pytest.mark.parametrize("kind", ["lr", "ann", "bilstm"])
    def test_one_training_step_stays_in_float32(self, monkeypatch, kind, encoding, dropout, task):
        forward = lstm.lstm_forward
        caches = []

        def recording_forward(*args):
            hs, cache = forward(*args)
            caches.append(cache)
            return hs, cache

        monkeypatch.setattr(lstm, "lstm_forward", recording_forward)
        rng = np.random.default_rng(1)
        model = build_model(kind, task, rng, vocab_sizes=VOCABS, encoding=encoding, hidden=4, ann_hidden=6)
        num, cat, labels = small_batch(rng, task)
        _, grads = model.loss_and_grads(num, cat, labels, dropout=dropout, dropout_rng=rng)
        opt = Adam(model.params, model.trainable)
        opt.step(grads)
        assert len(caches) == (2 if kind == "bilstm" else 0)
        arrays = {f"param {k}": v for k, v in model.params.items()}
        arrays.update({f"table {k}": v for k, v in model.emb.tables.items()})
        arrays.update({f"grad {k}": v for k, v in grads.items()})
        arrays.update({f"adam m {k}": v for k, v in opt.m.items()})
        arrays.update({f"adam v {k}": v for k, v in opt.v.items()})
        for i, cache in enumerate(caches):
            arrays.update({f"cache {i} {k}": v for k, v in cache.items()})
        assert {k: v.dtype for k, v in arrays.items() if v.dtype != np.float32} == {}
        assert model.predict(num, cat).dtype == np.float32

    def test_embedding_tables_are_the_parameters(self):
        model = build_model("lr", Task.MORTALITY, np.random.default_rng(0), vocab_sizes=VOCABS)
        for name, table in model.emb.tables.items():
            assert table is model.params[f"emb/{name}"]


FIXED_VOCABS = {name: ("unknown", "a") for name in CATEGORICAL_VARIABLES}


class TestCheckpoint:
    @pytest.mark.parametrize("overrides, hex_digest", [
        (None, "5c582398ea023212fa488c2f658936433765a03c500c4a29ef3bb079949e71e9"),
        ({"Heart rate": 80}, "ec2c4bca7029dd178d214740ee4c038b43f33b71e7d6f24dc981b105cfb87525"),
    ])
    def test_schema_hash_is_stable(self, overrides, hex_digest):
        # the digests that checkpoints already on disk carry; another digest would stop them loading
        assert schema_hash(normal_values(overrides), FIXED_VOCABS).hex() == hex_digest

    def test_roundtrip_and_hash_guard(self, tmp_path):
        rng = np.random.default_rng(0)
        model = build_model("ann", Task.LOS, rng, vocab_sizes=VOCABS, ann_hidden=8)
        digest = schema_hash(normal_values(), FIXED_VOCABS)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.params, digest, {"kind": "ann", "task": "los"})
        meta, params = load_checkpoint(path, digest)
        assert meta["kind"] == "ann"
        for key, value in model.params.items():
            assert np.array_equal(params[key], value)
        with pytest.raises(SchemaError):
            load_checkpoint(path, b"\x00" * 32)

    def test_float32_model_is_stored_as_float64_exactly(self, tmp_path):
        model = build_model("bilstm", Task.MORTALITY, np.random.default_rng(0), vocab_sizes=VOCABS, hidden=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.params, b"\x01" * 32, {"kind": "bilstm", "task": "mortality24"})
        _, params = load_checkpoint(path, b"\x01" * 32)
        assert params.keys() == model.params.keys()
        for key, value in model.params.items():
            assert value.dtype == np.float32 and params[key].dtype == np.dtype("<f8")
            assert np.array_equal(params[key], value.astype(np.float64))

    def test_truncated_file_raises_schema_error(self, tmp_path):
        rng = np.random.default_rng(0)
        model = build_model("lr", Task.MORTALITY, rng)
        digest = b"\x01" * 32
        meta = {"kind": "lr", "task": "mortality24"}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.params, digest, meta)
        raw = path.read_bytes()
        meta_start = 4 + 2 + 32 + 4
        name = sorted(model.params)[0]
        first_param = meta_start + len(json.dumps(meta, sort_keys=True)) + 4
        first_shape = first_param + 2 + len(name) + 1
        first_data = first_shape + 8 * model.params[name].ndim
        cuts = {
            "magic": 2,
            "meta": meta_start + 3,
            "shape": first_shape + 5,
            "data": first_data + 3,
            "last byte": len(raw) - 1,
        }
        for cut in cuts.values():
            path.write_bytes(raw[:cut])
            with pytest.raises(SchemaError, match="truncated checkpoint"):
                load_checkpoint(path, digest)

    def test_trailing_bytes_and_corrupt_meta_raise_schema_error(self, tmp_path):
        model = build_model("lr", Task.MORTALITY, np.random.default_rng(0))
        digest = b"\x01" * 32
        meta = {"kind": "lr", "task": "mortality24"}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.params, digest, meta)
        raw = path.read_bytes()
        meta_start = 4 + 2 + 32 + 4
        first_name = meta_start + len(json.dumps(meta, sort_keys=True)) + 4 + 2

        def flipped(pos):
            return raw[:pos] + bytes([raw[pos] ^ 0xFF]) + raw[pos + 1:]

        corrupt = [
            (raw + b"junk", "bytes after the last parameter"),
            (flipped(meta_start), "corrupt checkpoint meta"),
            (raw[:meta_start] + b"x" + raw[meta_start + 1:], "corrupt checkpoint meta"),
            (flipped(first_name), "corrupt parameter name"),
        ]
        for data, message in corrupt:
            path.write_bytes(data)
            with pytest.raises(SchemaError, match=message):
                load_checkpoint(path, digest)
