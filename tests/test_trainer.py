import csv
import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pyreid.batching import pk_batches, random_batches
from pyreid.container import load_tensors, save_tensors
from pyreid.data_synth import GenConfig, generate_dataset
from pyreid.errors import ConfigError, ContainerError, TrainingDiverged
from pyreid.evaluation import evaluate_checkpoint
from pyreid.scheduler import (ALPHA, GAMMA, LOSS_POLICIES, SWITCH_RATIO, TRACE_COLUMNS,
                              SchedulerState)
from pyreid.trainer import (MOMENTUM, PROFILES, SGD, WEIGHT_DECAY, TrainConfig,
                            _BatchStream, _decode_config, build_model,
                            load_checkpoint, lr_schedule, make_config,
                            make_label_map, rebuild_model,
                            resolved_config_text, save_checkpoint, sgd_step, train)

from helpers import oracle_triplet


def read_trace(path):
    return list(csv.DictReader(open(path)))


@pytest.fixture(scope="module")
def short_run(toy_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("short_run")
    config = TrainConfig(seed=3, epochs=6)
    result = train(config, toy_dataset, out)
    return config, result


class TestLrSchedule:
    def test_base_rate_before_first_halving(self):
        assert lr_schedule(0, 0.01, (60, 70, 80, 90)) == pytest.approx(0.01)

    def test_one_halving_applied(self):
        assert lr_schedule(65, 0.01, (60, 70, 80, 90)) == pytest.approx(0.005)

    def test_four_halvings(self):
        assert lr_schedule(95, 0.01, (60, 70, 80, 90)) == pytest.approx(0.000625)

    def test_halving_applies_at_the_epoch_itself(self):
        assert lr_schedule(60, 0.01, (60, 70, 80, 90)) == pytest.approx(0.005)


class TestSgdStep:
    def test_plain_gradient_step(self):
        w = np.array([1.0])
        v = np.zeros(1)
        sgd_step(w, np.array([0.5]), v, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert w[0] == pytest.approx(0.95)

    def test_zero_gradient_is_fixed_point(self):
        w = np.array([2.0])
        v = np.zeros(1)
        sgd_step(w, np.array([0.0]), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert w[0] == 2.0

    def test_two_momentum_steps(self):
        # v1 = 1, w1 = -0.1; v2 = 1.9, w2 = -0.29
        w = np.array([0.0])
        v = np.zeros(1)
        for _ in range(2):
            sgd_step(w, np.array([1.0]), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert w[0] == pytest.approx(-0.29)

    def test_weight_decay_enters_velocity(self):
        w = np.array([10.0])
        v = np.zeros(1)
        sgd_step(w, np.array([0.0]), v, lr=0.1, momentum=0.0, weight_decay=0.1)
        assert w[0] == pytest.approx(10.0 - 0.1 * 1.0)

    def test_optimizer_exempts_batch_norm_params(self, toy_dataset):
        model = build_model(TrainConfig(), toy_dataset.image_hw, 10)
        opt = SGD(list(model.named_parameters()))
        for name, _ in opt.params:
            if name.endswith((".gamma", ".beta")):
                assert not opt.decays(name), name
            else:
                assert opt.decays(name), name

    def test_non_finite_gradient_aborts_with_name(self, toy_dataset):
        model = build_model(TrainConfig(), toy_dataset.image_hw, 10)
        opt = SGD(list(model.named_parameters()))
        bad = opt.params[0]
        bad[1].grad = np.full_like(bad[1].data, np.nan)
        with pytest.raises(TrainingDiverged, match=bad[0]):
            opt.step(0.01)


class TestConfig:
    def test_desk_profile_defaults(self):
        c = PROFILES["desk"]
        assert (len(c.pyramid_mask), c.margin, c.base_lr) == (6, 1.4, 0.01)
        # the method's fixed values, constants since they left TrainConfig
        assert (ALPHA, GAMMA, SWITCH_RATIO) == (0.25, 2.0, 0.16)
        assert (MOMENTUM, WEIGHT_DECAY) == (0.9, 0.0005)

    def test_paper_profile_values(self):
        c = PROFILES["paper"]
        assert (c.feature_dim, c.batch_size, c.p_ids, c.k_imgs) == (128, 64, 8, 8)
        assert c.epochs == 120
        assert c.lr_halving_epochs == (60, 70, 80, 90)

    def test_batch_is_p_times_k(self):
        assert TrainConfig(p_ids=4, k_imgs=8).batch_size == 32

    @pytest.mark.parametrize("key", ["feature_dim", "epochs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_must_be_positive(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be positive, got {value}"):
            replace(TrainConfig(), **{key: value}).validate()

    def test_seed_must_be_non_negative(self):
        replace(TrainConfig(), seed=0).validate()
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            replace(TrainConfig(), seed=-1).validate()

    def test_readme_config_table_lists_every_field_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n| key | meaning |", 1)[1].split("\n\n", 1)[0]
        keys = [line.split("|")[1].strip().strip("`") for line in section.splitlines()[2:]]
        assert keys == [f.name for f in fields(TrainConfig)]

    def test_halvings_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            TrainConfig(lr_halving_epochs=(20, 15)).validate()

    @pytest.mark.parametrize("epochs", [(0, 5), (-3,)])
    def test_halvings_start_at_epoch_one(self, epochs):
        # the config-file refusal is in test_cli.py
        with pytest.raises(ConfigError, match="lr_halving_epochs entries must be >= 1"):
            TrainConfig(lr_halving_epochs=epochs).validate()

    def test_config_file_roundtrip(self, tmp_path):
        base = make_config("desk", overrides={"feature_dim": 8, "seed": 42,
                                              "pyramid_mask": "100001"})
        path = tmp_path / "run.ini"
        path.write_text(resolved_config_text(base))
        assert make_config("desk", file_path=path) == base

    def test_config_file_parse_errors(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("feature_dim 8\n")
        with pytest.raises(ConfigError, match="key=value"):
            make_config("desk", file_path=path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            make_config("desk", overrides={"not_a_field": 1})

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("# comment\n\nfeature_dim = 8  # inline\n")
        assert make_config("desk", file_path=path) == replace(PROFILES["desk"], feature_dim=8)

    def test_values_parse_by_the_type_of_the_default(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("lr_halving_epochs = 3, 5\n"
                        "margin = 2\nloss_policy = no_triplet\npyramid_mask = 000011\n")
        c = make_config("desk", file_path=path)
        assert c.lr_halving_epochs == (3, 5)
        assert (c.margin, c.loss_policy, c.pyramid_mask) == (2.0, "no_triplet", "000011")

    @pytest.mark.parametrize("line", ["epochs =", "epochs = 1.5", "lr_halving_epochs = 3, x"])
    def test_bad_value_names_source_line_and_key(self, tmp_path, line):
        path = tmp_path / "run.ini"
        path.write_text(f"seed = 1\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"run\.ini:2: bad value for {key}"):
            make_config("desk", file_path=path)

    def test_unknown_key_in_file_names_line(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("seed = 1\nnot_a_field = 2\n")
        with pytest.raises(ConfigError, match=r"run\.ini:2: unknown config key"):
            make_config("desk", file_path=path)


class TestTrainingRuns:
    def test_trace_row_per_iteration(self, toy_dataset, short_run):
        config, result = short_run
        rows = read_trace(result.trace_path)
        iters_per_epoch = math.ceil(len(toy_dataset.train_split()) / config.batch_size)
        assert len(rows) == config.epochs * iters_per_epoch
        assert [r["tau"] for r in rows] == [str(i + 1) for i in range(len(rows))]
        assert list(rows[0]) == list(TRACE_COLUMNS)

    def test_first_iteration_is_id_only(self, short_run):
        _, result = short_run
        assert read_trace(result.trace_path)[0]["phase"] == "id_only"

    def test_phase_matches_effective_loss_weights(self, short_run):
        _, result = short_run
        for row in read_trace(result.trace_path):
            assert row["phase"] in ("id_only", "combined")
            assert row["L_id"] != ""

    def test_bitwise_identical_reruns(self, toy_dataset, short_run, tmp_path):
        config, result = short_run
        again = train(config, toy_dataset, tmp_path / "again")
        assert open(result.trace_path, "rb").read() == \
            open(again.trace_path, "rb").read()
        assert open(result.checkpoint_path, "rb").read() == \
            open(again.checkpoint_path, "rb").read()

    def test_resume_reproduces_uninterrupted_trace(self, toy_dataset, short_run,
                                                   tmp_path):
        config, result = short_run
        first = train(TrainConfig(seed=3, epochs=3), toy_dataset, tmp_path / "a")
        resumed = train(TrainConfig(seed=3, epochs=6), toy_dataset, tmp_path / "b",
                        resume_from=first.checkpoint_path)
        full_rows = open(result.trace_path).read().splitlines()
        resumed_rows = open(resumed.trace_path).read().splitlines()
        cut = 3 * math.ceil(len(toy_dataset.train_split()) / config.batch_size)
        assert resumed_rows[1:] == full_rows[1 + cut:]
        assert open(result.checkpoint_path, "rb").read() == \
            open(resumed.checkpoint_path, "rb").read()

    def test_resume_with_wrong_architecture_refused(self, toy_dataset, short_run,
                                                    tmp_path):
        _, result = short_run
        bad = TrainConfig(seed=3, epochs=8, pyramid_mask="1111")
        with pytest.raises(ConfigError, match=r"differing fields: \['pyramid_mask'\]"):
            train(bad, toy_dataset, tmp_path / "c", resume_from=result.checkpoint_path)

    @pytest.mark.parametrize("config, message", [
        (TrainConfig(seed=3, epochs=8, feature_dim=8), r"differing fields: \['feature_dim'\]"),
        (TrainConfig(seed=4, epochs=8), r"differing fields: \['seed'\]"),
    ], ids=["feature_dim", "seed"])
    def test_refused_resume_writes_nothing(self, toy_dataset, short_run, tmp_path, config,
                                           message):
        _, result = short_run
        out = tmp_path / "refused"
        with pytest.raises(ConfigError, match=message):
            train(config, toy_dataset, out, resume_from=result.checkpoint_path)
        assert not out.exists()

    def test_anchorless_batch_leaves_a_blank_triplet_loss(self, toy_dataset, short_run):
        # replay the two samplers along the trace's phases: a batch in which
        # no image has both a positive and a negative measures no L_tp, so its
        # row is blank and the triplet average (k_tp) is the previous row's
        config, result = short_run
        split = toy_dataset.train_split()
        streams = {
            "id_only": _BatchStream(lambda e: random_batches(split, config.batch_size,
                                                             config.seed, e)),
            "combined": _BatchStream(lambda e: pk_batches(split, config.p_ids,
                                                          config.k_imgs, config.seed, e)),
        }
        blank, previous = [], None
        for row in read_trace(result.trace_path):
            labels = streams[row["phase"]].next().identities
            _, anchors = oracle_triplet(np.zeros((len(labels), 1)), labels, 1.0)
            assert (row["L_tp"] == "") == (anchors == 0), row
            if anchors == 0:
                assert row["k_tp"] == previous["k_tp"]
                blank.append(int(row["tau"]))
            previous = row
        assert blank == [13]

    def test_resume_on_other_dataset_refused(self, short_run, tmp_path):
        _, result = short_run
        other = generate_dataset(GenConfig(num_ids=8, imgs_per_id=6, seed=99))
        with pytest.raises(ConfigError, match="fingerprint"):
            train(TrainConfig(seed=3, epochs=8), other, tmp_path / "d",
                  resume_from=result.checkpoint_path)

    def test_checkpoint_save_load_save_is_byte_identical(self, short_run, tmp_path):
        from pyreid.container import load_tensors, save_tensors
        _, result = short_run
        entries = load_tensors(result.checkpoint_path)
        save_tensors(tmp_path / "copy.pyrt", entries)
        assert (tmp_path / "copy.pyrt").read_bytes() == \
            open(result.checkpoint_path, "rb").read()

    def test_checkpoint_stores_resolved_config_text(self, short_run):
        config, result = short_run
        entries = load_tensors(result.checkpoint_path)
        stored = entries["meta/config"]
        assert stored.dtype == np.dtype("<i8") and stored.ndim == 1
        assert stored.astype(np.uint8).tobytes().decode() == resolved_config_text(config)
        assert int(entries["meta/version"]) == 10
        assert not [k for k in entries if k.startswith("config/")]

    def test_rebuilt_model_matches_trained_state(self, short_run):
        _, result = short_run
        entries = load_checkpoint(result.checkpoint_path)
        model, config = rebuild_model(entries)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, entries[f"param/{name}"])
        for name, buf in model.named_buffers():
            np.testing.assert_array_equal(buf, entries[f"buffer/{name}"])

    def test_random_stream_consumes_whole_split_per_cycle(self, toy_dataset,
                                                          short_run):
        """Images drawn by random-sampling iterations form whole permutations
        of the train split, in order."""
        from pyreid.batching import random_batches
        config, result = short_run
        split = toy_dataset.train_split()
        rows = read_trace(result.trace_path)
        n_random = sum(1 for r in rows if r["phase"] == "id_only")
        expected: list = []
        epoch = 0
        while len(expected) < n_random:
            expected.extend(random_batches(split, config.batch_size, config.seed,
                                           epoch))
            epoch += 1
        consumed = np.concatenate([b.indices for b in expected[:n_random]])
        full_cycles = len(consumed) // len(split)
        for c in range(full_cycles):
            chunk = consumed[c * len(split):(c + 1) * len(split)]
            assert sorted(chunk.tolist()) == sorted(split.indices.tolist())

    def test_evaluation_of_trained_checkpoint(self, toy_dataset, short_run):
        _, result = short_run
        metrics = evaluate_checkpoint(result.checkpoint_path, toy_dataset)
        assert 0.0 <= metrics["mAP"] <= 1.0
        assert metrics["rank1"] >= 0.3  # six epochs already separate the toy set

    def test_combined_phase_reached_early(self, short_run):
        # seeded regression: the seed-3 desk run leaves the id_only regime
        # well inside its 6 epochs
        _, result = short_run
        assert "combined" in [r["phase"] for r in read_trace(result.trace_path)]

    def test_eval_geometry_mismatch_refused(self, toy_dataset, short_run):
        _, result = short_run
        # a loaded dataset may hold any image size: here 24 x 8 crops
        other = replace(toy_dataset, images=toy_dataset.images[:, :24, :8].copy())
        with pytest.raises(ConfigError,
                           match=r"expects \(48, 16\) images, dataset has \(24, 8\)"):
            evaluate_checkpoint(result.checkpoint_path, other)


def _text_entry(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8).astype("<i8")


class TestCheckpointSchema:
    """Entries only resume reads; `test_cli.TestMalformedInputs` covers the
    ones `pyreid eval` reads."""

    @pytest.mark.parametrize("prefix", ["momentum/", "sched/", "meta/rand_pos",
                                        "meta/dataset_fingerprint"])
    def test_resume_names_missing_entry(self, toy_dataset, short_run, tmp_path, prefix):
        _, result = short_run
        entries = load_tensors(result.checkpoint_path)
        key = next(k for k in entries if k.startswith(prefix))
        del entries[key]
        save_tensors(tmp_path / "ck.pyrt", entries)
        with pytest.raises(ContainerError, match=re.escape(repr(key))):
            train(TrainConfig(seed=3, epochs=8), toy_dataset, tmp_path / "r",
                  resume_from=tmp_path / "ck.pyrt")

    @pytest.mark.parametrize("prefix", ["buffer/", "momentum/", "sched/tau"])
    def test_resume_names_misshapen_entry(self, toy_dataset, short_run, tmp_path, prefix):
        _, result = short_run
        entries = load_tensors(result.checkpoint_path)
        key = next(k for k in entries if k.startswith(prefix))
        entries[key] = np.zeros((2, 3), dtype=entries[key].dtype)
        save_tensors(tmp_path / "ck.pyrt", entries)
        with pytest.raises(ContainerError, match=re.escape(repr(key)) + ".*shape"):
            train(TrainConfig(seed=3, epochs=8), toy_dataset, tmp_path / "r",
                  resume_from=tmp_path / "ck.pyrt")

    # NaN in sched/k_id or sched/k_tp is a task with no loss yet; no other
    # entry resume reads may be NaN, and none may be infinite
    @pytest.mark.parametrize("prefix, value", [("momentum/", np.nan), ("momentum/", np.inf),
                                               ("sched/tau", np.nan), ("sched/p_tp", np.inf),
                                               ("sched/k_id", np.inf), ("sched/k_tp", -np.inf)])
    def test_resume_names_non_finite_entry(self, toy_dataset, short_run, tmp_path, prefix,
                                           value):
        _, result = short_run
        entries = load_tensors(result.checkpoint_path)
        key = next(k for k in entries if k.startswith(prefix))
        entries[key] = entries[key].copy()
        entries[key].flat[-1] = value
        save_tensors(tmp_path / "ck.pyrt", entries)
        with pytest.raises(ContainerError, match=re.escape(repr(key)) + " holds a non-finite"):
            train(TrainConfig(seed=3, epochs=8), toy_dataset, tmp_path / "r",
                  resume_from=tmp_path / "ck.pyrt")

    def test_resume_reads_nan_task_statistics_as_no_loss_yet(self, toy_dataset, short_run,
                                                           tmp_path):
        _, result = short_run
        entries = load_tensors(result.checkpoint_path)
        entries["sched/k_id"] = np.array(np.nan)
        entries["sched/k_tp"] = np.array(np.nan)
        save_tensors(tmp_path / "ck.pyrt", entries)
        resumed = train(TrainConfig(seed=3, epochs=7), toy_dataset, tmp_path / "r",
                        resume_from=tmp_path / "ck.pyrt")
        assert read_trace(resumed.trace_path)

    def test_scheduler_entries_are_the_resumed_state(self, short_run):
        _, result = short_run
        entries = load_tensors(result.checkpoint_path)
        assert sorted(k for k in entries if k.startswith("sched/")) == \
            sorted(f"sched/{k}" for k in ("tau", "phase", "k_id", "p_id", "k_tp", "p_tp"))
        assert "meta/num_identities" not in entries

    @pytest.mark.parametrize("loss_policy", ["no_triplet", "dynamic"])
    def test_resume_takes_policy_from_stored_config(self, toy_dataset, tmp_path,
                                                    loss_policy):
        # sched/ entries naming the other policy, as version 5 stored them,
        # are not read: the resumed run continues the uninterrupted trace
        no_triplet = loss_policy == "no_triplet"
        config = TrainConfig(seed=1, epochs=2, loss_policy=loss_policy)
        full = train(config, toy_dataset, tmp_path / "full")
        first = train(replace(config, epochs=1), toy_dataset, tmp_path / "first")
        entries = load_tensors(first.checkpoint_path)
        entries["sched/alternating"] = np.array(float(not no_triplet))
        entries["sched/switch_ratio"] = np.array(50.0)
        save_tensors(tmp_path / "forged.pyrt", entries)
        resumed = train(config, toy_dataset, tmp_path / "resumed",
                        resume_from=tmp_path / "forged.pyrt")
        rows = read_trace(resumed.trace_path)
        assert rows == read_trace(full.trace_path)[-len(rows):]
        if no_triplet:
            assert [r["phase"] for r in rows] == \
                ["id_only" if int(r["tau"]) % 2 else "combined" for r in rows]

    def test_stored_config_must_name_every_field(self, short_run):
        config, _ = short_run
        text = resolved_config_text(config).replace("margin = 1.4\n", "")
        with pytest.raises(ContainerError, match="margin"):
            _decode_config({"meta/config": _text_entry(text)})


@st.composite
def train_configs(draw):
    """Valid TrainConfigs with a small head; each float field is drawn from
    its valid range."""
    n = draw(st.integers(1, 6))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return TrainConfig(
        feature_dim=draw(st.integers(1, 8)), margin=draw(positive),
        p_ids=draw(st.integers(2, 5)), k_imgs=draw(st.integers(2, 5)),
        base_lr=draw(positive), epochs=draw(st.integers(1, 10**6)),
        lr_halving_epochs=tuple(sorted(draw(st.sets(st.integers(1, 10**4), max_size=4)))),
        seed=draw(st.integers(0, 2**64)),
        pyramid_mask=draw(st.text("01", min_size=n, max_size=n).filter(lambda m: "1" in m)),
        loss_policy=draw(st.sampled_from(LOSS_POLICIES)))


def _assert_checkpoint_roundtrip(config: TrainConfig) -> None:
    config.validate()
    # the backbone's strides multiply to 4
    model = build_model(config, (4 * len(config.pyramid_mask), 4), 5)
    opt = SGD(list(model.named_parameters()))
    stream = {"rand_epoch": 0, "rand_pos": 0, "pk_epoch": 0, "pk_pos": 0}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.pyrt"
        save_checkpoint(path, model, config, SchedulerState(), opt, stream, "ab" * 32)
        back, back_config = rebuild_model(load_checkpoint(path))
    assert back_config == config
    for (name, p), (_, q) in zip(model.named_parameters(), back.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)


CONFIG_KEYS = [f.name for f in fields(TrainConfig)]
CONFIG_VALUES = ["", "0", "1", "-3", "2.5", "nan", "true", "no", "111111", "1,2,3",
                 "3,2", "16:2,32:1", "16:3", "0:1", ":", ",,", "1e400", "٣"]
config_texts = st.lists(st.one_of(
    st.text(max_size=30),
    st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS), st.text(max_size=12)),
    st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS),
              st.sampled_from(CONFIG_VALUES))), max_size=10).map("\n".join)


class TestConfigCodecFuzz:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_profiles_roundtrip_through_checkpoint(self, profile):
        _assert_checkpoint_roundtrip(PROFILES[profile])

    @given(train_configs())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_valid_configs_roundtrip_through_checkpoint(self, config):
        _assert_checkpoint_roundtrip(config)

    @given(config_texts)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_config_file_decodes_or_raises_config_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ini"
            path.write_text(text)
            try:
                config = make_config("desk", file_path=path)
            except ConfigError:
                return
        assert isinstance(config, TrainConfig)
        # an accepted config builds a model or names its fault; the sizes
        # are bounded so that no example allocates more than a few MB
        assume(config.feature_dim <= 64)
        try:
            build_model(config, (48, 16), 10)
        except ConfigError:
            pass

    @given(st.one_of(
        config_texts.map(lambda t: _text_entry(resolved_config_text(TrainConfig()) + t)),
        st.binary(max_size=60).map(lambda b: np.frombuffer(b, np.uint8).astype("<i8")),
        st.lists(st.integers(-2**63, 2**63 - 1), max_size=8).map(
            lambda v: np.array(v, dtype="<i8")),
        st.floats().map(np.array)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_stored_config_decodes_or_raises_own_errors(self, stored):
        try:
            config = _decode_config({"meta/config": stored})
        except (ConfigError, ContainerError):
            return
        config.validate()


class TestAblationModes:
    def test_no_triplet_mode_never_computes_triplet(self, toy_dataset, tmp_path):
        result = train(TrainConfig(seed=1, epochs=2, loss_policy="no_triplet"),
                       toy_dataset, tmp_path / "nt")
        rows = read_trace(result.trace_path)
        assert all(r["L_tp"] == "" for r in rows)
        phases = [r["phase"] for r in rows]
        assert phases[:4] == ["id_only", "combined", "id_only", "combined"]

    def test_masked_model_holds_only_enabled_branches(self, toy_dataset, tmp_path):
        config = TrainConfig(seed=2, epochs=1, pyramid_mask="000001")
        result = train(config, toy_dataset, tmp_path / "mask")
        entries = load_checkpoint(result.checkpoint_path)
        model, _ = rebuild_model(entries)
        init = build_model(config, toy_dataset.image_hw, model.num_identities)
        full = build_model(replace(config, pyramid_mask="111111"), toy_dataset.image_hw,
                           model.num_identities)
        assert model.windows == [(0, 6)]
        d = config.feature_dim
        heads = [(name, p, q, f) for (name, p), (_, q), (_, f)
                 in zip(model.named_parameters(), init.named_parameters(),
                        full.named_parameters()) if name.startswith("head.")]
        assert len(heads) == 4
        for name, p, q, f in heads:
            # the one level-6 branch is row 20 of the full model; the batch
            # norm's state holds its D entries
            np.testing.assert_array_equal(q.data, f.data[20:21] if f.data.ndim == 3
                                          else f.data[20 * d:21 * d], err_msg=name)
            assert entries[f"param/{name}"].shape == q.data.shape, name
            assert q.data.shape[0] == (1 if q.data.ndim == 3 else d), name
            assert not np.array_equal(p.data, q.data), name
            assert np.any(entries[f"momentum/{name}"]), name
        for name, buf in model.named_buffers():
            if name.startswith("head."):
                assert entries[f"buffer/{name}"].shape == buf.shape == (d,), name

    def test_mask_narrows_embedding_at_eval(self, toy_dataset, tmp_path):
        from pyreid.pyramid import BranchMask
        result = train(TrainConfig(seed=2, epochs=1), toy_dataset, tmp_path / "m2")
        model, _ = rebuild_model(load_checkpoint(result.checkpoint_path))
        assert model.embedding_columns(BranchMask.from_string("000001")).sum() == \
            model.feature_dim
