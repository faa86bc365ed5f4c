import csv
import os
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pyreid import cli
from pyreid.chart import PALETTE, line_chart, write_png
from pyreid.cli import main
from pyreid.container import load_tensors, save_tensors
from pyreid.data_synth import MANIFEST_COLUMNS
from pyreid.pyramid import BranchMask


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "toy"
    code = main(["gen-data", "--out", str(out), "--num-ids", "12",
                 "--imgs-per-id", "8", "--severity", "0.2", "--seed", "4"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "r0"
    code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                 "--seed", "7", "--epochs", "4"])
    assert code == 0
    return out


class TestGenData:
    def test_outputs_exist(self, data_dir):
        for name in ("train.pyrt", "query.pyrt", "gallery.pyrt", "manifest.csv"):
            assert (data_dir / name).exists()

    def test_idempotent(self, data_dir, tmp_path):
        out = tmp_path / "again"
        assert main(["gen-data", "--out", str(out), "--num-ids", "12",
                     "--imgs-per-id", "8", "--severity", "0.2", "--seed", "4"]) == 0
        for name in ("train.pyrt", "query.pyrt", "gallery.pyrt", "manifest.csv"):
            assert (out / name).read_bytes() == (data_dir / name).read_bytes()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--num-ids", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen-data", "--out", str(out), "--seed", "-1"]) == 2
        assert_one_error_line(capsys.readouterr().err, "seed must be non-negative, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--cams", "3"), ("--height", "32"),
                                             ("--width", "8")])
    def test_geometry_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # data is generated at two cameras and 48 x 16 only
        out = tmp_path / "x"
        assert main(["gen-data", "--out", str(out), flag, value]) == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"unrecognized arguments: {flag} {value}")
        assert not out.exists()


class TestTrain:
    def test_outputs(self, trained_dir):
        for name in ("checkpoint.pyrt", "trace.csv", "metrics.csv",
                     "resolved_config.ini", "run_info.txt"):
            assert (trained_dir / name).exists()

    def test_run_info_records_environment(self, trained_dir):
        lines = (trained_dir / "run_info.txt").read_text().splitlines()
        info = dict(line.split(" = ", 1) for line in lines)
        for key in ("started_unix", "duration_s", "numpy_version", "blas", "blas_core",
                    "openblas_num_threads", "cpu_count", "conv_workers"):
            assert info.get(key), key
        assert info["numpy_version"] == np.__version__
        assert info["conv_workers"] == str(len(os.sched_getaffinity(0)))

    @pytest.mark.parametrize("library", ["not_loadable", "without_the_symbol"])
    def test_blas_core_is_unknown_without_the_bundled_openblas(self, monkeypatch, library):
        def cdll(path):
            if library == "not_loadable":
                raise OSError(f"{path}: cannot open shared object file")
            return object()  # no scipy_openblas_get_corename64_

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._blas_core() == "unknown"

    def test_resolved_config_reproduces_run(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "replay"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--config", str(trained_dir / "resolved_config.ini")])
        assert code == 0
        assert (out / "trace.csv").read_bytes() == \
            (trained_dir / "trace.csv").read_bytes()

    def test_deterministic_outputs_except_run_info(self, data_dir, trained_dir,
                                                   tmp_path):
        out = tmp_path / "again"
        assert main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--seed", "7", "--epochs", "4"]) == 0
        for name in ("checkpoint.pyrt", "trace.csv", "metrics.csv",
                     "resolved_config.ini"):
            assert (out / name).read_bytes() == (trained_dir / name).read_bytes(), name

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--frobnicate", "1"], "unrecognized arguments: --frobnicate 1"),
        (["--epochs", "abc"], "argument --epochs: invalid int value: 'abc'"),
        (["--profile", "huge"], "argument --profile: invalid choice: 'huge'"),
        (["--feature-dim", "8"], "unrecognized arguments: --feature-dim 8"),
    ], ids=["unknown_flag", "bad_int", "bad_choice", "feature_dim_flag"])
    def test_unknown_flag_rejected(self, data_dir, tmp_path, capsys, args, message):
        out = tmp_path / "o"
        assert main(["train", "--dataset", str(data_dir), "--out", str(out), *args]) == 2
        assert_one_error_line(capsys.readouterr().err, message)
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--epochs", "x" * 100_000], f"invalid int value: '{'x' * 32}...'"),
        (["--profile", '"' * 100_000], f"""invalid choice: '{'"' * 32}...' (choose from"""),
        (["--frobnicate", "y" * 100_000], f"unrecognized arguments: --frobnicate {'y' * 19}..."),
    ], ids=["bad_int", "bad_choice", "unknown_flag"])
    def test_long_value_is_cut_in_a_usage_error(self, data_dir, tmp_path, capsys, args,
                                                message):
        # argparse repeats a refused value whole; the error line keeps 32 characters
        out = tmp_path / "o"
        assert main(["train", "--dataset", str(data_dir), "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, message)
        assert len(err) < 200, len(err)
        assert not out.exists()

    def test_long_mask_refused_before_its_windows_are_listed(self, data_dir, tmp_path,
                                                            capsys, monkeypatch):
        def never(mask):
            raise AssertionError("windows listed")

        monkeypatch.setattr(BranchMask, "windows", never)
        out = tmp_path / "o"
        assert main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--pyramid-mask", "1" * 100_000]) == 2
        assert_one_error_line(capsys.readouterr().err,
                              "feature map height 12 not divisible by part count 100000")
        assert not out.exists()

    def test_bad_mask_exits_2(self, data_dir, tmp_path, capsys):
        code = main(["train", "--dataset", str(data_dir),
                     "--out", str(tmp_path / "o"), "--pyramid-mask", "222222"])
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "0", "epochs must be positive, got 0"),
        ("--epochs", "-1", "epochs must be positive, got -1"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
    ], ids=["zero_epochs", "negative_epochs", "negative_seed"])
    def test_size_out_of_range_exits_2(self, data_dir, tmp_path, capsys, flag, value,
                                       message):
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out), flag, value])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, message)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("margin", "nan"), ("margin", "inf"), ("margin", "0"), ("base_lr", "-0.01"),
        ("base_lr", "nan"), ("base_lr", "inf"),
    ])
    def test_config_value_out_of_range_exits_2(self, data_dir, tmp_path, capsys, key,
                                               value):
        config = tmp_path / "run.ini"
        config.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--config", str(config)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"{key} must be finite and positive, got {float(value)}")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["pk_with_replacement", "triplet_in_id_phase",
                                     "classifier_bias", "squared_distance",
                                     "l2_normalize_eval", "in_channels", "n",
                                     "batch_size", "no_triplet_alternating",
                                     "backbone_stages", "alpha", "gamma", "switch_ratio",
                                     "momentum", "weight_decay"])
    def test_removed_config_key_exits_2(self, data_dir, tmp_path, capsys, key):
        config = tmp_path / "run.ini"
        config.write_text(f"seed = 1\n{key} = 1\n")
        code = main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "o"),
                     "--config", str(config)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"{config}:2: unknown config key {key!r}")

    def test_feature_dim_too_large_to_allocate_exits_2(self, data_dir, tmp_path, capsys):
        # 10**12 columns ask numpy for hundreds of TiB, which it refuses at once
        config = tmp_path / "run.ini"
        config.write_text("feature_dim = 1000000000000\n")
        out = tmp_path / "o"
        assert main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--config", str(config)]) == 2
        assert_one_error_line(capsys.readouterr().err,
                              "feature_dim 1000000000000 is too large to allocate")
        assert not out.exists()

    def test_part_count_and_batch_follow_mask_and_pk(self, data_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--pyramid-mask", "1111", "--epochs", "1"]) == 0
        keys = [line.split(" = ")[0]
                for line in (out / "resolved_config.ini").read_text().splitlines()]
        assert "pyramid_mask" in keys and "n" not in keys and "batch_size" not in keys

    def test_mask_not_fitting_images_exits_2(self, data_dir, tmp_path, capsys):
        # 48-pixel images give a 12-row feature map, which five parts do not divide
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--pyramid-mask", "11111"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err,
                              "feature map height 12 not divisible by part count 5")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0, 5", "-3"])
    def test_halving_before_epoch_one_exits_2(self, data_dir, tmp_path, capsys, value):
        config = tmp_path / "run.ini"
        config.write_text(f"lr_halving_epochs = {value}\n")
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--config", str(config)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "lr_halving_epochs entries must be >= 1")
        assert not out.exists()

    def test_bad_config_value_names_line_and_key(self, data_dir, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("seed = 1\nepochs =\n")
        code = main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "o"),
                     "--config", str(config)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, f"{config}:2: bad value for epochs")

    def test_repeated_config_key_exits_2(self, data_dir, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("margin = 1.0\nseed = 1\nmargin = 2.0\n")
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--config", str(config)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"{config}:3: config key 'margin' repeated (first set on line 1)")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["sum", "maybe", "Dynamic", ""])
    def test_unknown_loss_policy_exits_2(self, data_dir, tmp_path, capsys, value):
        config = tmp_path / "run.ini"
        config.write_text(f"loss_policy = {value}\n")
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--config", str(config)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "loss_policy must be one of dynamic, "
                                                       f"no_triplet, got {value!r}")
        assert not out.exists()

    def test_no_triplet_flag_is_the_loss_policy_key(self, data_dir, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("loss_policy = no_triplet\n")
        common = ["train", "--dataset", str(data_dir), "--epochs", "2", "--seed", "2"]
        assert main(common + ["--out", str(tmp_path / "flag"), "--no-triplet"]) == 0
        assert main(common + ["--out", str(tmp_path / "file"), "--config", str(config)]) == 0
        for name in ("trace.csv", "checkpoint.pyrt", "metrics.csv"):
            assert (tmp_path / "flag" / name).read_bytes() == \
                (tmp_path / "file" / name).read_bytes(), name
        phases = [row["phase"] for row in csv.DictReader(open(tmp_path / "flag" / "trace.csv"))]
        assert phases[:4] == ["id_only", "combined", "id_only", "combined"]

    def test_infeasible_pk_sampler_exits_2_without_output(self, tmp_path, capsys):
        # 8 identities x 4 images leave no train identity with the paper's K = 8
        data, out = tmp_path / "d", tmp_path / "o"
        assert main(["gen-data", "--out", str(data), "--num-ids", "8",
                     "--imgs-per-id", "4"]) == 0
        capsys.readouterr()
        code = main(["train", "--dataset", str(data), "--out", str(out),
                     "--profile", "paper", "--epochs", "40"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err,
                              "pk_batches: only 0 identities have >= 8 images, need P=8")
        assert not out.exists()
        code = main(["ablate", "--dataset", str(data), "--out", str(out), "--profile",
                     "paper", "--masks", "000001", "--seeds", "0", "--epochs", "40"])
        assert code == 0
        rows = list(csv.DictReader(open(out / "ablation.csv")))
        assert len(rows) == 1
        assert rows[0]["status"].startswith("error: pk_batches: only 0 identities have >= 8")
        assert sorted(p.name for p in out.iterdir()) == ["ablation.csv"]


def assert_one_error_line(err: str, *fragments: str) -> None:
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, err


class TestMalformedInputs:
    """Broken checkpoints and dataset directories end in exit 2 with one
    `error:` line that names the fault."""

    def eval_with(self, checkpoint, dataset):
        return main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset)])

    def test_checkpoint_is_a_directory(self, data_dir, tmp_path, capsys):
        assert self.eval_with(tmp_path, data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, "Is a directory", str(tmp_path))

    def test_dataset_is_a_file(self, data_dir, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(data_dir / "manifest.csv"), "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "Not a directory", str(data_dir))
        assert not out.exists()

    def test_config_is_a_directory(self, data_dir, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--config", str(tmp_path)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "Is a directory", str(tmp_path))
        assert not out.exists()

    @pytest.mark.parametrize("prefix", ["param/", "buffer/", "param/head.classifier.weight",
                                        "meta/config"])
    def test_checkpoint_missing_entry(self, data_dir, trained_dir, tmp_path, capsys, prefix):
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        key = next(k for k in entries if k.startswith(prefix))
        del entries[key]
        save_tensors(tmp_path / "ck.pyrt", entries)
        assert self.eval_with(tmp_path / "ck.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, repr(key))

    def test_checkpoint_misshapen_param(self, data_dir, trained_dir, tmp_path, capsys):
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        key = next(k for k in entries if k.startswith("param/"))
        entries[key] = entries[key][:1]
        save_tensors(tmp_path / "ck.pyrt", entries)
        assert self.eval_with(tmp_path / "ck.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, repr(key), "shape")

    @pytest.mark.parametrize("key, value, message", [
        ("meta/image_h", np.array(np.inf, dtype="<f8"), "is not an integer"),
        ("meta/image_w", np.array(-16, dtype="<i8"), "must be positive"),
    ], ids=["float_infinity", "negative_width"])
    def test_checkpoint_forged_meta_integer(self, data_dir, trained_dir, tmp_path, capsys,
                                            key, value, message):
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        entries[key] = value
        save_tensors(tmp_path / "ck.pyrt", entries)
        assert self.eval_with(tmp_path / "ck.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, repr(key), message)

    # ReLU maps a NaN weight to 0, so evaluation alone would not notice one
    @pytest.mark.parametrize("key, value", [("param/head.reduce.weight", np.nan),
                                            ("param/head.reduce.weight", np.inf),
                                            ("buffer/head.bn.running_var", -np.inf)],
                             ids=["nan_param", "inf_param", "inf_buffer"])
    def test_checkpoint_non_finite_entry(self, data_dir, trained_dir, tmp_path, capsys, key,
                                         value):
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        entries[key] = entries[key].copy()
        entries[key].flat[5] = value
        save_tensors(tmp_path / "ck.pyrt", entries)
        assert self.eval_with(tmp_path / "ck.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, f"checkpoint entry {key!r} holds a "
                                                       f"non-finite value")

    # a zero-byte entry of shape (0, 16, 10**9) claims a billion identities: its
    # shape is refused before a model of that size is allocated
    @pytest.mark.parametrize("shape", [(21, 16, 0), (), (0, 16, 10**9)],
                             ids=["no_identities", "scalar", "huge_identity_count"])
    def test_checkpoint_classifier_without_identities(self, data_dir, trained_dir, tmp_path,
                                                      capsys, shape):
        # the classifier's last axis is the identity count
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        entries["param/head.classifier.weight"] = np.zeros(shape, dtype="<f4")
        save_tensors(tmp_path / "ck.pyrt", entries)
        assert self.eval_with(tmp_path / "ck.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, "'param/head.classifier.weight'",
                              f"has shape {shape}, expected (21, 16, identities >= 1)")

    # version 1 stored one config/<field> entry per field, version 2 one entry
    # per branch and kind, version 3 all 21 branches' head rows whatever the
    # mask, version 4 six config keys that no longer exist, version 5 the
    # config keys n and batch_size, version 6 the config key checkpoint_every,
    # version 7 the config key no_triplet_alternating, version 8 the config
    # key backbone_stages, and version 9 the config keys alpha, gamma,
    # switch_ratio, momentum and weight_decay
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_old_version_checkpoint_refused(self, data_dir, trained_dir, tmp_path, capsys,
                                            version):
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        entries["meta/version"] = np.array(version, dtype="<i8")
        save_tensors(tmp_path / "old.pyrt", entries)
        assert self.eval_with(tmp_path / "old.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"checkpoint version {version} not supported (expected 10)")

    def test_checkpoint_config_with_repeated_key(self, data_dir, trained_dir, tmp_path,
                                                 capsys):
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        text = entries["meta/config"].astype(np.uint8).tobytes().decode() + "margin = 2.0\n"
        entries["meta/config"] = np.frombuffer(text.encode(), dtype=np.uint8).astype("<i8")
        save_tensors(tmp_path / "ck.pyrt", entries)
        assert self.eval_with(tmp_path / "ck.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err,
                              "checkpoint meta/config:11: config key 'margin' repeated "
                              "(first set on line 2)")

    def test_checkpoint_config_with_a_huge_mask(self, data_dir, trained_dir, tmp_path,
                                                capsys, monkeypatch):
        # 100,000 parts have 5,000,050,000 branches, which are counted, never listed
        def never(mask):
            raise AssertionError("windows listed")

        monkeypatch.setattr(BranchMask, "windows", never)
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        text = entries["meta/config"].astype(np.uint8).tobytes().decode()
        assert "pyramid_mask = 111111\n" in text
        text = text.replace("pyramid_mask = 111111", "pyramid_mask = " + "1" * 100_000)
        entries["meta/config"] = np.frombuffer(text.encode(), dtype=np.uint8).astype("<i8")
        save_tensors(tmp_path / "ck.pyrt", entries)
        assert self.eval_with(tmp_path / "ck.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, "'param/head.classifier.weight'",
                              "expected (5000050000, 16, identities >= 1)")

    @pytest.mark.parametrize("edit, message", [
        (lambda images: images[:, :, :-1],
         lambda bad, good: f"images are {bad.shape[1:]}, train.pyrt's are {good.shape[1:]}"),
        (lambda images: images.astype(np.int64),
         lambda bad, good: f"images are int64 of shape {bad.shape}, expected float32 of "
                           f"shape (n, H, W, 3)"),
    ], ids=["misshapen", "int64"])
    def test_dataset_image_entry(self, data_dir, trained_dir, tmp_path, capsys, edit,
                                 message):
        # the gallery's images are replaced; the train split's fix the shape
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        images = load_tensors(broken / "gallery.pyrt")["images"]
        bad = edit(images)
        save_tensors(broken / "gallery.pyrt", {"images": bad})
        assert self.eval_with(trained_dir / "checkpoint.pyrt", broken) == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"gallery.pyrt: {message(bad, images)}")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_dataset_non_finite_pixel(self, data_dir, trained_dir, tmp_path, capsys, value):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        images = load_tensors(broken / "query.pyrt")["images"].copy()
        images[3, 10, 5, 1] = value
        save_tensors(broken / "query.pyrt", {"images": images})
        assert self.eval_with(trained_dir / "checkpoint.pyrt", broken) == 2
        assert_one_error_line(capsys.readouterr().err,
                              "query.pyrt: image 3 holds a non-finite pixel")

    def test_container_and_manifest_row_counts_differ(self, data_dir, trained_dir, tmp_path,
                                                      capsys):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        images = load_tensors(broken / "query.pyrt")["images"]
        save_tensors(broken / "query.pyrt", {"images": images[:-1]})
        assert self.eval_with(trained_dir / "checkpoint.pyrt", broken) == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"query.pyrt holds {len(images) - 1} images, manifest.csv "
                              f"lists {len(images)} query rows")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_per_image_dataset_refused(self, data_dir, trained_dir, tmp_path, capsys,
                                       command):
        # the earlier format: one channels-first (3, H, W) entry per image,
        # named as its manifest row
        old = tmp_path / "old"
        shutil.copytree(data_dir, old)
        rows = list(csv.reader((old / "manifest.csv").read_text().splitlines()))[1:]
        for split in ("train", "query", "gallery"):
            images = load_tensors(old / f"{split}.pyrt")["images"]
            names = [row[0] for row in rows if row[3] == split]
            save_tensors(old / f"{split}.pyrt",
                         {name: image.transpose(2, 0, 1) for name, image in zip(names, images)})
        out = tmp_path / "o"
        args = (["train", "--dataset", str(old), "--out", str(out), "--epochs", "1"]
                if command == "train" else
                ["eval", "--checkpoint", str(trained_dir / "checkpoint.pyrt"),
                 "--dataset", str(old)])
        assert main(args) == 2
        train_rows = sum(row[3] == "train" for row in rows)
        assert_one_error_line(capsys.readouterr().err,
                              f"train.pyrt holds {train_rows} entries, not one 'images' tensor",
                              "regenerate it with gen-data")
        assert not out.exists()

    def broken_dataset(self, data_dir, tmp_path, line: int, edit) -> Path:
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        lines = (broken / "manifest.csv").read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        (broken / "manifest.csv").write_text("\n".join(lines) + "\n")
        return broken

    @pytest.mark.parametrize("line, edit, message", [
        (2, lambda row: ["img_99999"] + row[1:],
         "image 'img_99999' is out of place, expected 'img_00000'"),
        (3, lambda row: row[:3] + ["bogus"] + row[4:], "unknown split 'bogus'"),
        (4, lambda row: row[:3], "expected 10 fields, got 3"),
        (5, lambda row: row[:1] + ["x"] + row[2:], "identity 'x' is not an integer"),
        (6, lambda row: row[:5] + ["1.5.0"] + row[6:], "scale '1.5.0' is not a number"),
    ], ids=["unknown_image", "unknown_split", "short_row", "bad_number", "bad_scale"])
    def test_manifest_row(self, data_dir, trained_dir, tmp_path, capsys, line, edit, message):
        broken = self.broken_dataset(data_dir, tmp_path, line, edit)
        assert self.eval_with(trained_dir / "checkpoint.pyrt", broken) == 2
        assert_one_error_line(capsys.readouterr().err, f"manifest.csv:{line}: {message}")

    @pytest.mark.parametrize("column, value", [("identity", 10 ** 20),
                                               ("camera", -2 ** 63 - 1), ("occ_x", 2 ** 63)])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_integer_outside_int64(self, data_dir, trained_dir, tmp_path, capsys,
                                            command, column, value):
        i = MANIFEST_COLUMNS.index(column)
        broken = self.broken_dataset(data_dir, tmp_path, 3,
                                     lambda row: row[:i] + [str(value)] + row[i + 1:])
        out = tmp_path / "o"
        args = (["train", "--dataset", str(broken), "--out", str(out), "--epochs", "1"]
                if command == "train" else
                ["eval", "--checkpoint", str(trained_dir / "checkpoint.pyrt"),
                 "--dataset", str(broken), "--out", str(out)])
        assert main(args) == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"manifest.csv:3: {column} {value} does not fit in int64")
        assert not out.exists()

    OVER_CSV_LIMIT = "9" * 200_000  # csv refuses a field over 131,072 characters

    @pytest.mark.parametrize("line, column, value, head, message", [
        (3, "identity", "9" * 5000, "identity ", "does not fit in int64"),  # over int()'s limit
        (3, "identity", "9" * 4000, "identity ", "does not fit in int64"),
        (3, "offset", "x" * 100_001, "offset ", "is not a number"),
        (3, "identity", OVER_CSV_LIMIT, "field larger than field limit", ""),
        (1, "identity", OVER_CSV_LIMIT, "field larger than field limit", ""),
    ], ids=["5000_digits", "4000_digits", "long_offset", "row_over_csv_limit",
            "header_over_csv_limit"])
    def test_long_manifest_field_gives_a_short_error(self, data_dir, trained_dir, tmp_path,
                                                     capsys, line, column, value, head,
                                                     message):
        i = MANIFEST_COLUMNS.index(column)
        broken = self.broken_dataset(data_dir, tmp_path, line,
                                     lambda row: row[:i] + [value] + row[i + 1:])
        assert self.eval_with(trained_dir / "checkpoint.pyrt", broken) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, f"manifest.csv:{line}: {head}", message)
        assert len(err.encode()) < 200, len(err)

    LONG = "x" * 100_000
    CONFIG_LINES = {"config_line": LONG, "config_key": f"{LONG} = 1",
                    "margin": f"margin = {LONG}", "loss_policy": f"loss_policy = {LONG}",
                    "halving_epochs": "lr_halving_epochs = " + ",".join(["2"] * 50_000),
                    "seed": "seed = -" + "9" * 4000}

    @pytest.mark.parametrize("case", ["manifest_header", *CONFIG_LINES, "trace_field",
                                      "eval_mask", "eval_sub_mask", "ablate_seeds"])
    def test_long_input_gives_a_short_error(self, data_dir, trained_dir, tmp_path, capsys,
                                            case):
        """Every command repeats at most 32 characters of an input it refuses."""
        long, out = self.LONG, tmp_path / "o"
        checkpoint = str(trained_dir / "checkpoint.pyrt")
        if case in self.CONFIG_LINES:
            (tmp_path / "run.ini").write_text(self.CONFIG_LINES[case] + "\n")
            args = ["train", "--dataset", str(data_dir), "--out", str(out),
                    "--config", str(tmp_path / "run.ini")]
        elif case == "manifest_header":
            broken = self.broken_dataset(data_dir, tmp_path, 1,
                                         lambda row: row[:-1] + [row[-1] + long])
            args = ["eval", "--checkpoint", checkpoint, "--dataset", str(broken)]
        elif case == "trace_field":
            (tmp_path / "trace.csv").write_text(
                "tau,phase,L_id,L_tp,k_id,k_tp,p_id,p_tp,FL_id,FL_tp,lr\n"
                f"1,id_only,{long}" + ",1.0" * 8 + "\n")
            args = ["export-curves", "--trace", str(tmp_path / "trace.csv"), "--out", str(out)]
        elif case.startswith("eval"):
            mask = "1" * 100_000 if case == "eval_sub_mask" else long
            args = ["eval", "--checkpoint", checkpoint, "--dataset", str(data_dir),
                    "--mask", mask, "--out", str(out)]
        else:
            args = ["ablate", "--dataset", str(data_dir), "--out", str(out),
                    "--masks", "000001", "--seeds", f"0,{long}"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert len(err.encode()) < 200, err[:300]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_query_without_a_true_match(self, data_dir, trained_dir, tmp_path, capsys,
                                        command):
        # the first query row takes an identity that no gallery row holds
        rows = (data_dir / "manifest.csv").read_text().splitlines()
        line = next(i for i, row in enumerate(rows, start=1) if row.split(",")[3] == "query")
        broken = self.broken_dataset(data_dir, tmp_path, line,
                                     lambda row: row[:1] + ["999"] + row[2:])
        camera = rows[line - 1].split(",")[2]
        message = f"query 0 (identity 999, camera {camera}) has no true match in the gallery"
        out = tmp_path / "o"
        args = {"train": ["train", "--dataset", str(broken), "--out", str(out), "--epochs", "1"],
                "eval": ["eval", "--checkpoint", str(trained_dir / "checkpoint.pyrt"),
                         "--dataset", str(broken)],
                "ablate": ["ablate", "--dataset", str(broken), "--out", str(out), "--masks",
                           "000001,111111", "--seeds", "0", "--epochs", "1"]}[command]
        code = main(args)
        if command == "ablate":  # an error row per run, and no run directory
            assert code == 0
            statuses = [r["status"] for r in csv.DictReader(open(out / "ablation.csv"))]
            assert statuses == [f"error: {message}"] * 2
            assert sorted(p.name for p in out.iterdir()) == ["ablation.csv"]
        else:
            assert code == 2
            assert_one_error_line(capsys.readouterr().err, message)
            assert not out.exists()


class TestDatasetFuzz:
    """One edited field of a tiny dataset's manifest, or one edited byte of a
    split container: `train --epochs 1` and `eval` exit 0, 2 or 3, stderr is
    empty or one `error:` line, and a refused `train` writes nothing."""

    ROWS = 8 * 6  # gen-data --num-ids 8 --imgs-per-id 6
    FIELD = st.one_of(st.sampled_from(["", "x", "-1", "0", "1", "2", "7", "999", "1.5", "-0.0",
                                       "nan", "inf", "1e999", str(10 ** 20), str(2 ** 63),
                                       "train", "query", "gallery", "img_00000"]),
                      st.text(max_size=3))

    @pytest.fixture(scope="class")
    def tiny(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz")
        assert main(["gen-data", "--out", str(base / "data"), "--num-ids", "8",
                     "--imgs-per-id", "6", "--seed", "1"]) == 0
        assert main(["train", "--dataset", str(base / "data"), "--out", str(base / "run"),
                     "--epochs", "1"]) == 0
        return base / "data", base / "run" / "checkpoint.pyrt"

    def copy(self, tiny, tmp_path) -> Path:
        work = tmp_path / "data"
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        shutil.copytree(tiny[0], work)
        return work

    def check(self, tiny, data, tmp_path, capsys):
        out = tmp_path / "out"
        capsys.readouterr()
        for args in (["train", "--dataset", str(data), "--out", str(out), "--epochs", "1"],
                     ["eval", "--checkpoint", str(tiny[1]), "--dataset", str(data)]):
            code = main(args)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (args[0], code, err)
            if code == 0:
                assert err == ""
            else:
                assert_one_error_line(err)
            if args[0] == "train" and code == 2:
                assert not out.exists(), err

    @given(line=st.integers(2, ROWS + 1), column=st.integers(0, len(MANIFEST_COLUMNS) - 1),
           value=FIELD)
    @settings(derandomize=True, deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_manifest_field(self, tiny, tmp_path, capsys, line, column, value):
        data = self.copy(tiny, tmp_path)
        lines = (data / "manifest.csv").read_text().splitlines()
        row = lines[line - 1].split(",")
        row[column] = value
        lines[line - 1] = ",".join(row)
        (data / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.check(tiny, data, tmp_path, capsys)

    @given(split=st.sampled_from(["train", "query", "gallery"]),
           where=st.one_of(st.integers(0, 63), st.integers(0, 2 ** 20)),
           value=st.integers(0, 255))
    @settings(derandomize=True, deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_container_byte(self, tiny, tmp_path, capsys, split, where, value):
        # the header is the first few dozen bytes; the rest are pixels
        data = self.copy(tiny, tmp_path)
        raw = bytearray((data / f"{split}.pyrt").read_bytes())
        raw[where % len(raw)] = value
        (data / f"{split}.pyrt").write_bytes(bytes(raw))
        self.check(tiny, data, tmp_path, capsys)


class TestEval:
    def test_eval_prints_table(self, data_dir, trained_dir, capsys):
        code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.pyrt"),
                     "--dataset", str(data_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mAP" in out and "rank1" in out

    def test_eval_with_mask_override(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "ev"
        code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.pyrt"),
                     "--dataset", str(data_dir), "--mask", "000001",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        assert len(rows) == 1 and rows[0]["mask"] == "000001"
        assert 0.0 < float(rows[0]["mAP"]) <= 1.0

    def test_mask_with_an_untrained_level_exits_2(self, data_dir, tmp_path, capsys):
        run = tmp_path / "r101001"
        assert main(["train", "--dataset", str(data_dir), "--out", str(run), "--seed", "7",
                     "--epochs", "1", "--pyramid-mask", "101001"]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(run / "checkpoint.pyrt"),
                     "--dataset", str(data_dir), "--mask", "111111"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "111111", "101001")


class TestAblate:
    def test_sweep_rows_and_means(self, data_dir, tmp_path):
        out = tmp_path / "ab"
        code = main(["ablate", "--dataset", str(data_dir), "--out", str(out),
                     "--masks", "111111,000001", "--seeds", "0,1",
                     "--epochs", "2"])
        assert code == 0
        rows = list(csv.DictReader(open(out / "ablation.csv")))
        assert len(rows) == 2 * 2 + 2  # per-run rows plus one mean row per mask
        masks = [r["mask"] for r in rows]
        assert masks.count("111111") == 3 and masks.count("000001") == 3
        mean_rows = [r for r in rows if r["seed"] == "mean"]
        assert len(mean_rows) == 2
        for mask in ("111111", "000001"):
            per_seed = [float(r["mAP"]) for r in rows
                        if r["mask"] == mask and r["seed"] in ("0", "1")]
            mean_row = next(r for r in mean_rows if r["mask"] == mask)
            assert float(mean_row["mAP"]) == pytest.approx(np.mean(per_seed))

    def test_failed_subrun_recorded_not_fatal(self, data_dir, tmp_path):
        out = tmp_path / "ab2"
        code = main(["ablate", "--dataset", str(data_dir), "--out", str(out),
                     "--masks", "111111,21", "--seeds", "0", "--epochs", "1"])
        assert code == 0
        rows = list(csv.DictReader(open(out / "ablation.csv")))
        statuses = {r["mask"]: r["status"] for r in rows if r["seed"] == "0"}
        assert statuses["111111"] == "ok"
        assert statuses["21"].startswith("error:")

    def test_feature_dim_too_large_is_an_error_row(self, data_dir, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("feature_dim = 1000000000000\n")
        out = tmp_path / "ab"
        assert main(["ablate", "--dataset", str(data_dir), "--out", str(out), "--config",
                     str(config), "--masks", "000001", "--seeds", "0,1"]) == 0
        statuses = [r["status"] for r in csv.DictReader(open(out / "ablation.csv"))]
        assert statuses == ["error: feature_dim 1000000000000 is too large to allocate"] * 2
        assert [p.name for p in out.iterdir()] == ["ablation.csv"]

    def test_refused_mask_leaves_no_run_directory(self, data_dir, tmp_path):
        # five parts do not divide the 12-row feature map of 48-pixel images
        out = tmp_path / "ab"
        assert main(["ablate", "--dataset", str(data_dir), "--out", str(out),
                     "--masks", "000001,11111", "--seeds", "1", "--epochs", "1"]) == 0
        statuses = {r["mask"]: r["status"] for r in csv.DictReader(open(out / "ablation.csv"))
                    if r["seed"] == "1"}
        assert statuses["000001"] == "ok"
        assert statuses["11111"].startswith("error: feature map height 12 not divisible")
        assert sorted(p.name for p in out.iterdir()) == ["ablation.csv", "mask_000001_seed_1"]
        run = out / "mask_000001_seed_1"
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint.pyrt",
                                                         "resolved_config.ini", "trace.csv"]
        # the stored config replays the run through train
        assert main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "tr"),
                     "--config", str(run / "resolved_config.ini")]) == 0
        assert (tmp_path / "tr" / "trace.csv").read_bytes() == (run / "trace.csv").read_bytes()

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--pyramid-mask", "111"]])
    def test_seed_and_mask_flags_refused(self, data_dir, tmp_path, capsys, flag):
        # the sweep sets both keys, so the flags would be silently overridden
        out = tmp_path / "ab"
        assert main(["ablate", "--dataset", str(data_dir), "--out", str(out), "--masks",
                     "000001", "--seeds", "1", *flag, "--epochs", "1"]) == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"unrecognized arguments: {' '.join(flag)}")
        assert not out.exists()

    @pytest.mark.parametrize("seeds, item", [("a", "'a'"), ("0,1.5", "'1.5'")])
    def test_non_integer_seed_exits_2(self, data_dir, tmp_path, capsys, seeds, item):
        out = tmp_path / "ab"
        code = main(["ablate", "--dataset", str(data_dir), "--out", str(out),
                     "--masks", "000001", "--seeds", seeds])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "--seeds", item)
        assert not out.exists()

    def test_metrics_match_train(self, data_dir, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("margin = 1.2\n")
        common = ["--dataset", str(data_dir), "--config", str(config), "--epochs", "2"]
        assert main(["train", "--out", str(tmp_path / "tr"), "--seed", "3",
                     "--pyramid-mask", "000001"] + common) == 0
        assert main(["ablate", "--out", str(tmp_path / "ab"), "--masks", "000001",
                     "--seeds", "3"] + common) == 0
        trained = next(csv.DictReader(open(tmp_path / "tr" / "metrics.csv")))
        ablated = next(r for r in csv.DictReader(open(tmp_path / "ab" / "ablation.csv"))
                       if r["seed"] == "3")
        keys = ("mAP", "rank1", "rank5", "rank10")
        assert [ablated[k] for k in keys] == [trained[k] for k in keys]

    def test_programming_error_propagates(self, data_dir, tmp_path, monkeypatch):
        import pyreid.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("bug in the training loop")

        monkeypatch.setattr(cli, "train", broken)
        with pytest.raises(RuntimeError, match="bug in the training loop"):
            main(["ablate", "--dataset", str(data_dir), "--out", str(tmp_path / "ab"),
                  "--masks", "111111", "--seeds", "0", "--epochs", "1"])


class TestExportCurves:
    def test_exports_charts_and_tidy_csv(self, trained_dir, tmp_path):
        out = tmp_path / "curves"
        code = main(["export-curves", "--trace", str(trained_dir / "trace.csv"),
                     "--out", str(out)])
        assert code == 0
        for name in ("losses.png", "prob.png", "focal.png", "phase.png", "lr.png"):
            blob = (out / name).read_bytes()
            assert blob[:8] == b"\x89PNG\r\n\x1a\n", name
        rows = list(csv.DictReader(open(out / "tidy.csv")))
        trace_rows = open(trained_dir / "trace.csv").read().splitlines()[1:]
        quantities = 10  # 9 numeric columns + phase
        assert len(rows) == len(trace_rows) * quantities

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("tau,phase,L_id,L_tp,k_id,k_tp,p_id,p_tp,FL_id,FL_tp,lr\n")
        assert main(["export-curves", "--trace", str(trace),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_row_exits_2_with_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("tau,phase,L_id,L_tp,k_id,k_tp,p_id,p_tp,FL_id,FL_tp,lr\n"
                         "1,id_only,1.0\n")
        assert main(["export-curves", "--trace", str(trace),
                     "--out", str(tmp_path / "o")]) == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("phase", ["idonly", "", "Combined"])
    def test_unknown_phase_exits_2_with_line(self, tmp_path, capsys, phase):
        trace = tmp_path / "bad.csv"
        values = ",".join(["1.0"] * 9)
        trace.write_text(f"tau,phase,L_id,L_tp,k_id,k_tp,p_id,p_tp,FL_id,FL_tp,lr\n"
                         f"0,id_only,{values}\n1,{phase},{values}\n")
        out = tmp_path / "o"
        assert main(["export-curves", "--trace", str(trace), "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr().err, f"{trace}:3: bad phase {phase!r}")
        assert not out.exists()


class TestExportCurvesFuzz:
    """Any text in a trace file is exported or refused with one `error:` line."""

    HEADER = "tau,phase,L_id,L_tp,k_id,k_tp,p_id,p_tp,FL_id,FL_tp,lr"
    NUMBER = st.sampled_from(["", "0", "-3", "2.5", "1e308", "-1e308", "5e-324", "inf",
                              "-inf", "nan", "1e999", "9" * 400])
    # mostly well-formed rows, so that the charts see extreme values
    ROW = st.tuples(NUMBER, st.sampled_from(["id_only", "combined", ""]),
                    st.lists(NUMBER, min_size=9, max_size=9)
                    ).map(lambda row: [row[0], row[1], *row[2]])

    def check(self, text, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main(["export-curves", "--trace", str(trace), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 2
            assert_one_error_line(err)

    @given(text=st.text())
    @settings(derandomize=True, deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_text(self, text, tmp_path, capsys):
        self.check(text, tmp_path, capsys)

    @given(rows=st.lists(st.one_of(ROW, st.lists(st.text(max_size=4), max_size=12)),
                         min_size=1, max_size=4))
    @settings(derandomize=True, deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rows_after_a_valid_header(self, rows, tmp_path, capsys):
        body = "\n".join(",".join(row) for row in rows)
        self.check(f"{self.HEADER}\n{body}\n", tmp_path, capsys)


class TestExitCodes:
    def test_divergence_maps_to_exit_3(self, data_dir, tmp_path, monkeypatch):
        import pyreid.cli as cli
        from pyreid.errors import TrainingDiverged

        def boom(*args, **kwargs):
            raise TrainingDiverged("non-finite loss at iteration 5")

        monkeypatch.setattr(cli, "train", boom)
        code = main(["train", "--dataset", str(data_dir),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("debug, fragments", [
        ("0", ["training diverged: non-finite "]),
        ("1", ["training diverged: conv_bn_relu: non-finite values in output at iteration "]),
    ], ids=["plain", "debug"])
    def test_divergence_exits_3_with_one_error_line(self, monkeypatch, tmp_path, capsys,
                                                     debug, fragments):
        import pyreid.autograd as autograd
        monkeypatch.setattr(autograd, "debug_checks", False)  # restored after the test
        monkeypatch.setenv("PYREID_DEBUG", debug)
        data, config = tmp_path / "d", tmp_path / "run.ini"
        assert main(["gen-data", "--out", str(data), "--num-ids", "8",
                     "--imgs-per-id", "6"]) == 0
        config.write_text("base_lr = 1e30\n")
        capsys.readouterr()
        code = main(["train", "--dataset", str(data), "--out", str(tmp_path / "o"),
                     "--config", str(config), "--epochs", "3"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, *fragments)

    def test_overflowing_batch_norm_statistic_exits_3(self, data_dir, tmp_path, capsys):
        # one train pixel of 1e20: the batch-normalized losses stay finite,
        # but the first block's float32 running variance overflows
        data = tmp_path / "d"
        shutil.copytree(data_dir, data)
        images = load_tensors(data / "train.pyrt")["images"].copy()
        images[1, 5, 5, 0] = 1e20
        save_tensors(data / "train.pyrt", {"images": images})
        code = main(["train", "--dataset", str(data), "--out", str(tmp_path / "o"),
                     "--epochs", "1"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err,
                              "training diverged: batch-norm statistic "
                              "'backbone.block0.bn.running_var' is non-finite after iteration ")

    def test_debug_env_enables_finiteness_checks(self, monkeypatch, tmp_path,
                                                 capsys):
        import pyreid.autograd as autograd
        monkeypatch.setenv("PYREID_DEBUG", "1")
        try:
            code = main(["gen-data", "--out", str(tmp_path / "d"),
                         "--num-ids", "4", "--imgs-per-id", "4"])
            assert code == 0
            assert autograd.debug_checks
        finally:
            autograd.debug_checks = False


class TestChartRenderer:
    def test_png_is_decodable(self, tmp_path):
        img = line_chart([("a", [0, 1, 2, 3], [0.0, 1.0, 0.5, 2.0])],
                         width=120, height=80)
        assert img.shape == (80, 120, 3)
        path = tmp_path / "c.png"
        write_png(path, img)
        blob = path.read_bytes()
        # IDAT payload inflates back to H rows of 1 filter byte + W*3 pixels
        start = blob.index(b"IDAT") + 4
        size = int.from_bytes(blob[start - 8:start - 4], "big")
        raw = zlib.decompress(blob[start:start + size])
        assert len(raw) == 80 * (1 + 120 * 3)

    def test_nan_values_break_the_line(self):
        img = line_chart([("a", [0, 1, 2], [1.0, float("nan"), 2.0])])
        assert img.shape == (400, 640, 3)

    def test_extreme_finite_values(self):
        # the value range overflows a float; the points still land on the canvas
        img = line_chart([("a", [0, 2 ** 52], [1e308, -1e308])], width=60, height=40)
        assert img.shape == (40, 60, 3)

    def test_flat_series(self):
        img = line_chart([("a", [3, 3], [2.0, 2.0])], width=60, height=40)
        assert (img == np.array(PALETTE[0], dtype=np.uint8)).all(axis=2).any()

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            line_chart([])
