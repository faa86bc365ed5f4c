import csv
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pyreid.chart import PALETTE, line_chart, write_png
from pyreid.cli import main
from pyreid.container import load_tensors, save_tensors


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


class TestTrain:
    def test_outputs(self, trained_dir):
        for name in ("checkpoint.pyrt", "trace.csv", "metrics.csv",
                     "resolved_config.ini", "run_info.txt"):
            assert (trained_dir / name).exists()

    def test_run_info_records_environment(self, trained_dir):
        lines = (trained_dir / "run_info.txt").read_text().splitlines()
        info = dict(line.split(" = ", 1) for line in lines)
        for key in ("started_unix", "duration_s", "numpy_version", "blas",
                    "openblas_num_threads", "cpu_count"):
            assert info.get(key), key
        assert info["numpy_version"] == np.__version__

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

    def test_unknown_flag_rejected(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "o"),
                  "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_bad_mask_exits_2(self, data_dir, tmp_path, capsys):
        code = main(["train", "--dataset", str(data_dir),
                     "--out", str(tmp_path / "o"), "--pyramid-mask", "222222"])
        assert code == 2

    def test_bad_config_value_names_line_and_key(self, data_dir, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("seed = 1\nepochs =\n")
        code = main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "o"),
                     "--config", str(config)])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, f"{config}:2: bad value for epochs")


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

    @pytest.mark.parametrize("prefix", ["param/", "buffer/", "meta/num_identities",
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
        ("meta/num_identities", np.array(10 ** 12, dtype="<i8"), "stored classifier"),
        ("meta/num_identities", np.array(0, dtype="<i8"), "must be positive"),
        ("meta/image_w", np.array(-16, dtype="<i8"), "must be positive"),
    ], ids=["float_infinity", "huge_identity_count", "zero_identities", "negative_width"])
    def test_checkpoint_forged_meta_integer(self, data_dir, trained_dir, tmp_path, capsys,
                                            key, value, message):
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        entries[key] = value
        save_tensors(tmp_path / "ck.pyrt", entries)
        assert self.eval_with(tmp_path / "ck.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, repr(key), message)

    def test_version_1_checkpoint_refused(self, data_dir, trained_dir, tmp_path, capsys):
        entries = load_tensors(trained_dir / "checkpoint.pyrt")
        entries["meta/version"] = np.array(1, dtype="<i8")
        save_tensors(tmp_path / "v1.pyrt", entries)
        assert self.eval_with(tmp_path / "v1.pyrt", data_dir) == 2
        assert_one_error_line(capsys.readouterr().err, "checkpoint version 1 not supported")

    def broken_dataset(self, data_dir, tmp_path, line: int, edit) -> Path:
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        lines = (broken / "manifest.csv").read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        (broken / "manifest.csv").write_text("\n".join(lines) + "\n")
        return broken

    @pytest.mark.parametrize("line, edit, message", [
        (2, lambda row: ["img_99999"] + row[1:], "image 'img_99999' is in no container"),
        (3, lambda row: row[:3] + ["bogus"] + row[4:], "unknown split 'bogus'"),
        (4, lambda row: row[:3], "expected 10 fields, got 3"),
        (5, lambda row: row[:1] + ["x"] + row[2:], "invalid literal"),
    ], ids=["unknown_image", "unknown_split", "short_row", "bad_number"])
    def test_manifest_row(self, data_dir, trained_dir, tmp_path, capsys, line, edit, message):
        broken = self.broken_dataset(data_dir, tmp_path, line, edit)
        assert self.eval_with(trained_dir / "checkpoint.pyrt", broken) == 2
        assert_one_error_line(capsys.readouterr().err, f"manifest.csv:{line}: {message}")


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
        assert rows[0]["mask"] == "000001"


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

    def test_metrics_match_train_with_l2_normalized_eval(self, data_dir, tmp_path):
        from pyreid.data_synth import ReIDDataset
        from pyreid.evaluation import evaluate_checkpoint

        config = tmp_path / "l2.ini"
        config.write_text("l2_normalize_eval = true\n")
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
        # the normalisation must move the metrics, or the comparison shows nothing
        plain = evaluate_checkpoint(tmp_path / "tr" / "checkpoint.pyrt",
                                    ReIDDataset.load(data_dir), l2_normalize=False)
        assert repr(plain["mAP"]) != trained["mAP"]

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
