"""Acceptance suite.

One test per criterion, each printing a PASS line with the measured
numbers (run with `pytest -s` to stream them). The training-based criteria
share session-scoped fixtures; the full module targets a 15-CPU-minute
budget on a desktop core.
"""

import csv
import math
import time

import numpy as np
import pytest

import pyreid.autograd as ag
from pyreid.autograd import Tensor, use_dtype
from pyreid.batching import batch_hard_mine
from pyreid.container import load_tensors, save_tensors
from pyreid.data_synth import GenConfig, generate_dataset
from pyreid.evaluation import compute_cmc, compute_map, evaluate_checkpoint
from pyreid.losses import triplet_loss
from pyreid.pyramid import BranchMask, PyramidModel
from pyreid.scheduler import (Phase, SchedulerState, focal_weight,
                              loss_reduction_prob, update_ema)
from pyreid.trainer import TrainConfig, train

from helpers import (build_tiny_model, composite_loss, composite_margin,
                     finite_difference_check, gradcheck_cases, oracle_ap, oracle_cmc,
                     oracle_mine, padded, swap_param)

SEEDS = (0, 1, 2)


def desk_dataset(severity, seed):
    """Criterion 5's geometry: 20 train identities x 10 images (plus the
    20-identity test half)."""
    return generate_dataset(GenConfig(num_ids=40, imgs_per_id=10, severity=severity,
                                      seed=seed))


def trace_phases(trace_path):
    with open(trace_path) as fh:
        return [row["phase"] for row in csv.DictReader(fh)]


@pytest.fixture(scope="session")
def severity0_runs(tmp_path_factory):
    """Desk-profile runs on the clean dataset, one per seed."""
    root = tmp_path_factory.mktemp("sev0")
    runs = {}
    for seed in SEEDS:
        ds = desk_dataset(0.0, seed)
        start = time.time()
        result = train(TrainConfig(seed=seed, epochs=30), ds, root / f"s{seed}")
        runs[seed] = (ds, result, time.time() - start)
    return runs


@pytest.fixture(scope="session")
def severity06_runs(tmp_path_factory):
    """Full-pyramid vs global-only runs at severity 0.6, one pair per seed."""
    root = tmp_path_factory.mktemp("sev06")
    runs = {}
    for seed in SEEDS:
        ds = desk_dataset(0.6, seed)
        full = train(TrainConfig(seed=seed, epochs=30), ds, root / f"full{seed}")
        glob = train(TrainConfig(seed=seed, epochs=30, pyramid_mask="000001"),
                     ds, root / f"glob{seed}")
        runs[seed] = (ds, full, glob)
    return runs


@pytest.fixture(scope="session")
def severity03_runs(tmp_path_factory):
    """Dynamic vs no-triplet-alternating runs at severity 0.3, per seed."""
    root = tmp_path_factory.mktemp("sev03")
    runs = {}
    for seed in SEEDS:
        ds = desk_dataset(0.3, seed)
        dyn = train(TrainConfig(seed=seed, epochs=30), ds, root / f"dyn{seed}")
        nt = train(TrainConfig(seed=seed, epochs=30, loss_policy="no_triplet"),
                   ds, root / f"nt{seed}")
        runs[seed] = (ds, dyn, nt)
    return runs


class TestCriterion1Structure:
    def test_branch_enumeration_and_embedding_dim(self):
        full = BranchMask.from_string("111111")
        windows = full.windows()
        assert len(windows) == 21
        counts = [sum(1 for _, l in windows if l == level) for level in range(1, 7)]
        assert counts == [6, 5, 4, 3, 2, 1]
        from pyreid.backbone import Backbone
        rng = np.random.default_rng(0)
        images = Tensor(rng.uniform(0, 1, size=(2, 48, 16, 3)).astype(np.float32))
        for dim in (16, 128):
            model = PyramidModel(Backbone(((8, 2), (8, 2)), rng), full, dim, 4, (48, 16),
                                 rng)
            embedding, _ = model.forward(images, training=False)
            assert embedding.data.shape == (2, 21 * dim)
        print("\nACCEPTANCE 1 PASS: 21 branches, level counts [6,5,4,3,2,1], "
              "embedding dim = 21*D")


class TestCriterion2GradientFidelity:
    def test_every_primitive_100_cases(self):
        worst = {}
        with use_dtype(np.float64):
            for op_name in sorted(ag.op_catalog()):
                errs = []
                for seed in range(100):
                    rng = np.random.default_rng(seed)
                    for f, x in gradcheck_cases(op_name, rng):
                        errs.append(finite_difference_check(f, x))
                worst[op_name] = max(errs)
                assert worst[op_name] < 1e-5, f"{op_name}: {worst[op_name]:.3e}"
        top = max(worst.values())
        print(f"\nACCEPTANCE 2a PASS: all {len(worst)} primitive ops < 1e-5 "
              f"(worst {top:.2e}, 100 cases each)")

    def test_end_to_end_composite(self):
        worst = 0.0
        with use_dtype(np.float64):
            for seed in (3, 5, 9):
                model, images, labels = build_tiny_model(seed)
                margin = composite_margin(model, images, labels)
                for name, p in model.named_parameters():
                    def f(t, name=name):
                        restore = swap_param(model, name, t)
                        try:
                            return composite_loss(model, images, labels, margin)
                        finally:
                            restore()
                    err = finite_difference_check(f, Tensor(p.data.copy()))
                    worst = max(worst, err)
                    assert err < 1e-5, f"seed {seed} {name}: {err:.3e}"
        print(f"\nACCEPTANCE 2b PASS: composite backbone->branch->(id+triplet) "
              f"< 1e-5 for every parameter (worst {worst:.2e})")


class TestCriterion3OracleEquivalence:
    def test_mining_matches_exhaustive_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(2, 33))
            x = rng.normal(size=(n, 4))
            dist = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
            labels = rng.integers(0, 6, size=n)
            hp, hn = batch_hard_mine(dist, labels)
            assert (hp.tolist(), hn.tolist()) == oracle_mine(dist, labels)
        print("\nACCEPTANCE 3a PASS: batch-hard mining == exhaustive scan on "
              "1000 random batches")

    def test_map_and_cmc_match_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            rows = []
            for _ in range(int(rng.integers(1, 8))):
                matches = rng.uniform(size=int(rng.integers(2, 15))) < 0.35
                if not matches.any():
                    matches[int(rng.integers(0, len(matches)))] = True
                rows.append(matches.tolist())
            # one (Q, G) matrix, the shorter rows padded with non-matches
            results = padded(rows)
            expected_map = float(np.mean([oracle_ap(row) for row in rows]))
            assert abs(compute_map(results) - expected_map) <= 1e-12
            expected_cmc = oracle_cmc(rows, 10)
            got = compute_cmc(results, 10)
            assert np.abs(got - np.asarray(expected_cmc)).max() <= 1e-12
        print("\nACCEPTANCE 3b PASS: mAP and CMC match brute-force oracles on "
              "500 random result sets (<=1e-12)")


class TestCriterion4SchedulerArithmetic:
    def test_unit_vectors(self):
        assert update_ema(2.0, 1.0, 0.25) == pytest.approx(1.75, abs=1e-12)
        assert loss_reduction_prob(1.75, 2.0) == pytest.approx(0.875, abs=1e-12)
        assert focal_weight(0.875) == pytest.approx(0.002086, abs=1e-6)
        assert focal_weight(1.0) == 0.0
        assert loss_reduction_prob(2.2, 2.0) == 1.0  # increase normalizes to 1
        state = SchedulerState()
        assert state.begin_iteration() is Phase.ID_ONLY
        print("\nACCEPTANCE 4 PASS: EMA/probability/focal unit vectors exact, "
              "iteration 1 is id_only")


class TestCriterion5ToyConvergence:
    def test_three_seeds_converge(self, severity0_runs):
        lines = []
        for seed in SEEDS:
            ds, result, elapsed = severity0_runs[seed]
            metrics = evaluate_checkpoint(result.checkpoint_path, ds)
            assert metrics["rank1"] >= 0.90, f"seed {seed}: rank1 {metrics['rank1']}"
            assert metrics["mAP"] >= 0.70, f"seed {seed}: mAP {metrics['mAP']}"
            assert elapsed <= 300.0, f"seed {seed}: {elapsed:.0f}s"
            lines.append(f"seed {seed}: rank1={metrics['rank1']:.3f} "
                         f"mAP={metrics['mAP']:.3f} ({elapsed:.0f}s)")
        print("\nACCEPTANCE 5 PASS: " + "; ".join(lines))


class TestCriterion6PyramidAdvantage:
    def test_full_mask_beats_global_only_under_misalignment(self, severity06_runs):
        gaps = []
        for seed in SEEDS:
            ds, full, glob = severity06_runs[seed]
            m_full = evaluate_checkpoint(full.checkpoint_path, ds)["mAP"]
            m_glob = evaluate_checkpoint(glob.checkpoint_path, ds,
                                         mask=BranchMask.from_string("000001"))["mAP"]
            assert m_full > m_glob, f"seed {seed}: {m_full:.3f} <= {m_glob:.3f}"
            gaps.append(m_full - m_glob)
        mean_gap = float(np.mean(gaps))
        assert mean_gap >= 0.03, f"mean gap {mean_gap:.4f} < 0.03"
        print(f"\nACCEPTANCE 6 PASS: severity-0.6 full-vs-global mAP gaps "
              f"{[round(g, 3) for g in gaps]}, mean {mean_gap:.3f} >= 0.03")


class TestCriterion7DynamicTrainingEffect:
    def test_dynamic_at_least_matches_no_triplet(self, severity03_runs):
        dyn_maps, nt_maps = [], []
        for seed in SEEDS:
            ds, dyn, nt = severity03_runs[seed]
            dyn_maps.append(evaluate_checkpoint(dyn.checkpoint_path, ds)["mAP"])
            nt_maps.append(evaluate_checkpoint(nt.checkpoint_path, ds)["mAP"])
        mean_dyn, mean_nt = float(np.mean(dyn_maps)), float(np.mean(nt_maps))
        assert mean_dyn >= mean_nt, f"{mean_dyn:.4f} < {mean_nt:.4f}"
        print(f"\nACCEPTANCE 7 PASS: severity-0.3 mean mAP dynamic {mean_dyn:.4f} "
              f">= no-triplet {mean_nt:.4f}")


class TestCriterion8PhaseBehavior:
    def test_every_toy_run_starts_id_only_and_reaches_combined(
            self, severity0_runs, severity06_runs, severity03_runs):
        traces = []
        for seed in SEEDS:
            traces.append(severity0_runs[seed][1].trace_path)
            traces.append(severity06_runs[seed][1].trace_path)
            traces.append(severity06_runs[seed][2].trace_path)
            traces.append(severity03_runs[seed][1].trace_path)
        prefixes = []
        for path in traces:
            phases = trace_phases(path)
            prefix = 0
            for p in phases:
                if p != "id_only":
                    break
                prefix += 1
            assert prefix >= 1, f"{path}: no id_only prefix"
            assert "combined" in phases, f"{path}: never reached combined"
            prefixes.append(prefix)
        print(f"\nACCEPTANCE 8 PASS: {len(traces)} dynamic runs, id_only prefixes "
              f"{sorted(set(prefixes))}, all reached combined")


class TestCriterion9DeterminismPersistence:
    def test_trace_determinism_resume_and_container_roundtrip(self, toy_dataset,
                                                               tmp_path):
        a = train(TrainConfig(seed=11, epochs=4), toy_dataset, tmp_path / "a")
        b = train(TrainConfig(seed=11, epochs=4), toy_dataset, tmp_path / "b")
        assert open(a.trace_path, "rb").read() == open(b.trace_path, "rb").read()

        half = train(TrainConfig(seed=11, epochs=2), toy_dataset, tmp_path / "h")
        resumed = train(TrainConfig(seed=11, epochs=4), toy_dataset, tmp_path / "r",
                        resume_from=half.checkpoint_path)
        full_rows = open(a.trace_path).read().splitlines()
        res_rows = open(resumed.trace_path).read().splitlines()
        cut = 2 * math.ceil(len(toy_dataset.train_split()) / 16)
        assert res_rows[1:] == full_rows[1 + cut:]
        assert open(a.checkpoint_path, "rb").read() == \
            open(resumed.checkpoint_path, "rb").read()

        entries = load_tensors(a.checkpoint_path)
        save_tensors(tmp_path / "copy.pyrt", entries)
        assert (tmp_path / "copy.pyrt").read_bytes() == \
            open(a.checkpoint_path, "rb").read()
        print("\nACCEPTANCE 9 PASS: bitwise trace determinism, exact resume, "
              "byte-identical container round-trip")


class TestCriterion10InvarianceSuite:
    def test_invariances(self, rng):
        # softmax-CE logit-shift invariance
        logits = rng.normal(size=(8, 5)).astype(np.float64)
        labels = rng.integers(0, 5, size=8)
        base = ag.softmax_cross_entropy(Tensor(logits), labels).item()
        for c in (-20.0, 0.5, 300.0):
            assert ag.softmax_cross_entropy(Tensor(logits + c), labels).item() == \
                pytest.approx(base, abs=1e-6)

        # triplet-loss embedding-translation invariance
        embs = rng.normal(size=(12, 6)).astype(np.float64)
        tl_labels = rng.integers(0, 3, size=12)
        t_base = triplet_loss(Tensor(embs), tl_labels, margin=1.4).value
        shift = rng.normal(size=6)
        t_shift = triplet_loss(Tensor(embs + shift), tl_labels, margin=1.4).value
        assert t_shift == pytest.approx(t_base, abs=1e-9)

        # metric invariance under positive uniform embedding scaling
        from pyreid.evaluation import rank_gallery
        gallery = rng.normal(size=(30, 8))
        gids = rng.integers(0, 5, size=30)
        gcams = rng.integers(0, 2, size=30)
        queries = rng.normal(size=(6, 8))
        qids, qcams = gids[np.arange(6) % 5], np.zeros(6, dtype=int)
        base_r = rank_gallery(queries, qids, qcams, gallery, gids, gcams)
        for scale in (0.01, 5.0):
            scaled = rank_gallery(queries * scale, qids, qcams, gallery * scale, gids, gcams)
            assert base_r.tolist() == scaled.tolist()

        # CMC monotonicity
        results = np.zeros((50, 12), dtype=bool)
        for matches in results:  # the draws of one row after another
            matches[:] = rng.uniform(size=12) < 0.3
            if not matches.any():
                matches[int(rng.integers(0, 12))] = True
        cmc = compute_cmc(results, 12)
        assert (np.diff(cmc) >= 0).all() and cmc.min() >= 0 and cmc.max() <= 1

        print("\nACCEPTANCE 10 PASS: CE shift, triplet translation, metric "
              "scaling, CMC monotonicity invariances hold")
