"""Ensembling and outlier pruning against brute-force oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcoop.ensemble import (
    mad_zscores,
    mean_ensemble,
    prompt_scores,
    score_and_select,
    select_prompts,
    selected_ensemble,
    write_score_report,
)
from bmcoop.errors import DataError
from conftest import unit_rows


class TestMeanEnsemble:
    def test_single_prompt_is_identity(self):
        row = np.array([[0.6, 0.8]])
        out = mean_ensemble([row])
        assert np.array_equal(out[0], row[0])

    def test_opposite_rows_cancel(self):
        e = np.array([0.6, 0.8])
        out = mean_ensemble([np.stack([e, -e])])
        assert np.array_equal(out[0], np.zeros(2))

    def test_matches_streaming_sum_oracle(self):
        rng = np.random.default_rng(1)
        banks = [unit_rows(rng, 50, 16) for _ in range(3)]
        out = mean_ensemble(banks)
        for c, bank in enumerate(banks):
            total = np.zeros(16)
            for row in bank:  # streaming-sum oracle
                total += row
            assert np.max(np.abs(out[c] - total / 50)) < 1e-12

    def test_not_renormalized(self):
        rng = np.random.default_rng(2)
        out = mean_ensemble([unit_rows(rng, 50, 16)])
        assert np.linalg.norm(out[0]) < 0.99  # mean of spread unit rows shrinks

    def test_empty_bank_rejected(self):
        with pytest.raises(DataError):
            mean_ensemble([np.zeros((0, 4))])


class TestPromptScores:
    def test_identical_unit_vectors_score_beta(self):
        e = np.zeros(8)
        e[0] = 1.0
        scores = prompt_scores([e[None, :]], e[None, :], beta=100.0)
        assert scores[0][0] == pytest.approx(100.0, abs=1e-12)

    def test_orthogonal_scores_zero(self):
        a = np.zeros(8)
        a[0] = 1.0
        b = np.zeros(8)
        b[1] = 1.0
        scores = prompt_scores([a[None, :]], b[None, :], beta=100.0)
        assert scores[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        bank = unit_rows(rng, 5, 12)
        images = unit_rows(rng, 3, 12)
        beta = 37.5
        scores = prompt_scores([bank], images, beta)[0]
        for j in range(5):
            total = 0.0
            for i in range(3):
                total += beta * float(np.dot(bank[j], images[i]))
            assert abs(scores[j] - total / 3) < 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            prompt_scores([np.ones((2, 4))], np.zeros((0, 4)), beta=1.0)


class TestMadZscores:
    def test_worked_example(self):
        s = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        median, mad, z = mad_zscores(s)
        assert median == 3.0
        assert mad == 1.0
        assert np.array_equal(z, np.array([-2.0, -1.0, 0.0, 1.0, 97.0]))

    def test_all_equal_degenerate_rule(self):
        median, mad, z = mad_zscores(np.full(7, 4.2))
        assert mad == 0.0
        assert np.array_equal(z, np.zeros(7))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mad_zscores(np.array([]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]), st.floats()),
        min_size=1, max_size=64,
    ))
    def test_median_and_mad_are_np_median_bits(self, values):
        """The sign of a zero included; a NaN result only as NaN, since
        several NaNs may carry different bits."""
        scores = np.array(values)
        with np.errstate(all="ignore"):
            median, mad, _ = mad_zscores(scores)
            want = np.median(scores)
            want_mad = np.median(np.abs(scores - want))
        for got, expected in ((median, want), (mad, want_mad)):
            if np.isnan(expected):
                assert np.isnan(got)
            else:
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shift=st.floats(-1e3, 1e3, allow_nan=False),
        n=st.integers(1, 40),
    )
    def test_translation_invariance(self, seed, shift, n):
        s = np.random.default_rng(seed).standard_normal(n) * 10
        _, _, z1 = mad_zscores(s)
        _, _, z2 = mad_zscores(s + shift)
        assert np.allclose(z1, z2, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.floats(0.01, 100.0), n=st.integers(1, 40))
    def test_positive_scale_leaves_z_unchanged(self, seed, k, n):
        s = np.random.default_rng(seed).standard_normal(n) * 5
        _, _, z1 = mad_zscores(s)
        _, _, z2 = mad_zscores(k * s)
        assert np.allclose(z1, z2, atol=1e-8)


class TestSelectPrompts:
    def test_worked_example_mask(self):
        _, _, z = mad_zscores(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
        mask = select_prompts(z, zeta_s=1.5)
        assert list(np.flatnonzero(mask)) == [1, 2, 3]

    def test_all_zero_z_selects_everything(self):
        mask = select_prompts(np.zeros(10), zeta_s=0.5)
        assert mask.all()

    def test_fallback_keeps_single_best(self):
        mask = select_prompts(np.array([5.0, -3.0, 4.0]), zeta_s=1.0)
        assert list(np.flatnonzero(mask)) == [1]

    def test_fallback_tie_goes_to_lowest_index(self):
        mask = select_prompts(np.array([3.0, -3.0]), zeta_s=1.0)
        assert list(np.flatnonzero(mask)) == [0]

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(DataError):
            select_prompts(np.zeros(3), zeta_s=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        z1=st.floats(0.1, 5.0),
        extra=st.floats(0.0, 5.0),
    )
    def test_monotone_threshold(self, seed, z1, extra):
        z = np.random.default_rng(seed).standard_normal(20) * 2
        low = select_prompts(z, z1)
        high = select_prompts(z, z1 + extra)
        assert np.all(high[low])  # low-threshold picks are a subset


class TestSelectedEnsemble:
    def test_all_true_equals_plain_mean(self):
        rng = np.random.default_rng(4)
        banks = [unit_rows(rng, 50, 8) for _ in range(2)]
        masks = [np.ones(50, dtype=bool)] * 2
        assert np.array_equal(selected_ensemble(banks, masks), mean_ensemble(banks))

    def test_single_selection_is_that_row(self):
        rng = np.random.default_rng(5)
        bank = unit_rows(rng, 10, 8)
        mask = np.zeros(10, dtype=bool)
        mask[3] = True
        out = selected_ensemble([bank], [mask])
        assert np.array_equal(out[0], bank[3])

    def test_matches_filtered_sum_oracle(self):
        rng = np.random.default_rng(6)
        bank = unit_rows(rng, 50, 8)
        mask = np.ones(50, dtype=bool)
        mask[[3, 17, 28, 44]] = False
        out = selected_ensemble([bank], [mask])
        total = np.zeros(8)
        count = 0
        for j in range(50):
            if mask[j]:
                total += bank[j]
                count += 1
        assert count == 46
        assert np.max(np.abs(out[0] - total / count)) < 1e-12

    def test_all_false_rejected(self):
        with pytest.raises(DataError):
            selected_ensemble([np.ones((3, 4))], [np.zeros(3, dtype=bool)])


class TestBankShape:
    def test_ragged_bank_rejected(self):
        ragged = [np.ones((2, 4)), np.ones((3, 4))]
        for call in (
            lambda: mean_ensemble(ragged),
            lambda: prompt_scores(ragged, np.ones((1, 4)), beta=1.0),
            lambda: selected_ensemble(ragged, [np.ones(2, dtype=bool), np.ones(3, dtype=bool)]),
        ):
            with pytest.raises(DataError, match="same number of prompt embeddings"):
                call()
        with pytest.raises(DataError, match="same number of mask entries"):
            selected_ensemble(np.ones((2, 3, 4)), [np.ones(3, dtype=bool), np.ones(2, dtype=bool)])

    def test_list_and_array_agree(self):
        rng = np.random.default_rng(9)
        banks = [unit_rows(rng, 7, 5) for _ in range(3)]
        images = unit_rows(rng, 4, 5)
        stacked = np.stack(banks)
        assert prompt_scores(stacked, images, 100.0).shape == (3, 7)
        assert np.array_equal(prompt_scores(banks, images, 100.0), prompt_scores(stacked, images, 100.0))
        assert np.array_equal(mean_ensemble(banks), mean_ensemble(stacked))


class TestScaleInvariance:
    def test_beta_rescaling_preserves_selection(self):
        rng = np.random.default_rng(7)
        banks = [unit_rows(rng, 30, 10) for _ in range(2)]
        images = unit_rows(rng, 6, 10)
        for k in (0.01, 1.0, 250.0):
            s1 = prompt_scores(banks, images, beta=100.0)
            s2 = prompt_scores(banks, images, beta=100.0 * k)
            for a, b in zip(s1, s2):
                assert np.allclose(b, k * a, rtol=1e-12)
                _, _, z_a = mad_zscores(a)
                _, _, z_b = mad_zscores(b)
                assert np.allclose(z_a, z_b, atol=1e-9)
                assert np.array_equal(
                    select_prompts(z_a, 1.5), select_prompts(z_b, 1.5)
                )


from conftest import build_planted_outlier


class TestPlantedOutlier:
    def test_excluded_in_every_seed(self):
        for seed in range(20):
            bank, images, outlier = build_planted_outlier(seed)
            scores = prompt_scores([bank], images, beta=100.0)[0]
            _, _, z = mad_zscores(scores)
            mask = select_prompts(z, zeta_s=1.5)
            assert not mask[outlier], f"planted outlier survived at seed {seed}"
            assert mask.sum() >= 1


class TestReport:
    def test_json_report(self, tmp_path):
        rng = np.random.default_rng(8)
        banks = [unit_rows(rng, 10, 6) for _ in range(2)]
        images = unit_rows(rng, 4, 6)
        reports = score_and_select(["a", "b"], banks, images, beta=100.0, zeta_s=1.5)
        path = tmp_path / "scores.json"
        write_score_report(reports, path, header={"seed": 3})
        doc = json.loads(path.read_text())
        assert doc["seed"] == 3
        assert len(doc["classes"]) == 2
        for entry in doc["classes"]:
            assert len(entry["scores"]) == 10
            assert entry["n_selected"] == len(entry["selected_indices"])
            assert entry["n_selected"] >= 1
