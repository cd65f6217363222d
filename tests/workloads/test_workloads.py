"""Tests for request classes, synthetic data, and retrieval tasks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.requests import (
    AZURE_OFFLINE_MIX,
    LONG,
    MEDIUM,
    REQUEST_CLASSES,
    SHORT,
    RequestClass,
    RequestMix,
    sample_request_classes,
)
from repro.workloads.retrieval import (
    evaluate_kernel,
    evaluate_kernels,
    flashattention_kernel,
    hilos_kernel,
    instattention_kernel,
    make_retrieval_suite,
    retrieve_positions,
    score_f1,
)
from repro.workloads.synthetic import SyntheticWorkload, make_embeddings


class TestRequestClasses:
    def test_azure_mix(self):
        """Section 6.6: Short I:256/O:100, Medium I:1K/O:350, Long I:8K/O:350."""
        assert (SHORT.input_tokens, SHORT.output_tokens) == (256, 100)
        assert (MEDIUM.input_tokens, MEDIUM.output_tokens) == (1024, 350)
        assert (LONG.input_tokens, LONG.output_tokens) == (8192, 350)

    def test_total_tokens(self):
        assert LONG.total_tokens == 8542

    def test_registry(self):
        assert set(REQUEST_CLASSES) == {"Short", "Medium", "Long"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RequestClass("bad", input_tokens=0, output_tokens=1)


class TestRequestMix:
    def test_default_mix_is_normalized_short_heavy(self):
        fractions = AZURE_OFFLINE_MIX.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["Short"] > fractions["Medium"] > fractions["Long"]

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestMix({"Gigantic": 1.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestMix({"Short": -0.5, "Long": 1.5})

    def test_weights_are_frozen_after_construction(self):
        mix = RequestMix({"Short": 1.0})
        with pytest.raises(TypeError):
            mix.weights["Gigantic"] = 5.0  # type: ignore[index]

    def test_mix_is_hashable_and_compares_by_weights(self):
        assert hash(RequestMix({"Short": 1.0})) == hash(RequestMix({"Short": 1.0}))
        assert RequestMix({"Short": 1.0}) == RequestMix({"Short": 1.0})
        assert RequestMix({"Short": 1.0}) != RequestMix({"Long": 1.0})
        assert {AZURE_OFFLINE_MIX: "default"}[RequestMix()] == "default"

    def test_mix_equality_ignores_insertion_order(self):
        forward = RequestMix({"Short": 0.5, "Long": 0.5})
        backward = RequestMix({"Long": 0.5, "Short": 0.5})
        assert forward == backward
        assert hash(forward) == hash(backward)

    def test_sampling_is_deterministic_per_seed(self):
        first = sample_request_classes(64, seed=3)
        second = sample_request_classes(64, seed=3)
        other = sample_request_classes(64, seed=4)
        assert first == second
        assert first != other

    def test_sampling_tracks_mix_proportions(self):
        queue = sample_request_classes(2000, seed=5)
        short_fraction = sum(1 for cls in queue if cls.name == "Short") / len(queue)
        assert short_fraction == pytest.approx(0.55, abs=0.05)

    def test_single_class_mix(self):
        queue = sample_request_classes(
            8, mix=RequestMix({"Long": 1.0}), seed=0
        )
        assert all(cls is LONG for cls in queue)

    def test_empty_queue_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_request_classes(0)


class TestSynthetic:
    def test_workload_is_deterministic(self):
        a = SyntheticWorkload(2, 8, 4, 32, seed=5)
        b = SyntheticWorkload(2, 8, 4, 32, seed=5)
        np.testing.assert_array_equal(a.prompt_embeddings(), b.prompt_embeddings())
        np.testing.assert_array_equal(a.step_embeddings()[0], b.step_embeddings()[0])

    def test_shapes(self):
        workload = SyntheticWorkload(3, 16, 5, 64)
        assert workload.prompt_embeddings().shape == (3, 16, 64)
        steps = workload.step_embeddings()
        assert len(steps) == 5
        assert steps[0].shape == (3, 64)

    def test_embeddings_unit_norm(self):
        vectors = make_embeddings(16, 32, seed=1)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticWorkload(0, 1, 1, 1)
        with pytest.raises(ConfigurationError):
            make_embeddings(0, 4)


class TestRetrievalSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return make_retrieval_suite(n_queries=64)

    def test_five_datasets(self, suite):
        assert len(suite) == 5
        assert len({task.name for task in suite}) == 5

    def test_tasks_are_deterministic(self, suite):
        q1, k1, v1, p1 = suite[0].build()
        q2, k2, v2, p2 = suite[0].build()
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(p1, p2)

    def test_exact_kernels_agree_bitwise_in_f1(self, suite):
        """HILOS == FlashAttention on every task (the losslessness claim)."""
        for task in suite:
            assert evaluate_kernel(task, hilos_kernel) == evaluate_kernel(
                task, flashattention_kernel
            )

    def test_sparse_loses_a_few_points(self, suite):
        """Figure 18(c): 1/8 retrieval costs roughly 3-6 F1 points."""
        drops = []
        for task in suite:
            flash = evaluate_kernel(task, flashattention_kernel)
            sparse = evaluate_kernel(task, instattention_kernel(1.0 / 8.0))
            drops.append(flash - sparse)
        assert all(drop >= 0 for drop in drops)
        assert 2.0 <= sum(drops) / len(drops) <= 8.0

    def test_exact_f1_in_longbench_band(self, suite):
        for task in suite:
            f1 = evaluate_kernel(task, flashattention_kernel)
            assert 60.0 <= f1 <= 100.0

    def test_one_build_scores_like_one_build_per_kernel(self, suite):
        kernels = [flashattention_kernel, instattention_kernel(1.0 / 8.0), hilos_kernel]
        for task in suite[:2]:
            assert evaluate_kernels(task, kernels) == [
                evaluate_kernel(task, kernel) for kernel in kernels
            ]


@pytest.mark.parametrize("n_queries", [128, 256], ids=["fast", "full"])
def test_exact_kernels_agree_at_figure_scale(n_queries):
    """Fig 18(c)'s rule at both of its query counts: HILOS equals
    FlashAttention exactly on every task.  Both read the FP16 KV cache, so
    a near-tie (triviaqa-syn's query 66 at 256 queries) resolves the same
    way in both."""
    for task in make_retrieval_suite(n_queries=n_queries):
        flash, hilos = evaluate_kernels(task, [flashattention_kernel, hilos_kernel])
        assert hilos == flash, task.name


class TestScoring:
    def test_perfect_retrieval(self, rng):
        values = make_embeddings(16, 8, seed=0)
        predicted = retrieve_positions(values[[3, 5]], values)
        assert score_f1(predicted, np.array([3, 5])) == 100.0

    def test_retrieval_decodes_the_most_similar_value(self, rng):
        values = make_embeddings(64, 8, seed=1)
        outputs = rng.standard_normal((10, 8))
        expected = np.argsort(outputs @ values.T, axis=1)[:, -1]
        np.testing.assert_array_equal(retrieve_positions(outputs, values), expected)

    def test_f1_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            score_f1(np.array([1]), np.array([1, 2]))
