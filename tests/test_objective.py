"""Losses and gradients against independent oracles (brute force, finite
differences, and a symbolic derivative on a tiny toy encoder)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcoop.backbone import (
    SyntheticTextEncoder,
    encode_text_with_context,
    init_context,
    project_context,
)
from bmcoop.errors import DataError
from bmcoop.objective import (
    LossBreakdown,
    _ce,
    _log_softmax,
    class_probabilities,
    cosine_logits,
    loss_gradient,
    predict,
    prepare_support,
    sccm_loss,
    student_scores,
    teacher_log_probs,
    total_loss,
)
from bmcoop.types import BLOCK_ROWS, normalize_rows
from conftest import (
    encode_context,
    oracle_log_teacher,
    oracle_text_grad,
    oracle_total_loss,
    unit_rows,
)


def kdsp_loss(v, student, teacher, tau):
    """KDSP of unit image rows ``v`` as training computes it: ``total_loss``
    with only the KDSP weight set (the teacher rows are unit rows, and the
    student rows are normalized as the class-text encoder normalizes them)."""
    labels = np.zeros(len(v), dtype=np.intp)
    student = np.array(student, dtype=np.float64)
    normalize_rows(student, "class embeddings")
    scores = student_scores(v, student, tau)
    return total_loss(scores, labels, None, teacher_log_probs(v, teacher, tau), 0.0, 1.0).kdsp


def softmax_oracle(logits):
    """Independent exp/sum softmax, no max-shift trick."""
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


class TestClassProbabilities:
    def test_identical_class_embeddings_give_uniform(self):
        rng = np.random.default_rng(0)
        v = unit_rows(rng, 3, 8)
        t = np.tile(unit_rows(rng, 1, 8), (2, 1))
        probs = class_probabilities(v, t, tau=0.01)
        assert np.allclose(probs, 0.5)

    def test_aligned_vs_orthogonal_saturates(self):
        v = np.zeros((1, 4))
        v[0, 0] = 1.0
        t = np.zeros((2, 4))
        t[0, 0] = 1.0  # equal to the image
        t[1, 1] = 1.0  # orthogonal
        probs = class_probabilities(v, t, tau=0.01)
        assert probs[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-100.0)), rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((3, 8))
        t = rng.standard_normal((4, 8))  # deliberately non-unit rows
        tau = 0.07
        probs = class_probabilities(v, t, tau)
        vn = v / np.linalg.norm(v, axis=1, keepdims=True)
        tn = t / np.linalg.norm(t, axis=1, keepdims=True)
        oracle = softmax_oracle((vn @ tn.T) / tau)
        assert np.max(np.abs(probs - oracle)) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        probs = class_probabilities(unit_rows(rng, 16, 12), unit_rows(rng, 7, 12), 0.01)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
        # strictly positive always (logit gaps are capped at 2/tau); the top
        # probability may round to exactly 1.0 at float64 saturation
        assert np.all(probs > 0.0) and np.all(probs <= 1.0)

    def test_zero_norm_row_rejected(self):
        v = np.ones((1, 4))
        t = np.zeros((2, 4))
        t[0, 0] = 1.0
        with pytest.raises(DataError, match="zero-norm"):
            class_probabilities(v, t, 0.01)
        with pytest.raises(DataError, match="zero-norm"):
            class_probabilities(np.zeros((1, 4)), np.ones((2, 4)), 0.01)


class TestCosineLogitsBlocks:
    """Image rows are normalized ``BLOCK_ROWS`` at a time; the result must not
    depend on where the block boundaries fall."""

    N = 2 * BLOCK_ROWS + 3

    def inputs(self, dtype):
        rng = np.random.default_rng(21)
        images = (3.0 * rng.standard_normal((self.N, 16))).astype(dtype)
        return images, rng.standard_normal((5, 16))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_one_shot_reference(self, dtype):
        images, text = self.inputs(dtype)
        v = images.astype(np.float64)
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        t = text / np.linalg.norm(text, axis=1, keepdims=True)
        reference = (v @ t.T) / 0.01
        logits = cosine_logits(images, text, 0.01)
        assert logits.shape == (self.N, 5) and logits.dtype == np.float64
        # block products may round differently from one (N, D) product
        assert np.max(np.abs(logits - reference)) <= 1e-12
        assert np.array_equal(np.argmax(logits, axis=1), np.argmax(reference, axis=1))

    def test_zero_row_in_last_block_is_named(self):
        images, text = self.inputs(np.float32)
        images[self.N - 2] = 0.0
        names = [f"img{i}" for i in range(self.N)]
        with pytest.raises(DataError, match=f"zero-norm row 'img{self.N - 2}' in images"):
            cosine_logits(images, text, 0.01, names)
        with pytest.raises(DataError, match=f"zero-norm row {self.N - 2} in images"):
            cosine_logits(images, text, 0.01)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_rows_give_an_empty_block(self, dtype):
        _, text = self.inputs(dtype)
        assert cosine_logits(np.zeros((0, 16), dtype=dtype), text, 0.01).shape == (0, 5)

    def test_positions_score_the_gathered_rows(self):
        images, text = self.inputs(np.float32)
        names = [f"img{i}" for i in range(self.N)]
        positions = np.random.default_rng(22).integers(0, self.N, size=self.N)
        for chosen in (positions, positions[:0]):
            got = cosine_logits(images, text, 0.01, names, chosen)
            assert np.array_equal(got, cosine_logits(images[chosen], text, 0.01, names))
        assert cosine_logits(images, text, 0.01, names, positions[:0]).shape == (0, 5)

    def test_zero_row_at_a_position_in_the_second_block_is_named(self):
        images, text = self.inputs(np.float32)
        positions = np.arange(self.N)[::-1].copy()
        # result row BLOCK_ROWS + 4 reads cache row N - 1 - (BLOCK_ROWS + 4)
        images[self.N - 1 - (BLOCK_ROWS + 4)] = 0.0
        item_ids = [f"item{i}" for i in positions]
        with pytest.raises(DataError, match=f"zero-norm row 'item{self.N - 5 - BLOCK_ROWS}'"):
            cosine_logits(images, text, 0.01, item_ids, positions)


class TestPredict:
    def test_argmax(self):
        assert predict(np.array([[0.1, 0.7, 0.2]]))[0] == 1

    def test_tie_breaks_low(self):
        assert predict(np.array([[0.5, 0.5]]))[0] == 0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 50.0))
    def test_invariant_under_positive_logit_rescaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((4, 5))
        p1 = softmax_oracle(logits)
        p2 = softmax_oracle(scale * logits)
        assert np.array_equal(predict(p1), predict(p2))


class TestCeLoss:
    def test_perfect_prediction_is_zero(self):
        logits = np.array([[0.0, -1000.0, -1000.0]])
        assert _ce(_log_softmax(logits), np.array([0])) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_over_four_classes(self):
        logits = np.zeros((6, 4))
        assert _ce(_log_softmax(logits), np.zeros(6, dtype=int)) == pytest.approx(math.log(4), rel=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((10, 5))
        probs = softmax_oracle(logits)
        labels = rng.integers(0, 5, size=10)
        oracle = -np.mean([np.log(probs[i, labels[i]]) for i in range(10)])
        assert _ce(_log_softmax(logits), labels) == pytest.approx(oracle, abs=1e-12)

    def test_bad_label_rejected(self):
        # labels are checked once per run, with the support they label
        with pytest.raises(DataError):
            prepare_support(np.ones((1, 3)), np.array([3]), 3, 3, 0.01, None)


class TestSccmLoss:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 8))
        assert sccm_loss(t, t.copy()) == 0.0

    def test_three_four_five(self):
        t = np.array([[3.0, 4.0]])
        assert sccm_loss(t, np.zeros((1, 2))) == 25.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 16))
        p = rng.standard_normal((4, 16))
        oracle = 0.0
        for c in range(4):
            for d in range(16):
                oracle += (t[c, d] - p[c, d]) ** 2
        assert sccm_loss(t, p) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            sccm_loss(np.zeros((2, 3)), np.zeros((3, 3)))


class TestKdspLoss:
    def test_equal_distributions_zero(self):
        rng = np.random.default_rng(6)
        v = unit_rows(rng, 5, 8)
        t = unit_rows(rng, 3, 8)
        assert kdsp_loss(v, t, t.copy(), 0.05) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            v = unit_rows(rng, 4, 8)
            student = unit_rows(rng, 3, 8)
            teacher = unit_rows(rng, 3, 8)
            assert kdsp_loss(v, student, teacher, 0.05) >= 0.0

    def test_strictly_positive_off_equality(self):
        rng = np.random.default_rng(17)
        v = unit_rows(rng, 5, 8)
        teacher = unit_rows(rng, 3, 8)
        for scale in (1e-3, 1e-1, 1.0):
            perturbed = teacher + scale * rng.standard_normal(teacher.shape)
            assert kdsp_loss(v, perturbed, teacher, 0.05) > 0.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(8)
        v = unit_rows(rng, 6, 10)
        student = unit_rows(rng, 4, 10)
        teacher = unit_rows(rng, 4, 10)
        tau = 0.07
        pt = class_probabilities(v, teacher, tau)
        ps = class_probabilities(v, student, tau)
        oracle = 0.0
        for i in range(6):
            for j in range(4):
                oracle += pt[i, j] * math.log(pt[i, j] / ps[i, j])
        oracle /= 6
        assert kdsp_loss(v, student, teacher, tau) == pytest.approx(oracle, abs=1e-10)


class TestTotalLoss:
    def test_zero_weights_reduce_to_ce(self):
        rng = np.random.default_rng(9)
        v = unit_rows(rng, 4, 8)
        t = unit_rows(rng, 3, 8)
        labels = np.array([0, 1, 2, 0])
        breakdown = total_loss(student_scores(v, t, 0.01), labels, None, None, 0.0, 0.0)
        logits = (v @ t.T) / 0.01
        oracle = -np.mean(np.log(softmax_oracle(logits)[np.arange(4), labels]))
        assert breakdown.total == breakdown.ce
        assert breakdown.sccm == 0.0 and breakdown.kdsp == 0.0
        assert breakdown.ce == pytest.approx(oracle, abs=1e-10)

    def test_recomposition(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            v = unit_rows(rng, 3, 8)
            t = unit_rows(rng, 4, 8)
            pg = rng.standard_normal((4, 8)) * 0.5
            ps = unit_rows(rng, 4, 8)
            labels = rng.integers(0, 4, size=3)
            l1, l2 = rng.uniform(0, 3, size=2)
            bd = total_loss(
                student_scores(v, t, 0.05), labels, pg, teacher_log_probs(v, ps, 0.05), l1, l2
            )
            recomposed = bd.ce + l1 * bd.sccm + l2 * bd.kdsp
            assert bd.total == pytest.approx(recomposed, rel=1e-15)

    def test_missing_ensemble_rejected(self):
        rng = np.random.default_rng(11)
        v = unit_rows(rng, 2, 6)
        t = unit_rows(rng, 2, 6)
        with pytest.raises(DataError):
            total_loss(student_scores(v, t, 0.01), np.array([0, 1]), None, None, 0.5, 0.0)

    def test_breakdown_invariant(self):
        bd = LossBreakdown.compose(1.0, 2.0, 3.0, 0.5, 0.25)
        assert bd.total == 1.0 + 0.5 * 2.0 + 0.25 * 3.0


def support_rows(handle, names, v, labels, ps):
    """(unit rows, checked labels, teacher log-softmax rows) as a training run
    prepares them."""
    v_unit, labels, teacher_unit = prepare_support(
        v, labels, len(names), handle.embedding_dim, handle.tau, ps
    )
    log_teacher = None if ps is None else teacher_log_probs(v_unit, teacher_unit, handle.tau)
    return v_unit, labels, log_teacher


def context_grad(handle, ctx, names, *args):
    """``loss_gradient`` at the context ``ctx``, read as the (M, d_tok)
    gradient ``Pᵀh`` in every row."""
    breakdown, h = loss_gradient(handle, project_context(handle, ctx), len(ctx), names, *args)
    return breakdown, np.tile(handle.projection.T @ h, (len(ctx), 1))


def finite_difference_grad(handle, ctx, names, v, labels, pg, ps, l1, l2, eps=1e-5):
    v_unit, labels, log_teacher = support_rows(handle, names, v, labels, ps)

    def f(vectors):
        text, _ = encode_context(handle, vectors, names)
        scores = student_scores(v_unit, text, handle.tau)
        return total_loss(scores, labels, pg, log_teacher, l1, l2).total

    fd = np.zeros_like(ctx)
    for i in range(ctx.shape[0]):
        for j in range(ctx.shape[1]):
            plus = ctx.copy()
            plus[i, j] += eps
            minus = ctx.copy()
            minus[i, j] -= eps
            fd[i, j] = (f(plus) - f(minus)) / (2 * eps)
    return fd


def max_rel_error(analytic, fd):
    denom = np.maximum(np.abs(analytic), np.abs(fd))
    rel = np.where(denom > 1e-7, np.abs(analytic - fd) / np.maximum(denom, 1e-300), 0.0)
    tiny = denom <= 1e-7
    assert np.all(np.abs(analytic - fd)[tiny] < 1e-10)
    return rel.max()


class TestLossGradient:
    def test_matches_finite_differences_across_weights(self, small_handle):
        rng = np.random.default_rng(12)
        names = ["glioma tumor", "normal brain", "pituitary tumor"]
        for l1 in (0.0, 0.5, 2.0):
            for l2 in (0.0, 0.5, 2.0):
                ctx = init_context(small_handle, "a photo of a", 3)
                ctx = rng.standard_normal(ctx.shape) * 0.3
                v = unit_rows(rng, 4, small_handle.embedding_dim)
                labels = rng.integers(0, 3, size=4)
                pg = rng.standard_normal((3, small_handle.embedding_dim)) * 0.4
                ps = unit_rows(rng, 3, small_handle.embedding_dim)
                v_unit, checked, log_teacher = support_rows(small_handle, names, v, labels, ps)
                _, grad = context_grad(
                    small_handle, ctx, names, v_unit, checked, pg, log_teacher, l1, l2
                )
                fd = finite_difference_grad(
                    small_handle, ctx, names, v, labels, pg, ps, l1, l2
                )
                assert max_rel_error(grad, fd) < 1e-4

    def test_consistency_gradient_matches_symbolic_oracle(self):
        """1-class toy (M=1, width 2, dim 2): differentiate the squared
        distance through pool -> projection -> normalize with sympy."""
        sympy = pytest.importorskip("sympy")
        handle = SyntheticTextEncoder(seed=1, embedding_dim=2, token_width=2, tau=0.01)
        name = "lesion"
        token = handle.token_vectors(name)[0]
        W = np.asarray(handle.projection)
        target = np.array([0.3, -0.7])

        x1, x2 = sympy.symbols("x1 x2", real=True)
        pooled = [(x1 + token[0]) / 2, (x2 + token[1]) / 2]
        raw = [
            W[0, 0] * pooled[0] + W[0, 1] * pooled[1],
            W[1, 0] * pooled[0] + W[1, 1] * pooled[1],
        ]
        norm = sympy.sqrt(raw[0] ** 2 + raw[1] ** 2)
        embed = [raw[0] / norm, raw[1] / norm]
        loss = (embed[0] - target[0]) ** 2 + (embed[1] - target[1]) ** 2
        point = {x1: 0.21, x2: -0.4}
        symbolic = np.array(
            [float(sympy.diff(loss, s).subs(point)) for s in (x1, x2)]
        )

        from bmcoop.objective import sccm_grad_wrt_text

        ctx = np.array([[0.21, -0.4]])
        embed_val, tape = encode_context(handle, ctx, [name])
        grad = handle.projection.T @ tape.vjp(sccm_grad_wrt_text(embed_val, target[None, :]))
        assert grad.shape == (2,)
        assert np.max(np.abs(grad - symbolic)) < 1e-10

    def test_near_zero_gradient_at_saturated_ce(self, small_handle):
        """CE-only objective at a perfectly separated batch: loss at machine
        zero and gradient norm below 1e-8."""
        # zero context rows keep the class embeddings far apart here
        ctx = np.zeros((2, small_handle.token_width))
        names = ["alpha beta gamma delta", "omega sigma rho pi"]
        text, _ = encode_context(small_handle, ctx, names)
        v = text.copy()  # images exactly on the class embeddings
        labels = np.array([0, 1])
        bd, grad = context_grad(
            small_handle, ctx, names, v, labels, None, None, 0.0, 0.0
        )
        assert bd.ce < 1e-15
        assert np.linalg.norm(grad) < 1e-8

    def test_teacher_contributes_no_gradient(self, small_handle):
        """Perturbing the teacher changes the loss but the gradient path
        stays the student's: grad equals the analytic student-only form."""
        rng = np.random.default_rng(13)
        ctx = init_context(small_handle, "a photo of a", 3)
        names = ["alpha", "beta"]
        v = unit_rows(rng, 4, small_handle.embedding_dim)
        labels = np.array([0, 1, 0, 1])
        ps = unit_rows(rng, 2, small_handle.embedding_dim)
        v_unit, checked, log_teacher = support_rows(small_handle, names, v, labels, ps)
        _, grad = context_grad(
            small_handle, ctx, names, v_unit, checked, None, log_teacher, 0.0, 1.0
        )
        fd = finite_difference_grad(
            small_handle, ctx, names, v, labels, None, ps, 0.0, 1.0
        )
        assert max_rel_error(grad, fd) < 1e-4


FUSED_NAMES = ["glioma tumor", "normal brain", "pituitary tumor", "kidney stone", "lung opacity"]
# a small encoder and the paper's (D=512, W=768) one, whose GEMMs take other kernels
FUSED_HANDLES = [
    SyntheticTextEncoder(seed=3, embedding_dim=24, token_width=40, tau=0.01),
    SyntheticTextEncoder(seed=4, embedding_dim=512, token_width=768, tau=0.01),
]


class TestFusedStepAgainstPerTermOracle:
    """One shared logit block per step against the frozen per-term path
    (``conftest.oracle_*``), which renormalizes the raw images and the
    class text inside every term: the losses and the context gradient
    must be equal bit for bit."""

    @pytest.mark.parametrize("lambda1,lambda2", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.25), (0.5, 0.25)])
    def test_step_is_bit_identical(self, lambda1, lambda2):
        for seed in range(24):
            rng = np.random.default_rng(seed)
            handle = FUSED_HANDLES[seed % 2]
            dim = handle.embedding_dim
            names = FUSED_NAMES[: int(rng.integers(2, len(FUSED_NAMES) + 1))]
            c = len(names)
            n = int(rng.integers(c, 40))
            ctx = init_context(handle, "a photo of a", 4)
            ctx = ctx + 0.1 * rng.standard_normal(ctx.shape)
            # raw support rows of mixed norms, so normalization is exercised
            images = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, size=(n, 1))
            labels = rng.integers(0, c, size=n)
            pg = ps = None
            if (lambda1, lambda2) != (0.0, 0.0):
                pg = 0.4 * rng.standard_normal((c, dim))
                ps = unit_rows(rng, c, dim)
            batch = rng.choice(n, size=min(n, int(rng.integers(1, 9))), replace=False)

            v_unit, checked, teacher_unit = prepare_support(images, labels, c, dim, handle.tau, ps)
            s = project_context(handle, ctx)
            log_teacher = oracle_teacher = None
            if ps is not None:
                # the teacher is scored once per run, over the whole support
                log_teacher = teacher_log_probs(v_unit, teacher_unit, handle.tau)[batch]
                oracle_teacher = oracle_log_teacher(images, ps, handle.tau)[batch]
            breakdown, grad = loss_gradient(
                handle, s, len(ctx), names, v_unit[batch], checked[batch], pg, log_teacher,
                lambda1, lambda2,
            )

            text, tape = encode_text_with_context(handle, s, len(ctx), names)
            args = (images[batch], labels[batch], text, pg, oracle_teacher, handle.tau,
                    lambda1, lambda2)
            want = oracle_total_loss(*args)
            for field in ("ce", "sccm", "kdsp", "total"):
                assert np.array_equal(getattr(breakdown, field), getattr(want, field)), (seed, field)
            assert np.array_equal(grad, tape.vjp(oracle_text_grad(*args))), seed
