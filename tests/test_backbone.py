"""Synthetic encoders: determinism, normalization, freezing, gradient exactness."""

import numpy as np
import pytest

from bmcoop.backbone import (
    CachedVisionSource,
    SyntheticTextEncoder,
    SyntheticVisionEncoder,
    encode_text_bank,
    encode_text_with_context,
    init_context,
    project_context,
)
from bmcoop.errors import DataError
from bmcoop.types import BLOCK_ROWS, EmbeddingMatrix, PromptBank
from conftest import encode_context, per_class_encode, per_class_vjp, per_prompt_encode


class TestInitContext:
    def test_template_tokens_used_verbatim(self, small_handle):
        ctx = init_context(small_handle, "a photo of a", 4)
        expected = small_handle.token_vectors("a photo of a")
        assert ctx.shape == (4, small_handle.token_width)
        assert np.array_equal(ctx, expected)

    def test_empty_text_gives_reproducible_gaussian_rows(self, small_handle):
        c1 = init_context(small_handle, "", 4)
        c2 = init_context(small_handle, "", 4)
        assert np.array_equal(c1, c2)
        assert c1.shape == (4, small_handle.token_width)
        # pad rows have the documented small scale
        assert np.all(np.abs(c1) < 0.02 * 6)

    def test_longer_context_pads_after_tokens(self, small_handle):
        ctx = init_context(small_handle, "a photo of a", 6)
        tokens = small_handle.token_vectors("a photo of a")
        assert np.array_equal(ctx[:4], tokens)  # direct lookup oracle
        # rows 5-6 are Gaussian pads, not token embeddings
        assert not np.allclose(ctx[4], tokens[0])
        assert np.linalg.norm(ctx[4:]) > 0

    def test_truncates_long_text(self, small_handle):
        ctx = init_context(small_handle, "one two three four five", 3)
        tokens = small_handle.token_vectors("one two three four five")
        assert np.array_equal(ctx, tokens[:3])

    def test_nonpositive_length_rejected(self, small_handle):
        with pytest.raises(DataError):
            init_context(small_handle, "a photo of a", 0)


class TestEncodeTextWithContext:
    def test_deterministic(self, small_handle):
        ctx = init_context(small_handle, "a photo of a", 4)
        e1, _ = encode_context(small_handle, ctx, ["glioma"])
        e2, _ = encode_context(small_handle, ctx, ["glioma"])
        assert np.array_equal(e1, e2)

    def test_unit_norm(self, small_handle):
        ctx = init_context(small_handle, "a photo of a", 4)
        for name in ("glioma", "meningioma tumor", "normal brain scan"):
            e, _ = encode_context(small_handle, ctx, [name])
            assert abs(np.linalg.norm(e[0]) - 1.0) < 1e-6

    def test_width_mismatch_rejected(self, small_handle):
        other = SyntheticTextEncoder(seed=5, embedding_dim=12, token_width=30)
        ctx = init_context(other, "a photo of a", 4)
        with pytest.raises(DataError, match="width"):
            project_context(small_handle, ctx)
        with pytest.raises(DataError, match="width"):
            encode_text_with_context(small_handle, np.zeros(8), 4, ["glioma"])

    def test_no_class_names_rejected(self, small_handle):
        ctx = init_context(small_handle, "a photo of a", 4)
        with pytest.raises(DataError, match="no class names"):
            encode_context(small_handle, ctx, [])

    def test_tape_matches_central_differences(self, small_handle):
        """Random contexts and random downstream linear losses vs the tape."""
        rng = np.random.default_rng(11)
        eps = 1e-5
        for trial in range(5):
            ctx = init_context(small_handle, "a photo of a", 3)
            ctx = rng.standard_normal(ctx.shape) * 0.3
            name = "glioma tumor"
            # random downstream scalar loss L = w . embedding
            w = rng.standard_normal(small_handle.embedding_dim)
            _, tape = encode_context(small_handle, ctx, [name])
            # every context row's gradient is Pᵀh
            analytic = np.tile(small_handle.projection.T @ tape.vjp(w[None, :]), (len(ctx), 1))
            fd = np.zeros_like(ctx)
            for i in range(ctx.shape[0]):
                for j in range(ctx.shape[1]):
                    vp = ctx.copy()
                    vp[i, j] += eps
                    vm = ctx.copy()
                    vm[i, j] -= eps
                    ep, _ = encode_context(small_handle, vp, [name])
                    em, _ = encode_context(small_handle, vm, [name])
                    fd[i, j] = (w @ ep[0] - w @ em[0]) / (2 * eps)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-7)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-4


class TestBatchedAgainstPerClass:
    """The one-tape path against the unbatched per-class formula."""

    WORDS = ["glioma", "tumor", "normal", "brain", "cyst", "benign", "lesion"]

    @pytest.mark.parametrize("n_classes", [1, 3, 8])
    @pytest.mark.parametrize("ctx_rows", [1, 4])
    def test_embeddings_and_vjp_match(self, n_classes, ctx_rows):
        rng = np.random.default_rng(100 * n_classes + ctx_rows)
        for _ in range(4):
            dim, width = rng.integers(2, 9, size=2)
            handle = SyntheticTextEncoder(
                seed=int(rng.integers(1000)), embedding_dim=dim, token_width=width
            )
            names = [
                " ".join(rng.choice(self.WORDS, size=rng.integers(1, 4)))
                for _ in range(n_classes)
            ]
            ctx = init_context(handle, "", ctx_rows)
            ctx = rng.standard_normal(ctx.shape) * 0.3
            unit, tape = encode_context(handle, ctx, names)
            g = rng.standard_normal((n_classes, dim))
            grad = handle.projection.T @ tape.vjp(g)

            expected_grad = np.zeros_like(ctx)
            for c, name in enumerate(names):
                e, norm, seq_len = per_class_encode(handle, ctx, name)
                assert np.max(np.abs(unit[c] - e)) < 1e-12
                expected_grad += per_class_vjp(handle, e, norm, seq_len, g[c], ctx_rows)
            # the one shared row, against every row of the tiled per-class oracle
            assert grad.shape == (width,)
            for row in expected_grad:
                assert np.max(np.abs(grad - row)) < 1e-12

    def test_zero_embedding_names_the_class(self):
        # a 1-d map, with the context set to minus the name token so P·Σctx + P·n is exactly 0
        handle = SyntheticTextEncoder(seed=4, embedding_dim=1, token_width=1)
        ctx = -handle.token_vectors("lesion")
        with pytest.raises(DataError, match="'lesion'"):
            encode_context(handle, ctx, ["cyst", "lesion"])

    def test_gram_is_memoised_read_only(self, small_handle):
        gram = small_handle.gram()
        assert small_handle.gram() is gram
        assert np.array_equal(gram, small_handle.projection @ small_handle.projection.T)
        with pytest.raises(ValueError):
            gram[0, 0] = 1.0

    def test_name_block_is_memoised_read_only(self, small_handle):
        names = ["glioma tumor", "normal brain", "cyst"]
        rows, counts = small_handle.name_block(names)
        again_rows, again_counts = small_handle.name_block(list(names))
        assert again_rows is rows and again_counts is counts
        oracle = [small_handle.projection @ small_handle.token_vectors(n).sum(0) for n in names]
        assert np.array_equal(rows, np.stack(oracle))
        assert list(counts) == [2, 2, 1]
        for array in (rows, counts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestEncodeTextBank:
    def make_bank(self, n):
        return PromptBank(
            prompts={
                "benign": [f"benign finding variant {i}" for i in range(n)],
                "malignant": [f"malignant finding variant {i}" for i in range(n)],
            },
            modalities={"benign": "ultrasound", "malignant": "ultrasound"},
        )

    def test_minimal_bank(self, small_handle):
        bank = PromptBank(
            prompts={"benign": ["a hypoechoic nodule"]},
            modalities={"benign": "ultrasound"},
        )
        out = encode_text_bank(small_handle, bank, ["benign"])
        assert out.shape == (1, small_handle.embedding_dim)

    def test_full_bank_shapes(self, small_handle):
        bank = self.make_bank(50)
        out = encode_text_bank(small_handle, bank, ["benign", "malignant"])
        assert out.shape == (100, small_handle.embedding_dim)
        norms = np.linalg.norm(out, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6

    def test_bit_identical_across_calls(self, small_handle):
        bank = self.make_bank(5)
        a = encode_text_bank(small_handle, bank, list(bank.prompts))
        b = encode_text_bank(small_handle, bank, list(bank.prompts))
        assert np.array_equal(a, b)

    def oracle(self, handle, bank, class_names):
        """Every prompt of ``class_names`` by the per-prompt formula, class-major."""
        return np.stack([
            per_prompt_encode(handle, p) for name in class_names for p in bank.prompts[name]
        ])

    def test_catalog_order_not_bank_order(self, small_handle):
        bank = self.make_bank(3)
        order = ["malignant", "benign"]  # the bank lists benign first
        out = encode_text_bank(small_handle, bank, order)
        assert np.max(np.abs(out - self.oracle(small_handle, bank, order))) < 1e-12

    def test_classes_outside_the_list_are_not_encoded(self, small_handle):
        bank = self.make_bank(3)
        bank.prompts["normal"] = ["unseen words only here", "other fresh words"]
        out = encode_text_bank(small_handle, bank, ["benign"])
        assert np.max(np.abs(out - self.oracle(small_handle, bank, ["benign"]))) < 1e-12
        assert "unseen" not in small_handle._token_cache

    def random_bank(self, seed):
        """Classes with disjoint vocabularies, one-token prompts, repeated
        tokens inside a prompt and a one-prompt class."""
        rng = np.random.default_rng(seed)
        prompts = {}
        for c in range(int(rng.integers(2, 5))):
            vocab = [f"w{c}x{j}" for j in range(int(rng.integers(1, 6)))]
            n = 1 if c == 0 else int(rng.integers(2, 7))
            rows = [" ".join(rng.choice(vocab, size=int(rng.integers(1, 6)))) for _ in range(n)]
            rows[-1] = f"{vocab[0]} {vocab[0]} {rows[-1]}"
            if n > 1:
                rows[0] = vocab[-1]
            prompts[f"class{c}"] = rows
        return PromptBank(prompts=prompts, modalities={name: "" for name in prompts})

    def test_matches_per_prompt_oracle(self, small_handle):
        for seed in range(20):
            bank = self.random_bank(seed)
            names = list(bank.prompts)
            out = encode_text_bank(small_handle, bank, names)
            oracle = self.oracle(small_handle, bank, names)
            assert out.shape == oracle.shape
            assert np.max(np.abs(out - oracle)) < 1e-12

    def test_float32_rows_equal_oracle(self, small_handle):
        bank = self.make_bank(50)
        names = ["benign", "malignant"]
        out = encode_text_bank(small_handle, bank, names)
        oracle = self.oracle(small_handle, bank, names)
        assert np.array_equal(out.astype(np.float32), oracle.astype(np.float32))

    def test_empty_prompts_name_class(self, small_handle):
        for prompts, match in (
            ([], "class 'cyst' has no prompts"),
            (["a", " "], "empty text under class 'cyst'"),
        ):
            bank = PromptBank(prompts={"benign": ["a b"], "cyst": prompts}, modalities={})
            with pytest.raises(DataError, match=match):
                encode_text_bank(small_handle, bank, ["benign", "cyst"])
        with pytest.raises(DataError, match="class 'lesion' has no prompts"):
            encode_text_bank(small_handle, bank, ["benign", "lesion"])

    def test_zero_embedding_names_prompt(self):
        class VoidEncoder(SyntheticTextEncoder):
            def token_vector(self, token):
                return np.zeros(self.token_width) if token == "void" else super().token_vector(token)

        bank = PromptBank(prompts={"benign": ["a b", "void void"]}, modalities={})
        with pytest.raises(DataError, match="zero-norm row 'void void'"):
            encode_text_bank(VoidEncoder(seed=5, embedding_dim=12, token_width=20), bank, ["benign"])


class TestVisionEncoder:
    def test_zero_features_map_to_normalized_bias(self):
        enc = SyntheticVisionEncoder(seed=4, feature_dim=6, embedding_dim=10)
        out = enc.encode(np.zeros((1, 6)))
        expected = enc.bias / np.linalg.norm(enc.bias)
        assert np.allclose(out[0], expected)

    def test_matches_affine_oracle(self):
        enc = SyntheticVisionEncoder(seed=4, feature_dim=6, embedding_dim=10)
        x = np.random.default_rng(1).standard_normal((1, 6))
        # matrix-multiply oracle: normalize(P @ x + b)
        raw = enc.projection @ x[0] + enc.bias
        oracle = raw / np.linalg.norm(raw)
        assert np.allclose(enc.encode(x)[0], oracle)

    def test_bits_match_out_of_place_formula(self):
        enc = SyntheticVisionEncoder(seed=7, feature_dim=12, embedding_dim=20)
        x = np.random.default_rng(3).standard_normal((50, 12)) * 4.0
        raw = x @ enc.projection.T + enc.bias
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        # float64 arithmetic, stored as float32: the cast the cache writer made
        assert np.array_equal(enc.encode(x), expected.astype(np.float32))

    def test_blocks_match_one_shot_formula(self):
        enc = SyntheticVisionEncoder(seed=7, feature_dim=12, embedding_dim=20)
        x = np.random.default_rng(4).standard_normal((2 * BLOCK_ROWS + 3, 12)).astype(np.float32)
        raw = x.astype(np.float64) @ enc.projection.T + enc.bias
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        out = enc.encode(x)
        assert out.dtype == np.float32 and out.shape == expected.shape
        # block products may round differently in the last float64 bits,
        # which moves a float32 value by at most one unit in the last place
        assert np.max(np.abs(out - expected)) <= 2.0**-24

    def test_zero_row_past_the_first_block_is_named(self):
        enc = SyntheticVisionEncoder(seed=4, feature_dim=6, embedding_dim=10)
        # no bias, so an all-zero feature row encodes to an exactly zero row
        enc.bias = np.zeros(10)
        x = np.random.default_rng(8).standard_normal((BLOCK_ROWS + 5, 6))
        x[BLOCK_ROWS + 2] = 0.0
        names = [f"it{i}" for i in range(len(x))]
        with pytest.raises(DataError, match=f"zero-norm row 'it{BLOCK_ROWS + 2}' in image"):
            enc.encode(x, names)
        with pytest.raises(DataError, match=f"zero-norm row {BLOCK_ROWS + 2} in image"):
            enc.encode(x)

    def test_out_takes_the_blocks_in_order(self):
        enc = SyntheticVisionEncoder(seed=7, feature_dim=12, embedding_dim=20)
        x = np.random.default_rng(5).standard_normal((2 * BLOCK_ROWS + 3, 12)).astype(np.float32)

        class Blocks(list):  # float64 rows, stored as float32 as an array stores them
            def __setitem__(self, span, rows):
                self.append((span, rows.astype(np.float32)))

        blocks = enc.encode(x, out=Blocks())
        assert [(span.start, span.stop) for span, _ in blocks] == [
            (0, BLOCK_ROWS), (BLOCK_ROWS, 2 * BLOCK_ROWS), (2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 3)
        ]
        assert np.array_equal(np.concatenate([rows for _, rows in blocks]), enc.encode(x))

    def test_zero_rejected(self):
        # a 1-d map, so that P @ (pinv(P) @ -b) cancels the bias exactly
        enc = SyntheticVisionEncoder(seed=4, feature_dim=1, embedding_dim=1)
        x = np.linalg.pinv(enc.projection) @ (-enc.bias)
        with pytest.raises(DataError, match="zero"):
            enc.encode(x[None, :])

    def test_unit_norm_rows(self):
        enc = SyntheticVisionEncoder(seed=4, feature_dim=6, embedding_dim=10)
        out = enc.encode(np.random.default_rng(2).standard_normal((8, 6)))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-6

    def test_wrong_feature_dim_rejected(self):
        enc = SyntheticVisionEncoder(seed=4, feature_dim=6, embedding_dim=10)
        with pytest.raises(DataError, match="shape"):
            enc.encode(np.zeros((2, 5)))


class TestCachedVisionSource:
    def make_source(self, rows=5, dim=8):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((rows, dim))
        values /= np.linalg.norm(values, axis=1, keepdims=True)
        matrix = EmbeddingMatrix(values=values.astype(np.float32))
        index = {f"img{i}": i for i in range(rows)}
        return CachedVisionSource(matrix=matrix, index=index)

    def test_selection_in_request_order(self):
        source = self.make_source()
        out = source.encode(["img3", "img0", "img4"])
        assert out.shape == (3, 8)
        ref = source.encode(["img3"])
        assert np.array_equal(out[0], ref[0])

    def test_no_ids_give_an_empty_matrix(self):
        out = self.make_source().encode([])
        assert out.shape == (0, 8)

    def test_missing_id_named(self):
        source = self.make_source()
        with pytest.raises(DataError, match="img99"):
            source.encode(["img0", "img99"])

    def test_rows_are_renormalized(self):
        source = self.make_source()
        out = source.encode([f"img{i}" for i in range(5)])
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12

    def test_bits_match_out_of_place_formula(self):
        values = np.random.default_rng(5).standard_normal((40, 8)).astype(np.float32) * 3.0
        source = CachedVisionSource(
            matrix=EmbeddingMatrix(values=values), index={f"img{i}": i for i in range(40)}
        )
        order = np.random.default_rng(6).permutation(40)[:25]
        rows = values[order].astype(np.float64)
        expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert np.array_equal(source.encode([f"img{i}" for i in order]), expected)

    def test_positions_are_the_indexed_rows(self):
        source = self.make_source()
        positions = source.positions(["img4", "img1", "img4"])
        assert positions.dtype == np.intp
        assert positions.tolist() == [4, 1, 4]
        assert source.positions([]).shape == (0,)
        with pytest.raises(DataError, match="'img99' not present in the embedding cache index"):
            source.positions(["img99"])

    def test_positions_of_an_array_of_ids(self):
        source = self.make_source()
        ids = np.array(["img2", "gone", "img0", "lost"], dtype=object)
        assert source.positions(ids[[0, 2]]).tolist() == [2, 0]
        with pytest.raises(DataError, match="'gone' not present"):
            source.positions(ids)

    def test_index_outside_matrix_rejected(self):
        with pytest.raises(DataError, match="outside"):
            CachedVisionSource(
                matrix=EmbeddingMatrix(values=np.ones((2, 3), dtype=np.float32)),
                index={"a": 5},
            )


class TestFreezing:
    def test_text_parameters_unchanged_by_use(self, small_handle):
        before = small_handle.parameter_digest()
        ctx = init_context(small_handle, "a photo of a", 4)
        encode_context(small_handle, ctx, ["glioma", "meningioma", "pituitary"])
        encode_text_bank(
            small_handle,
            PromptBank(prompts={"x": ["some finding"]}, modalities={"x": "mri"}),
            ["x"],
        )
        assert small_handle.parameter_digest() == before

    def test_projection_is_read_only(self, small_handle):
        with pytest.raises(ValueError):
            small_handle.projection[0, 0] = 1.0

    def test_same_seed_same_parameters(self):
        a = SyntheticTextEncoder(seed=42, embedding_dim=8, token_width=10)
        b = SyntheticTextEncoder(seed=42, embedding_dim=8, token_width=10)
        assert a.parameter_digest() == b.parameter_digest()
        assert np.array_equal(a.token_vector("glioma"), b.token_vector("glioma"))
        c = SyntheticTextEncoder(seed=43, embedding_dim=8, token_width=10)
        assert c.parameter_digest() != a.parameter_digest()
