"""Tests for the model zoo and the layer builder."""

import pytest

from repro.errors import ModelError
from repro.graph import expand_training
from repro.graph.tensor import TensorKind
from repro.models import (
    ModelBuilder,
    available_models,
    build_model,
    model_description,
)
from repro.models.registry import FIGURE11_BATCH_SIZES, normalize_model_name


class TestRegistry:
    def test_all_five_paper_models_available(self):
        assert set(available_models()) == {
            "bert", "vit", "inceptionv3", "resnet152", "senet154",
        }

    @pytest.mark.parametrize("name", ["BERT", "ViT", "ResNet-152", "resnet", "SENet_154", "inception"])
    def test_name_normalisation(self, name):
        assert normalize_model_name(name) in available_models()

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            normalize_model_name("alexnet")

    def test_descriptions_cover_table1(self):
        for model in available_models():
            description = model_description(model)
            assert {"display", "source", "dataset"} <= set(description)

    def test_figure11_batch_sizes_match_paper(self):
        assert FIGURE11_BATCH_SIZES == {
            "bert": 256,
            "vit": 1280,
            "inceptionv3": 1536,
            "resnet152": 1280,
            "senet154": 1024,
        }


@pytest.mark.parametrize("model", ["bert", "vit", "inceptionv3", "resnet152", "senet154"])
class TestModelConstruction:
    def test_builds_and_validates(self, model):
        graph = build_model(model, batch_size=2)
        graph.validate()
        assert graph.num_operators > 10

    def test_batch_size_is_first_dimension(self, model):
        graph = build_model(model, batch_size=3)
        activations = [t for t in graph.tensors if t.kind is TensorKind.ACTIVATION]
        assert activations
        assert all(t.shape[0] == 3 for t in activations if len(t.shape) > 1)

    def test_has_trainable_weights(self, model):
        graph = build_model(model, batch_size=2)
        assert graph.total_weight_bytes() > 0

    def test_footprint_grows_with_batch_size(self, model):
        small = build_model(model, batch_size=2)
        large = build_model(model, batch_size=4)
        small_act = sum(t.size_bytes for t in small.tensors if t.kind is TensorKind.ACTIVATION)
        large_act = sum(t.size_bytes for t in large.tensors if t.kind is TensorKind.ACTIVATION)
        assert large_act > 1.5 * small_act

    def test_weights_do_not_grow_with_batch_size(self, model):
        small = build_model(model, batch_size=2)
        large = build_model(model, batch_size=8)
        assert small.total_weight_bytes() == large.total_weight_bytes()

    def test_expands_to_training_iteration(self, model):
        graph = build_model(model, batch_size=2)
        training = expand_training(graph)
        assert training.num_kernels > graph.num_operators


class TestKernelCounts:
    """Kernel counts should be of the same order as Table 1 of the paper."""

    EXPECTED = {
        "bert": (1368, 300, 2200),
        "vit": (1435, 300, 2200),
        "inceptionv3": (740, 400, 1500),
        "resnet152": (1298, 700, 2200),
        "senet154": (2318, 1200, 3500),
    }

    @pytest.mark.parametrize("model", list(EXPECTED))
    def test_kernel_count_in_expected_band(self, model):
        _, low, high = self.EXPECTED[model]
        training = expand_training(build_model(model, batch_size=2))
        assert low <= training.num_kernels <= high


class TestBuilderLayers:
    def test_conv_output_shape(self):
        builder = ModelBuilder(name="t", batch_size=2)
        x = builder.input_image(3, 32, 32)
        out = builder.conv2d(x, 16, kernel_size=3, stride=2, padding=1)
        assert out.shape == (2, 16, 16, 16)

    def test_conv_collapse_rejected(self):
        builder = ModelBuilder(name="t", batch_size=1)
        x = builder.input_image(3, 4, 4)
        with pytest.raises(ModelError):
            builder.conv2d(x, 8, kernel_size=7, stride=4, padding=0)

    def test_grouped_conv_is_tagged(self):
        builder = ModelBuilder(name="t", batch_size=1)
        x = builder.input_image(64, 8, 8)
        builder.conv2d(x, 64, kernel_size=3, groups=32)
        assert builder.graph.operators[-1].compute_class == "grouped_conv"

    def test_linear_is_tagged_gemm(self):
        builder = ModelBuilder(name="t", batch_size=1)
        x = builder.graph.add_tensor("x", (1, 16), TensorKind.INPUT)
        builder.linear(x, 8)
        assert builder.graph.operators[-1].compute_class == "gemm"

    def test_pool_halves_spatial_dims(self):
        builder = ModelBuilder(name="t", batch_size=1)
        x = builder.input_image(8, 16, 16)
        out = builder.pool(x, kernel_size=2)
        assert out.shape == (1, 8, 8, 8)

    def test_global_pool_collapses_spatial_dims(self):
        builder = ModelBuilder(name="t", batch_size=2)
        x = builder.input_image(8, 16, 16)
        out = builder.global_pool(x)
        assert out.shape == (2, 8)

    def test_add_requires_matching_shapes(self):
        builder = ModelBuilder(name="t", batch_size=1)
        a = builder.input_image(3, 8, 8)
        b = builder.graph.add_tensor("b", (1, 3, 4, 4), TensorKind.INPUT)
        with pytest.raises(ModelError):
            builder.add(a, b)

    def test_concat_sums_channels(self):
        builder = ModelBuilder(name="t", batch_size=1)
        x = builder.input_image(3, 8, 8)
        a = builder.conv2d(x, 4, 1)
        b = builder.conv2d(x, 6, 1)
        out = builder.concat([a, b])
        assert out.shape == (1, 10, 8, 8)

    def test_concat_empty_rejected(self):
        builder = ModelBuilder(name="t", batch_size=1)
        with pytest.raises(ModelError):
            builder.concat([])

    def test_inplace_relu_reuses_tensor(self):
        builder = ModelBuilder(name="t", batch_size=1)
        x = builder.input_image(3, 8, 8)
        y = builder.conv2d(x, 4, 3)
        z = builder.relu(y, inplace=True)
        assert z.tensor_id == y.tensor_id

    def test_out_of_place_relu_creates_tensor(self):
        builder = ModelBuilder(name="t", batch_size=1)
        x = builder.input_image(3, 8, 8)
        y = builder.conv2d(x, 4, 3)
        z = builder.relu(y, inplace=False)
        assert z.tensor_id != y.tensor_id

    def test_reshape_conserves_elements(self):
        builder = ModelBuilder(name="t", batch_size=2)
        x = builder.input_image(4, 4, 4)
        out = builder.reshape(x, (2, 64))
        assert out.shape == (2, 64)

    def test_reshape_rejects_element_mismatch(self):
        builder = ModelBuilder(name="t", batch_size=2)
        x = builder.input_image(4, 4, 4)
        with pytest.raises(ModelError):
            builder.reshape(x, (2, 63))

    def test_attention_emits_quadratic_score_tensor(self):
        builder = ModelBuilder(name="t", batch_size=2)
        tokens = builder.graph.add_tensor("x", (2, 16, 32), TensorKind.INPUT)
        builder.attention(tokens, num_heads=4)
        score_tensors = [t for t in builder.graph.tensors if "scores" in t.name]
        assert any(t.shape == (2, 4, 16, 16) for t in score_tensors)

    def test_attention_rejects_bad_head_count(self):
        builder = ModelBuilder(name="t", batch_size=1)
        tokens = builder.graph.add_tensor("x", (1, 16, 30), TensorKind.INPUT)
        with pytest.raises(ModelError):
            builder.attention(tokens, num_heads=4)

    def test_embedding_shape(self):
        builder = ModelBuilder(name="t", batch_size=2)
        tokens = builder.input_tokens(seq_len=10)
        out = builder.embedding(tokens, vocab_size=100, hidden=16)
        assert out.shape == (2, 10, 16)

    def test_nonpositive_batch_rejected(self):
        # 2**53 is the pressure timeline's byte bound; 10**400 overflows a float.
        for batch_size in (0, 2**53, 10**400):
            with pytest.raises(ModelError):
                ModelBuilder(name="t", batch_size=batch_size)
