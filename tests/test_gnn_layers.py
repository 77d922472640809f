"""Tests for blocks, GNN layers (incl. gradient checks), and models."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ConfigurationError, GraphFormatError
from repro.gnn import (
    Block,
    CommNetLayer,
    GATLayer,
    GCNLayer,
    GGNNLayer,
    GINLayer,
    GraphSAGELayer,
    GNNModel,
    MODEL_REGISTRY,
    build_model,
)
from repro.graph import toy_graph

from tests.conftest import numeric_gradient

ALL_LAYERS = [GCNLayer, GraphSAGELayer, GINLayer, CommNetLayer, GATLayer,
              GGNNLayer]
CACHEABLE_LAYERS = [GCNLayer, GraphSAGELayer, GINLayer, CommNetLayer]


def toy_block():
    return Block.from_graph(toy_graph())


class TestBlock:
    def test_from_graph_dimensions(self):
        block = toy_block()
        assert block.num_src == 8
        assert block.num_dst == 8
        assert block.num_edges == 17

    def test_dst_pos_identity_for_full_graph(self):
        block = toy_block()
        np.testing.assert_array_equal(block.dst_pos, np.arange(8))

    def test_in_degrees(self):
        block = toy_block()
        assert block.in_degrees().sum() == 17

    def test_edge_src_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([5]), edge_dst=np.array([0]),
                  num_dst=1, num_src=2, dst_pos=np.array([0]))

    def test_edge_dst_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([0]), edge_dst=np.array([3]),
                  num_dst=1, num_src=2, dst_pos=np.array([0]))

    def test_edges_not_destination_major(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([0, 1]), edge_dst=np.array([1, 0]),
                  num_dst=2, num_src=2, dst_pos=np.array([0, 1]))

    def test_dst_pos_repeats(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([0]), edge_dst=np.array([0]),
                  num_dst=2, num_src=2, dst_pos=np.array([1, 1]))

    def test_dst_pos_length(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([0]), edge_dst=np.array([0]),
                  num_dst=2, num_src=2, dst_pos=np.array([0]))

    def test_edge_weight_parallel(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([0]), edge_dst=np.array([0]),
                  num_dst=1, num_src=1, dst_pos=np.array([0]),
                  edge_weight=np.ones(3))


@pytest.mark.parametrize("layer_cls", ALL_LAYERS)
class TestLayerCommon:
    def test_forward_shape(self, layer_cls, rng):
        layer = layer_cls(4, 6, rng)
        block = toy_block()
        out = layer(block, Tensor(rng.standard_normal((8, 4))))
        assert out.shape == (8, 6)

    def test_forward_deterministic(self, layer_cls, rng):
        layer = layer_cls(4, 6, rng)
        block = toy_block()
        x = rng.standard_normal((8, 4))
        a = layer(block, Tensor(x)).data
        b = layer(block, Tensor(x)).data
        np.testing.assert_array_equal(a, b)

    def test_gradcheck_input(self, layer_cls, rng):
        layer = layer_cls(3, 4, rng)
        block = toy_block()
        x = rng.standard_normal((8, 3))
        seed = rng.standard_normal((8, 4))

        x_t = Tensor(x, requires_grad=True)
        layer(block, x_t).backward(seed)

        def scalar():
            return float((layer(block, Tensor(x)).data * seed).sum())

        numeric = numeric_gradient(scalar, x)
        np.testing.assert_allclose(x_t.grad, numeric, atol=1e-5)

    def test_gradcheck_parameters(self, layer_cls, rng):
        layer = layer_cls(3, 4, rng)
        block = toy_block()
        x = rng.standard_normal((8, 3))
        seed = rng.standard_normal((8, 4))
        # Nudge every parameter off zero so no ReLU pre-activation sits
        # exactly at the kink (zero-init biases otherwise make dead rows'
        # pre-activations exactly 0, where numeric/analytic subgradients
        # legitimately differ).
        for _, param in layer.named_parameters():
            param.data = param.data + 0.05 * rng.standard_normal(param.shape)
        layer.zero_grad()
        layer(block, Tensor(x)).backward(seed)

        for name, param in layer.named_parameters():
            def scalar():
                return float((layer(block, Tensor(x)).data * seed).sum())

            numeric = numeric_gradient(scalar, param.data)
            np.testing.assert_allclose(
                param.grad, numeric, atol=1e-5,
                err_msg=f"{layer_cls.__name__}.{name}",
            )

    def test_flops_positive(self, layer_cls, rng):
        layer = layer_cls(8, 8, rng)
        assert layer.aggregate_flops(100, 50, 400) > 0
        assert layer.update_flops(50) > 0
        assert layer.forward_flops(100, 50, 400) == (
            layer.aggregate_flops(100, 50, 400) + layer.update_flops(50)
        )

    def test_workspace_positive(self, layer_cls, rng):
        layer = layer_cls(8, 8, rng)
        assert layer.forward_workspace_scalars(100, 50, 400) > 0

    def test_invalid_dims(self, layer_cls, rng):
        with pytest.raises(ConfigurationError):
            layer_cls(0, 4, rng)


@pytest.mark.parametrize("layer_cls", CACHEABLE_LAYERS)
class TestCacheableAggregates:
    def test_flag(self, layer_cls, rng):
        assert layer_cls(4, 4, rng).cacheable_aggregate

    def test_aggregate_backward_matches_autograd(self, layer_cls, rng):
        """The closed-form adjoint must equal the tape's aggregate grad."""
        layer = layer_cls(4, 4, rng)
        block = toy_block()
        x = rng.standard_normal((8, 4))
        grad_agg = rng.standard_normal((8, 4))

        x_t = Tensor(x, requires_grad=True)
        layer.aggregate(block, x_t).backward(grad_agg)
        closed_form = layer.aggregate_backward(block, grad_agg)
        np.testing.assert_allclose(closed_form, x_t.grad, atol=1e-12)

    def test_aggregate_linear_in_input(self, layer_cls, rng):
        """Cacheable aggregates are linear maps of the input rows."""
        layer = layer_cls(4, 4, rng)
        block = toy_block()
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal((8, 4))
        def agg(x):
            return layer.aggregate(block, Tensor(x)).data

        np.testing.assert_allclose(
            agg(a) + agg(b), agg(a + b), atol=1e-10
        )


LINEAR_AGGREGATE_LAYERS = CACHEABLE_LAYERS + [GGNNLayer]
WEIGHTED_LAYERS = (GCNLayer, GGNNLayer)
MEAN_LAYERS = (GraphSAGELayer, CommNetLayer)


def oracle_blocks(weighted):
    """A block with multi-edges and an isolated destination, and an
    edge-less block; ``weighted`` attaches constant edge weights."""
    edge_src = np.array([0, 3, 3, 1, 4, 2, 4, 4, 0])
    edge_dst = np.array([0, 0, 0, 1, 1, 3, 3, 3, 3])
    weights = np.random.default_rng(7).random(len(edge_src))
    return [
        Block(edge_src=edge_src, edge_dst=edge_dst, num_dst=4, num_src=6,
              dst_pos=np.array([5, 0, 2, 1]),
              edge_weight=weights if weighted else None),
        Block(edge_src=np.empty(0, dtype=np.int64),
              edge_dst=np.empty(0, dtype=np.int64), num_dst=3, num_src=4,
              dst_pos=np.array([0, 1, 2]),
              edge_weight=np.empty(0) if weighted else None),
    ]


def inv_degree(block):
    return (1.0 / np.maximum(block.in_degrees(), 1)).reshape(-1, 1)


def reference_aggregate(layer, block, x):
    """Per-edge gather + ``np.add.at`` reference for a linear aggregate."""
    rows = x @ layer.message.weight.data if isinstance(layer, GGNNLayer) else x
    messages = rows[block.edge_src]
    if block.edge_weight is not None and isinstance(layer, WEIGHTED_LAYERS):
        messages = messages * block.edge_weight.reshape(-1, 1)
    out = np.zeros((block.num_dst, rows.shape[1]), dtype=messages.dtype)
    np.add.at(out, block.edge_dst, messages)
    return out * inv_degree(block) if isinstance(layer, MEAN_LAYERS) else out


def reference_edge_sum_adjoint(layer, block, grad_agg):
    """Per-edge ``np.add.at`` scatter of ∇agg back onto the summed rows."""
    if isinstance(layer, MEAN_LAYERS):
        grad_agg = grad_agg * inv_degree(block)
    grad_messages = grad_agg[block.edge_dst]
    if block.edge_weight is not None and isinstance(layer, WEIGHTED_LAYERS):
        grad_messages = grad_messages * block.edge_weight.reshape(-1, 1)
    out = np.zeros((block.num_src, grad_agg.shape[1]),
                   dtype=grad_messages.dtype)
    np.add.at(out, block.edge_src, grad_messages)
    return out


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("layer_cls", LINEAR_AGGREGATE_LAYERS)
class TestLinearAggregateOracle:
    """The SpMM aggregates are bit-identical to per-edge ``np.add.at``."""

    def test_matches_per_edge_reference_exactly(self, layer_cls, weighted,
                                                rng):
        layer = layer_cls(3, 5, rng)
        for block in oracle_blocks(weighted):
            x = rng.standard_normal((block.num_src, 3))
            x_t = Tensor(x, requires_grad=True)
            agg = layer.aggregate(block, x_t)
            grad_agg = rng.standard_normal(agg.shape)
            agg.backward(grad_agg)

            adjoint = reference_edge_sum_adjoint(layer, block, grad_agg)
            expected_grad = (adjoint @ layer.message.weight.data.T
                             if isinstance(layer, GGNNLayer) else adjoint)
            assert np.array_equal(agg.data, reference_aggregate(layer, block, x))
            assert np.array_equal(x_t.grad, expected_grad)
            if layer.cacheable_aggregate:
                assert np.array_equal(
                    layer.aggregate_backward(block, grad_agg), adjoint)

    def test_float32_keeps_output_dtype(self, layer_cls, weighted, rng):
        layer = layer_cls(3, 5, rng, dtype=np.float32)
        block = oracle_blocks(weighted)[0]
        x = rng.standard_normal((block.num_src, 3)).astype(np.float32)
        agg = layer.aggregate(block, Tensor(x))
        assert agg.dtype == reference_aggregate(layer, block, x).dtype
        if isinstance(layer, GINLayer) or (
                isinstance(layer, GCNLayer) and not weighted):
            assert agg.dtype == np.float32  # unweighted sums never upcast
        if layer.cacheable_aggregate:
            grad_agg = rng.standard_normal(agg.shape).astype(np.float32)
            assert layer.aggregate_backward(block, grad_agg).dtype == np.float32


class TestGAT:
    def test_not_cacheable(self, rng):
        assert not GATLayer(4, 4, rng).cacheable_aggregate

    def test_aggregate_backward_raises(self, rng):
        with pytest.raises(NotImplementedError):
            GATLayer(4, 4, rng).aggregate_backward(toy_block(),
                                                   np.zeros((8, 4)))

    def test_multi_head_shapes(self, rng):
        layer = GATLayer(4, 8, rng, num_heads=2)
        out = layer(toy_block(), Tensor(rng.standard_normal((8, 4))))
        assert out.shape == (8, 8)

    def test_multi_head_gradcheck(self, rng):
        layer = GATLayer(3, 4, rng, num_heads=2)
        block = toy_block()
        x = rng.standard_normal((8, 3))
        seed = rng.standard_normal((8, 4))
        x_t = Tensor(x, requires_grad=True)
        layer(block, x_t).backward(seed)

        def scalar():
            return float((layer(block, Tensor(x)).data * seed).sum())

        numeric = numeric_gradient(scalar, x)
        np.testing.assert_allclose(x_t.grad, numeric, atol=1e-5)

    def test_heads_must_divide(self, rng):
        with pytest.raises(ConfigurationError):
            GATLayer(4, 6, rng, num_heads=4)

    def test_attention_is_convex_combination(self, rng):
        """With identical inputs everywhere, GAT output = W h (softmax
        weights sum to 1)."""
        layer = GATLayer(4, 4, rng, activation=None)
        block = toy_block()
        x = np.tile(rng.standard_normal(4), (8, 1))
        out = layer(block, Tensor(x))
        expected = x @ layer.weight.data
        # Destinations with at least one in-edge equal W h exactly.
        has_edges = block.in_degrees() > 0
        np.testing.assert_allclose(out.data[has_edges],
                                   expected[has_edges], atol=1e-10)

    def test_edge_dominated_workspace(self, rng):
        """GAT workspace must grow with |E| (the paper's Table 1 point)."""
        layer = GATLayer(8, 8, rng)
        sparse = layer.forward_workspace_scalars(100, 100, 200)
        dense = layer.forward_workspace_scalars(100, 100, 20000)
        assert dense > 10 * sparse


class TestModels:
    def test_build_model_dims(self, rng):
        model = build_model("gcn", [16, 8, 4], rng)
        assert model.num_layers == 2
        assert model.dims == [16, 8, 4]

    def test_last_layer_no_activation(self, rng):
        model = build_model("gcn", [16, 8, 4], rng)
        assert model.layers[0].activation == "relu"
        assert model.layers[-1].activation is None

    def test_gat_uses_elu(self, rng):
        model = build_model("gat", [16, 8, 4], rng)
        assert model.layers[0].activation == "elu"

    def test_registry_complete(self):
        assert set(MODEL_REGISTRY) == {"gcn", "gat", "graphsage", "gin",
                                       "commnet", "ggnn"}

    def test_unknown_arch(self, rng):
        with pytest.raises(ConfigurationError):
            build_model("transformer", [4, 2], rng)

    def test_too_few_dims(self, rng):
        with pytest.raises(ConfigurationError):
            build_model("gcn", [4], rng)

    def test_dim_mismatch_detected(self, rng):
        layers = [GCNLayer(4, 8, rng), GCNLayer(16, 2, rng)]
        with pytest.raises(ConfigurationError):
            GNNModel(layers)

    def test_empty_model(self):
        with pytest.raises(ConfigurationError):
            GNNModel([])

    def test_uses_edge_nn(self, rng):
        assert build_model("gat", [4, 4, 2], rng).uses_edge_nn()
        assert not build_model("gcn", [4, 4, 2], rng).uses_edge_nn()

    def test_forward_runs_stack(self, rng):
        model = build_model("graphsage", [4, 8, 3], rng)
        out = model(toy_block(), Tensor(rng.standard_normal((8, 4))))
        assert out.shape == (8, 3)

    def test_forward_flops_sums_layers(self, rng):
        model = build_model("gcn", [4, 8, 3], rng)
        total = model.forward_flops(8, 8, 17)
        assert total == sum(
            layer.forward_flops(8, 8, 17) for layer in model.layers
        )
