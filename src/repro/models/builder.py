"""High-level layer builder over the raw dataflow graph.

The builder exposes one method per layer type found in the evaluated models
(convolutions, normalisations, activations, pooling, linear layers, attention,
embeddings and elementwise ops). Each method registers the weight tensors,
computes output shapes and forward FLOPs, and appends an operator to the
underlying :class:`~repro.graph.DataflowGraph`.

Shape conventions:

* CNN activations are ``(N, C, H, W)``.
* Transformer activations are ``(N, S, D)`` (batch, sequence, hidden).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ModelError
from ..graph.dataflow import DataflowGraph
from ..graph.operator import OpType
from ..graph.tensor import TensorInfo, TensorKind


@dataclass
class ModelBuilder:
    """Incrementally builds the forward graph of one model."""

    name: str
    batch_size: int

    def __post_init__(self) -> None:
        # Kernel FLOP counts are floats of element counts, and the pressure
        # timeline bounds byte counts at 2**53, so no larger batch can run.
        if not 0 < self.batch_size < 2**53:
            raise ModelError("batch size must be positive and below 2**53")
        self.graph = DataflowGraph(name=self.name, batch_size=self.batch_size)
        self._layer_counter = 0

    # -- internals -------------------------------------------------------

    def _next_name(self, prefix: str) -> str:
        self._layer_counter += 1
        return f"{prefix}_{self._layer_counter}"

    def _activation(self, name: str, shape: tuple[int, ...]) -> TensorInfo:
        return self.graph.add_tensor(name, shape, TensorKind.ACTIVATION)

    def _weight(self, name: str, shape: tuple[int, ...]) -> TensorInfo:
        return self.graph.add_tensor(name, shape, TensorKind.WEIGHT)

    # -- inputs ----------------------------------------------------------

    def input_image(self, channels: int, height: int, width: int, name: str = "input") -> TensorInfo:
        """Register the model input as an image batch ``(N, C, H, W)``."""
        return self.graph.add_tensor(
            name, (self.batch_size, channels, height, width), TensorKind.INPUT
        )

    def input_tokens(self, seq_len: int, name: str = "input_ids") -> TensorInfo:
        """Register the model input as a token-id batch ``(N, S)``."""
        return self.graph.add_tensor(name, (self.batch_size, seq_len), TensorKind.INPUT)

    # -- convolutional layers ----------------------------------------------

    def conv2d(
        self,
        x: TensorInfo,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | None = None,
        groups: int = 1,
        prefix: str = "conv",
    ) -> TensorInfo:
        """2-D convolution. Returns the output activation."""
        n, c, h, w = x.shape
        if padding is None:
            padding = kernel_size // 2
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ModelError(
                f"conv2d output collapsed to {out_h}x{out_w} for input {x.shape}"
            )
        name = self._next_name(prefix)
        weight = self._weight(
            f"{name}.weight", (out_channels, c // groups, kernel_size, kernel_size)
        )
        out = self._activation(f"{name}.out", (n, out_channels, out_h, out_w))
        flops = 2.0 * n * out_channels * out_h * out_w * (c // groups) * kernel_size * kernel_size
        workspace = int(min(flops / 64.0, 256 * 1024 * 1024))
        self.graph.add_operator(
            name,
            OpType.CONV2D,
            inputs=[x],
            outputs=[out],
            weights=[weight],
            flops=flops,
            workspace_bytes=workspace,
            compute_class="grouped_conv" if groups > 1 else "conv",
        )
        return out

    def batchnorm(self, x: TensorInfo, prefix: str = "bn") -> TensorInfo:
        """Batch normalisation over channels of ``(N, C, H, W)``."""
        n, c, *_rest = x.shape
        name = self._next_name(prefix)
        weight = self._weight(f"{name}.scale_bias", (2, c))
        out = self._activation(f"{name}.out", x.shape)
        flops = 8.0 * x.num_elements
        self.graph.add_operator(
            name, OpType.BATCHNORM, inputs=[x], outputs=[out], weights=[weight], flops=flops
        )
        return out

    def relu(self, x: TensorInfo, prefix: str = "relu", inplace: bool = False) -> TensorInfo:
        """ReLU activation.

        With ``inplace=True`` the activation overwrites its input (as
        torchvision CNNs do), so no new tensor is allocated.
        """
        name = self._next_name(prefix)
        out = x if inplace else self._activation(f"{name}.out", x.shape)
        self.graph.add_operator(
            name, OpType.RELU, inputs=[x], outputs=[out], flops=float(x.num_elements)
        )
        return out

    def sigmoid(self, x: TensorInfo, prefix: str = "sigmoid") -> TensorInfo:
        """Sigmoid activation (used by the SE blocks of SENet)."""
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", x.shape)
        self.graph.add_operator(
            name, OpType.SIGMOID, inputs=[x], outputs=[out], flops=4.0 * x.num_elements
        )
        return out

    def pool(
        self,
        x: TensorInfo,
        kernel_size: int,
        stride: int | None = None,
        padding: int = 0,
        prefix: str = "pool",
    ) -> TensorInfo:
        """Max/average pooling of an image batch."""
        n, c, h, w = x.shape
        stride = stride or kernel_size
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ModelError(f"pool output collapsed for input {x.shape}")
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", (n, c, out_h, out_w))
        flops = float(n * c * out_h * out_w * kernel_size * kernel_size)
        self.graph.add_operator(name, OpType.POOL, inputs=[x], outputs=[out], flops=flops)
        return out

    def global_pool(self, x: TensorInfo, prefix: str = "gap") -> TensorInfo:
        """Global average pooling producing ``(N, C)``."""
        n, c, *_rest = x.shape
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", (n, c))
        self.graph.add_operator(
            name, OpType.GLOBAL_POOL, inputs=[x], outputs=[out], flops=float(x.num_elements)
        )
        return out

    # -- elementwise -------------------------------------------------------

    def add(self, a: TensorInfo, b: TensorInfo, prefix: str = "add") -> TensorInfo:
        """Elementwise residual addition."""
        if a.shape != b.shape:
            raise ModelError(f"add requires matching shapes, got {a.shape} vs {b.shape}")
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", a.shape)
        self.graph.add_operator(
            name, OpType.ADD, inputs=[a, b], outputs=[out], flops=float(a.num_elements)
        )
        return out

    def mul(self, a: TensorInfo, b: TensorInfo, prefix: str = "mul") -> TensorInfo:
        """Elementwise (broadcast) multiplication, e.g. SE channel re-weighting."""
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", a.shape)
        self.graph.add_operator(
            name, OpType.MUL, inputs=[a, b], outputs=[out], flops=float(a.num_elements)
        )
        return out

    def concat(self, parts: list[TensorInfo], prefix: str = "concat") -> TensorInfo:
        """Channel-wise concatenation of image batches (Inception modules)."""
        if not parts:
            raise ModelError("concat needs at least one input")
        n, _, h, w = parts[0].shape
        for p in parts:
            if p.shape[0] != n or p.shape[2:] != (h, w):
                raise ModelError("concat inputs must share batch and spatial dims")
        channels = sum(p.shape[1] for p in parts)
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", (n, channels, h, w))
        self.graph.add_operator(
            name,
            OpType.CONCAT,
            inputs=list(parts),
            outputs=[out],
            flops=float(out.num_elements),
        )
        return out

    def reshape(self, x: TensorInfo, shape: tuple[int, ...], prefix: str = "reshape") -> TensorInfo:
        """Reshape/flatten an activation (zero-FLOP copy kernel)."""
        if math.prod(shape) != x.num_elements:
            raise ModelError(
                f"reshape from {x.shape} to {shape} changes the element count"
            )
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", shape)
        self.graph.add_operator(
            name, OpType.RESHAPE, inputs=[x], outputs=[out], flops=float(x.num_elements)
        )
        return out

    def dropout(self, x: TensorInfo, prefix: str = "dropout") -> TensorInfo:
        """Dropout (keeps a mask-sized activation alive for backward)."""
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", x.shape)
        self.graph.add_operator(
            name, OpType.DROPOUT, inputs=[x], outputs=[out], flops=float(x.num_elements)
        )
        return out

    # -- dense / transformer -------------------------------------------------

    def linear(self, x: TensorInfo, out_features: int, prefix: str = "fc") -> TensorInfo:
        """Fully-connected layer over the last dimension."""
        *lead, in_features = x.shape
        name = self._next_name(prefix)
        weight = self._weight(f"{name}.weight", (out_features, in_features))
        out = self._activation(f"{name}.out", (*lead, out_features))
        rows = 1
        for d in lead:
            rows *= d
        flops = 2.0 * rows * in_features * out_features
        self.graph.add_operator(
            name,
            OpType.LINEAR,
            inputs=[x],
            outputs=[out],
            weights=[weight],
            flops=flops,
            workspace_bytes=int(min(flops / 128.0, 128 * 1024 * 1024)),
            compute_class="gemm",
        )
        return out

    def layernorm(self, x: TensorInfo, prefix: str = "ln") -> TensorInfo:
        """Layer normalisation over the hidden dimension."""
        hidden = x.shape[-1]
        name = self._next_name(prefix)
        weight = self._weight(f"{name}.scale_bias", (2, hidden))
        out = self._activation(f"{name}.out", x.shape)
        self.graph.add_operator(
            name,
            OpType.LAYERNORM,
            inputs=[x],
            outputs=[out],
            weights=[weight],
            flops=8.0 * x.num_elements,
        )
        return out

    def gelu(self, x: TensorInfo, prefix: str = "gelu") -> TensorInfo:
        """GELU activation."""
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", x.shape)
        self.graph.add_operator(
            name, OpType.GELU, inputs=[x], outputs=[out], flops=8.0 * x.num_elements
        )
        return out

    def softmax(self, x: TensorInfo, prefix: str = "softmax") -> TensorInfo:
        """Softmax over the last dimension."""
        name = self._next_name(prefix)
        out = self._activation(f"{name}.out", x.shape)
        self.graph.add_operator(
            name, OpType.SOFTMAX, inputs=[x], outputs=[out], flops=5.0 * x.num_elements
        )
        return out

    def embedding(
        self, tokens: TensorInfo, vocab_size: int, hidden: int, prefix: str = "embedding"
    ) -> TensorInfo:
        """Token embedding lookup producing ``(N, S, D)``."""
        n, s = tokens.shape
        name = self._next_name(prefix)
        table = self._weight(f"{name}.table", (vocab_size, hidden))
        out = self._activation(f"{name}.out", (n, s, hidden))
        self.graph.add_operator(
            name,
            OpType.EMBEDDING,
            inputs=[tokens],
            outputs=[out],
            weights=[table],
            flops=float(out.num_elements),
        )
        return out

    def attention(
        self, x: TensorInfo, num_heads: int, prefix: str = "attn"
    ) -> TensorInfo:
        """Multi-head self-attention block (Q/K/V projections, scores, context, output).

        Emits the same kernel decomposition a framework produces: three input
        projections, the score matmul + softmax, the context matmul, and the
        output projection. The score tensor of shape ``(N, H, S, S)`` is what
        makes transformer memory footprints balloon with batch size.
        """
        n, s, d = x.shape
        if d % num_heads:
            raise ModelError(f"hidden dim {d} not divisible by heads {num_heads}")
        q = self.linear(x, d, prefix=f"{prefix}_q")
        k = self.linear(x, d, prefix=f"{prefix}_k")
        v = self.linear(x, d, prefix=f"{prefix}_v")

        name = self._next_name(f"{prefix}_scores")
        scores = self._activation(f"{name}.out", (n, num_heads, s, s))
        score_flops = 2.0 * n * num_heads * s * s * (d // num_heads)
        self.graph.add_operator(
            name,
            OpType.ATTENTION_SCORE,
            inputs=[q, k],
            outputs=[scores],
            flops=score_flops,
            compute_class="gemm",
        )
        probs = self.softmax(scores, prefix=f"{prefix}_softmax")

        name = self._next_name(f"{prefix}_context")
        context = self._activation(f"{name}.out", (n, s, d))
        context_flops = 2.0 * n * num_heads * s * s * (d // num_heads)
        self.graph.add_operator(
            name,
            OpType.ATTENTION_CONTEXT,
            inputs=[probs, v],
            outputs=[context],
            flops=context_flops,
            compute_class="gemm",
        )
        return self.linear(context, d, prefix=f"{prefix}_out")

    # -- finishing ---------------------------------------------------------

    def classifier(self, x: TensorInfo, num_classes: int) -> TensorInfo:
        """Final linear classifier + softmax head."""
        logits = self.linear(x, num_classes, prefix="classifier")
        return self.softmax(logits, prefix="predictions")

    def build(self) -> DataflowGraph:
        """Validate and return the finished forward graph."""
        self.graph.validate()
        return self.graph
