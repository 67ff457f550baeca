"""Neural-network layers (Linear, Conv2d, MaxPool2d, ReLU, Flatten, Sequential, Dropout).

These provide the building blocks for the CNN the APPFL paper uses in its
demonstration: "two 2D convolution layers, a 2D max pooling layer, the
elementwise rectified linear unit function, and two layers of linear
transformation" (Section IV-A).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "ReLU",
    "Flatten",
    "Dropout",
    "Sequential",
]


class Linear(Module):
    """Fully connected layer: ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else np.random.default_rng()
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng))
        if bias:
            self.bias = Parameter(init.uniform_fan_in((out_features,), in_features, rng=rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Conv2d(Module):
    """2-D convolution layer over ``(N, C, H, W)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        rng = rng if rng is not None else np.random.default_rng()
        kh, kw = self.kernel_size
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels, kh, kw), rng=rng))
        if bias:
            fan_in = in_channels * kh * kw
            self.bias = Parameter(init.uniform_fan_in((out_channels,), fan_in, rng=rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding})"
        )


class MaxPool2d(Module):
    """2-D max pooling layer."""

    def __init__(self, kernel_size, stride=None, padding=0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:
        stride = self.kernel_size if self.stride is None else self.stride
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={stride}, padding={self.padding})"


class ReLU(Module):
    """Elementwise rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def __repr__(self) -> str:
        return "ReLU()"


class Flatten(Module):
    """Flatten trailing dimensions starting at ``start_dim``."""

    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x, self.start_dim)

    def __repr__(self) -> str:
        return f"Flatten(start_dim={self.start_dim})"


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, p=self.p, training=self.training, rng=self._rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Container that applies child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order = []
        for i, module in enumerate(modules):
            name = str(i)
            self.add_module(name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __repr__(self) -> str:
        inner = ", ".join(repr(self._modules[n]) for n in self._order)
        return f"Sequential({inner})"
