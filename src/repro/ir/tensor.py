"""Tensor shape and dtype descriptors used throughout the graph IR.

The graph IR only carries *metadata* about tensors (shape, dtype, whether the
tensor is a constant / weight), never the numerical payload itself, mirroring
how TASO's substitution engine reasons about computation graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence, Tuple

__all__ = ["DataType", "TensorShape", "TensorSpec", "MAX_RANK"]

#: Maximum tensor rank supported by the IR.  The paper pads edge attributes to
#: rank 4 (leading dimensions padded with zeros), so we keep the same bound.
MAX_RANK = 4


class DataType(Enum):
    """Element type of a tensor."""

    FLOAT32 = "float32"
    FLOAT16 = "float16"
    INT64 = "int64"
    INT32 = "int32"
    BOOL = "bool"

    @property
    def size_bytes(self) -> int:
        """Size in bytes of a single element of this dtype."""
        return _SIZE_BYTES[self._value_]


#: Element size by ``DataType`` value.  Keyed by the value string, not the
#: member: hashing an enum member is a Python-level call, and the cost models
#: ask for a size several times per node they derive.
_SIZE_BYTES = {"float32": 4, "float16": 2, "int64": 8, "int32": 4, "bool": 1}


@dataclass(frozen=True)
class TensorShape:
    """An immutable tensor shape.

    Parameters
    ----------
    dims:
        The extent of each dimension, outermost first.  Dimensions must be
        positive integers; the empty tuple denotes a scalar.
    """

    dims: Tuple[int, ...]
    #: Total number of elements (1 for a scalar); derived from ``dims`` once,
    #: at construction, and not part of equality, hashing or ``repr``.
    num_elements: int = field(init=False, compare=False, repr=False)

    def __init__(self, dims: Iterable[int] = ()):  # noqa: D401 - dataclass init
        dims = tuple(int(d) for d in dims)
        if len(dims) > MAX_RANK:
            raise ValueError(
                f"rank {len(dims)} exceeds MAX_RANK={MAX_RANK}: {dims!r}"
            )
        if any(d <= 0 for d in dims):
            raise ValueError(f"all dimensions must be positive, got {dims!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "num_elements", math.prod(dims))

    # -- basic properties -------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.dims)

    def dim(self, index: int) -> int:
        """Return the extent of dimension ``index`` (supports negatives)."""
        return self.dims[index]

    # -- conversions -------------------------------------------------------
    def padded(self, rank: int = MAX_RANK) -> Tuple[int, ...]:
        """Return dims left-padded with zeros to ``rank`` entries.

        This is the edge-attribute encoding used by the paper's GNN: a tensor
        of shape ``[3, 256, 256]`` becomes ``(0, 3, 256, 256)``.
        """
        if self.rank > rank:
            raise ValueError(f"cannot pad rank-{self.rank} shape to rank {rank}")
        return (0,) * (rank - self.rank) + self.dims

    def as_list(self) -> list[int]:
        """Return dims as a plain list (for JSON serialisation)."""
        return list(self.dims)

    # -- shape algebra -----------------------------------------------------
    def with_dim(self, index: int, value: int) -> "TensorShape":
        """Return a copy with dimension ``index`` replaced by ``value``."""
        dims = list(self.dims)
        dims[index] = value
        return TensorShape(dims)

    def concat(self, other: "TensorShape", axis: int) -> "TensorShape":
        """Shape of concatenating a tensor of this shape with ``other``."""
        if self.rank != other.rank:
            raise ValueError("concat requires equal ranks")
        axis = axis % self.rank
        for i, (a, b) in enumerate(zip(self.dims, other.dims)):
            if i != axis and a != b:
                raise ValueError(
                    f"concat mismatch on dim {i}: {self.dims} vs {other.dims}"
                )
        return self.with_dim(axis, self.dims[axis] + other.dims[axis])

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, index):
        return self.dims[index]

    def __repr__(self) -> str:
        return f"TensorShape({list(self.dims)})"


@dataclass(frozen=True)
class TensorSpec:
    """Full description of a tensor value flowing along a graph edge."""

    shape: TensorShape
    dtype: DataType = DataType.FLOAT32
    #: Constant tensors (weights, fixed masks) have no runtime data
    #: dependency; subgraphs whose inputs are all constants are candidates
    #: for constant folding in the end-to-end simulator.
    is_constant: bool = False
    name: str = ""

    @property
    def num_elements(self) -> int:
        return self.shape.num_elements

    @property
    def size_bytes(self) -> int:
        """Number of bytes this tensor occupies in device memory."""
        return self.num_elements * self.dtype.size_bytes

    def with_shape(self, shape: Sequence[int] | TensorShape) -> "TensorSpec":
        """Return a copy with a different shape."""
        if not isinstance(shape, TensorShape):
            shape = TensorShape(shape)
        return TensorSpec(shape, self.dtype, self.is_constant, self.name)

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "shape": self.shape.as_list(),
            "dtype": self.dtype.value,
            "is_constant": self.is_constant,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TensorSpec":
        return cls(
            shape=TensorShape(data["shape"]),
            dtype=DataType(data.get("dtype", "float32")),
            is_constant=bool(data.get("is_constant", False)),
            name=data.get("name", ""),
        )


def make_spec(*dims: int, constant: bool = False, name: str = "") -> TensorSpec:
    """Convenience constructor: ``make_spec(1, 3, 224, 224)``."""
    return TensorSpec(TensorShape(dims), is_constant=constant, name=name)
