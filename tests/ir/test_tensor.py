"""Tests for tensor shape and spec descriptors."""

import pytest
from hypothesis import given, strategies as st

from repro.ir.tensor import DataType, TensorShape, TensorSpec, make_spec, MAX_RANK


class TestTensorShape:
    def test_basic_properties(self):
        shape = TensorShape((2, 3, 4))
        assert shape.rank == 3
        assert shape.num_elements == 24
        assert shape.dim(1) == 3
        assert shape.dim(-1) == 4
        assert list(shape) == [2, 3, 4]
        assert len(shape) == 3
        assert shape[0] == 2

    def test_scalar_shape(self):
        shape = TensorShape(())
        assert shape.rank == 0
        assert shape.num_elements == 1

    def test_rejects_negative_dims(self):
        with pytest.raises(ValueError):
            TensorShape((2, -1))

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            TensorShape((0, 4))

    def test_rejects_excess_rank(self):
        with pytest.raises(ValueError):
            TensorShape((1, 2, 3, 4, 5))

    def test_padded_encoding(self):
        assert TensorShape((3, 5)).padded(4) == (0, 0, 3, 5)
        assert TensorShape((1, 3, 5, 5)).padded(4) == (1, 3, 5, 5)

    def test_padded_rejects_larger_rank(self):
        with pytest.raises(ValueError):
            TensorShape((1, 2, 3)).padded(2)

    def test_with_dim(self):
        assert TensorShape((2, 3)).with_dim(1, 7).dims == (2, 7)

    def test_concat(self):
        a = TensorShape((2, 3, 4))
        b = TensorShape((2, 5, 4))
        assert a.concat(b, axis=1).dims == (2, 8, 4)

    def test_concat_mismatch(self):
        with pytest.raises(ValueError):
            TensorShape((2, 3)).concat(TensorShape((4, 3)), axis=1)

    def test_concat_rank_mismatch(self):
        with pytest.raises(ValueError):
            TensorShape((2, 3)).concat(TensorShape((2, 3, 1)), axis=0)

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=0, max_size=MAX_RANK))
    def test_num_elements_is_product(self, dims):
        shape = TensorShape(dims)
        product = 1
        for d in dims:
            product *= d
        assert shape.num_elements == product

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=MAX_RANK))
    def test_padded_preserves_trailing_dims(self, dims):
        padded = TensorShape(dims).padded()
        assert padded[-len(dims):] == tuple(dims)
        assert all(d == 0 for d in padded[:-len(dims)])


class TestTensorSpec:
    def test_size_bytes(self):
        spec = TensorSpec(TensorShape((2, 4)), DataType.FLOAT32)
        assert spec.size_bytes == 2 * 4 * 4
        half = TensorSpec(TensorShape((2, 4)), DataType.FLOAT16)
        assert half.size_bytes == 2 * 4 * 2

    def test_with_shape(self):
        spec = make_spec(1, 2, 3, constant=True, name="w")
        new = spec.with_shape((6,))
        assert new.shape.dims == (6,)
        assert new.is_constant and new.name == "w"

    def test_round_trip_dict(self):
        spec = make_spec(1, 3, 8, 8, constant=True, name="weights")
        restored = TensorSpec.from_dict(spec.to_dict())
        assert restored == spec

    def test_dtype_sizes(self):
        assert {dtype.name: dtype.size_bytes for dtype in DataType} == {
            "FLOAT32": 4, "FLOAT16": 2, "INT64": 8, "INT32": 4, "BOOL": 1}
