"""Frontend importers: foreign model formats -> the tensor-graph IR.

The only frontend today is ONNX (:mod:`repro.frontend.onnx`), built from
three layers:

* :mod:`repro.frontend.serialize` — a protobuf-free ``.onnx`` wire codec
  (the one model file format), parsed into neutral spec dataclasses.
* :mod:`repro.frontend.ops_bridge` — the declarative per-op bridge table
  translating foreign node specs into IR nodes.
* :mod:`repro.frontend.onnx` — the import/export drivers and the
  :class:`~repro.frontend.onnx.ImportReport` coverage accounting.

:func:`import_model` is the one way a foreign model enters the IR.
"""

from .onnx import ImportError_, ImportReport, import_model, to_onnx, to_spec
from .serialize import (GraphSpec, ModelSpec, NodeSpec, TensorInfo,
                        ValueInfo, load_model_spec, save_model_spec)

__all__ = [
    "ImportError_", "ImportReport", "import_model", "to_onnx", "to_spec",
    "GraphSpec", "ModelSpec", "NodeSpec", "TensorInfo", "ValueInfo",
    "load_model_spec", "save_model_spec",
]
