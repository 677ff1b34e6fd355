"""Edits of a ``graph_to_dict`` document (``format_version`` 2) that the
codec's tests make: a node's stored output restated, as a file written by
something else might have it."""

import copy

__all__ = ["restate_output"]


def restate_output(document: dict, nid: int, dims) -> None:
    """Give node ``nid`` a template of its own whose first output spec has
    ``dims`` (specs and templates are shared, so the edit touches no other
    node)."""
    row = next(row for row in document["nodes"] if row[0] == nid)
    template = copy.deepcopy(document["templates"][row[1]])
    spec = copy.deepcopy(document["specs"][template[2][0]])
    spec[0] = list(dims)
    document["specs"].append(spec)
    template[2][0] = len(document["specs"]) - 1
    document["templates"].append(template)
    row[1] = len(document["templates"]) - 1
