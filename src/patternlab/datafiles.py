"""JSON round trips for generated samples and fitted models."""

from __future__ import annotations

import numpy as np

from .estimators import ConstantImputeRegression, IterativeImputeRegression, PbpRegression
from .patterns import MaskedDataset, json_field, json_floats
from .simulate import LabeledSample


def labeled_sample_to_json(sample: LabeledSample) -> dict:
    dataset = sample.dataset
    values = [
        [None if dataset.mask[i, j] else float(dataset.values[i, j]) for j in range(dataset.d)]
        for i in range(dataset.n)
    ]
    masks = ["".join("1" if m else "0" for m in row) for row in dataset.mask]
    return {
        "d": dataset.d,
        "n": dataset.n,
        "values": values,
        "mask": masks,
        "responses": [float(y) for y in dataset.responses],
        "full_values": [[float(v) for v in row] for row in sample.full_values],
        "bayes_values": None
        if sample.bayes_values is None
        else [float(v) for v in sample.bayes_values],
    }


def dataset_from_json(obj: dict) -> MaskedDataset:
    """Rebuild a dataset; each mask is d characters of 0/1, each values row
    holds d entries, and ``null`` is allowed only at masked cells."""
    n, d = json_field(obj, "n", int), json_field(obj, "d", int)
    masks = json_field(obj, "mask", list)
    for i, row in enumerate(masks):
        if not isinstance(row, str) or len(row) != d or not set(row) <= {"0", "1"}:
            raise ValueError(f"mask of row {i} (counting from 0) is {row!r}, expected {d} characters of 0/1")
    mask = np.array([[c == "1" for c in row] for row in masks], dtype=bool)
    if mask.shape != (n, d):
        raise ValueError(f"mask shape {mask.shape} does not match n={n}, d={d}")
    cells = json_field(obj, "values", list)
    for i, row in enumerate(cells):
        if not isinstance(row, list) or len(row) != d:
            raise ValueError(f"values row {i} (counting from 0) is {row!r}, expected a list of {d} numbers or nulls")
    try:
        values = np.array([[0.0 if cell is None else float(cell) for cell in row] for row in cells])
    except TypeError as exc:
        raise ValueError(f"field 'values': {exc}") from exc
    if values.shape != (n, d):
        raise ValueError(f"values shape {values.shape} does not match n={n}, d={d}")
    for i, j in np.argwhere(~mask):
        if cells[i][j] is None:
            raise ValueError(
                f"value at row {i}, column {j} (counting from 0) is null but its mask marks it observed"
            )
    return MaskedDataset(values, mask, json_field(obj, "responses", json_floats))


def model_from_json(obj: dict):
    """Detect the estimator family from the payload and rebuild it."""
    kind = json_field(obj, "kind", default=None)
    if kind is None and "models" in obj:
        return PbpRegression.from_json(obj)
    if kind == "constant_impute":
        return ConstantImputeRegression.from_json(obj)
    if kind == "iterative_impute":
        return IterativeImputeRegression.from_json(obj)
    raise ValueError(f"unrecognized model payload (kind={kind!r})")
