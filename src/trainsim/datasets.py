"""Synthetic training data and a raw-tensor file loader."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import ConfigError
from .model import NetworkSpec

RAW_MAGIC = b"TSRAW001"


def synthetic_batches(net: NetworkSpec, steps: int, seed: int):
    """Separable two-or-more-class data matched to the network's input.

    Each class gets a fixed random template; samples are the template plus
    mild noise, so a correct training loop must steadily reduce the loss.
    """
    first = net.layers[0]
    classes = net.layers[-1].m
    rng = np.random.default_rng(seed)
    shape = (first.n, first.r_in, first.c_in)
    templates = rng.uniform(-1.0, 1.0, size=(classes, *shape)).astype(np.float32)
    for _ in range(steps):
        labels = rng.integers(0, classes, size=net.batch)
        noise = rng.normal(0.0, 0.15, size=(net.batch, *shape)).astype(np.float32)
        yield templates[labels] + noise, labels


def save_raw(path, data: np.ndarray, labels: np.ndarray) -> None:
    """Raw dataset container: magic, dims header, float32 data, int32 labels."""
    data = np.ascontiguousarray(data, dtype="<f4")
    labels = np.ascontiguousarray(labels, dtype="<i4")
    with open(path, "wb") as f:
        f.write(RAW_MAGIC)
        f.write(struct.pack("<I", data.ndim))
        f.write(struct.pack(f"<{data.ndim}I", *data.shape))
        f.write(data.tobytes())
        f.write(labels.tobytes())


def load_raw(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a `save_raw` container.  A file that is not one whole container
    (bad magic, a short header, or a payload of another size than the
    header says) raises ConfigError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(8) != RAW_MAGIC:
            raise ConfigError(f"{path}: not a raw tensor file")
        head = f.read(4)
        ndim = struct.unpack("<I", head)[0] if len(head) == 4 else 0
        if not ndim or 12 + 4 * ndim > size:
            raise ConfigError(f"{path}: truncated or empty dims header")
        shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
        n = math.prod(shape)
        payload = size - f.tell()
        if payload != 4 * (n + shape[0]):
            raise ConfigError(f"{path}: payload is {payload} bytes, the header "
                              f"{shape} needs {4 * (n + shape[0])}")
        data = np.frombuffer(f.read(4 * n), dtype="<f4").reshape(shape).copy()
        labels = np.frombuffer(f.read(4 * shape[0]), dtype="<i4").copy()
    return data, labels


def file_batches(path, net: NetworkSpec, steps: int, seed: int):
    """Minibatches drawn at random from a raw dataset whose samples fit the
    network's input and whose labels are its classes, else ConfigError."""
    data, labels = load_raw(path)
    first, classes = net.layers[0], net.layers[-1].m
    want = (first.n, first.r_in, first.c_in)
    if data.ndim != 4 or data.shape[1:] != want:
        raise ConfigError(f"{path}: raw dataset must be (samples, ch, rows, cols) with "
                          f"(ch, rows, cols) = {want}, got {data.shape}")
    if not data.shape[0]:
        raise ConfigError(f"{path}: raw dataset holds no samples")
    bad = (labels < 0) | (labels >= classes)
    if bad.any():
        raise ConfigError(f"{path}: label {labels[bad][0]} outside the "
                          f"{classes} classes of the network")
    return _minibatches(data, labels, net.batch, steps, seed)


def _minibatches(data: np.ndarray, labels: np.ndarray, batch: int, steps: int, seed: int):
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    for _ in range(steps):
        pick = rng.integers(0, n, size=batch)
        yield data[pick], labels[pick]


__all__ = ["synthetic_batches", "save_raw", "load_raw", "file_batches"]
