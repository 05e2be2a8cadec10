"""Input representations for the cost model (paper Section III).

Three encoders:

- :class:`NetworkEncoder` — Section III-B: each layer becomes a one-hot
  operator id concatenated with its numeric parameters plus input /
  output sizes; layer encodings are concatenated and zero-padded
  ("masked") to the width of the longest network in the population.
- :class:`StaticHardwareEncoder` — Section III-C's first attempt: a
  one-hot CPU model, the core frequency, and the DRAM size. The paper
  shows this fails (R^2 = 0.13, Figure 8).
- :class:`SignatureHardwareEncoder` — the paper's proposal: a device is
  represented by its measured latencies on a small signature set of
  networks.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.dataset.dataset import LatencyDataset
from repro.devices.device import Device
from repro.ml.binning import QuantizedFeatureBlock
from repro.nnir.graph import Network
from repro.nnir.ops import OP_KINDS, PARAM_SLOTS

__all__ = [
    "EncodedSuite",
    "NetworkEncoder",
    "SignatureHardwareEncoder",
    "StaticHardwareEncoder",
    "clear_suite_memo",
    "network_content_hash",
    "shared_encoded_suite",
    "shared_network_encoder",
]

#: Features per layer: operator one-hot + parameter slots + in/out sizes
#: (channels, spatial) for input and output.
_LAYER_WIDTH = len(OP_KINDS) + PARAM_SLOTS + 4

_KIND_INDEX = {kind: i for i, kind in enumerate(OP_KINDS)}


def _encode_one_layer(layer, in_shapes, out_shape) -> np.ndarray:
    """One layer's feature row: operator one-hot + params + in/out sizes.

    Depends only on ``(layer.op, in_shapes)`` — ``out_shape`` is derived
    from them by shape inference — which is what makes the row memo of
    :meth:`NetworkEncoder.encode_network` byte-safe.
    """
    one_hot = np.zeros(len(OP_KINDS))
    one_hot[_KIND_INDEX[layer.op.kind]] = 1.0
    params = np.asarray(layer.op.param_features(in_shapes), dtype=float)
    if params.size != PARAM_SLOTS:
        raise ValueError(
            f"{layer.op.kind.value} produced {params.size} parameter "
            f"features, expected {PARAM_SLOTS}"
        )
    sizes = np.array(
        [
            in_shapes[0].c,
            in_shapes[0].h * in_shapes[0].w,
            out_shape.c,
            out_shape.h * out_shape.w,
        ],
        dtype=float,
    )
    return np.concatenate([one_hot, params, sizes])


def _encode_layers(network: Network) -> np.ndarray:
    """Variable-length concatenation of per-layer feature vectors."""
    return np.concatenate(
        [
            _encode_one_layer(layer, in_shapes, out_shape)
            for layer, in_shapes, out_shape in network.walk()
        ]
    )


def network_content_hash(network: Network) -> str:
    """Name-independent SHA-256 of a network's structure.

    Built from the input shape and each layer's (operator repr, input
    wiring); two networks that differ only in ``name`` hash equal, so
    search candidates dedup across renames and across generations.
    """
    h = hashlib.sha256()
    h.update(repr(network.input_shape).encode())
    for layer in network.layers:
        h.update(b"\x00")
        h.update(repr(layer.op).encode())
        h.update(repr(layer.inputs).encode())
    return h.hexdigest()


class NetworkEncoder:
    """Layer-wise network encoding, masked to a fixed width.

    Parameters
    ----------
    networks:
        The population used to size the encoding; the longest network
        determines the padded width. Networks encoded later must not
        exceed that many layers.
    """

    def __init__(self, networks: Sequence[Network]) -> None:
        if not networks:
            raise ValueError("population must be non-empty")
        self.max_layers = max(n.n_layers for n in networks)
        self.width = self.max_layers * _LAYER_WIDTH

    def encode(self, network: Network) -> np.ndarray:
        """Fixed-width feature vector for one network."""
        if network.n_layers > self.max_layers:
            raise ValueError(
                f"network {network.name!r} has {network.n_layers} layers; "
                f"encoder was sized for at most {self.max_layers}"
            )
        flat = _encode_layers(network)
        return np.pad(flat, (0, self.width - flat.size))

    def encode_all(self, networks: Sequence[Network]) -> np.ndarray:
        """Encode a sequence of networks into a matrix."""
        return np.stack([self.encode(n) for n in networks])

    def encode_network(self, network: Network, rows: dict[tuple, np.ndarray]) -> np.ndarray:
        """:meth:`encode`, taking each layer's row from the memo ``rows``.

        ``rows`` is caller-owned and maps ``(layer.op, in_shapes)`` to
        that layer's feature row; a layer missing from it is encoded and
        stored. Ops and shapes are frozen dataclasses, so equal keys mean
        the same operator class with equal fields, and a row depends on
        nothing else (:func:`_encode_one_layer`): the result is
        byte-identical to :meth:`encode`, and read-only.
        """
        if network.n_layers > self.max_layers:
            raise ValueError(
                f"network {network.name!r} has {network.n_layers} layers; "
                f"encoder was sized for at most {self.max_layers}"
            )
        layer_rows = []
        computed = 0
        for layer, in_shapes, out_shape in network.walk():
            key = (layer.op, in_shapes)
            row = rows.get(key)
            if row is None:
                row = rows[key] = _encode_one_layer(layer, in_shapes, out_shape)
                computed += 1
            layer_rows.append(row)
        reused = len(layer_rows) - computed
        if reused:
            telemetry.count("encode.rows_reused", reused)
        telemetry.count("encode.rows_computed", computed)
        flat = np.zeros(self.width)
        np.concatenate(layer_rows, out=flat[: len(layer_rows) * _LAYER_WIDTH])
        flat.setflags(write=False)
        return flat

    def encode_sequence(self, network: Network) -> tuple[np.ndarray, np.ndarray]:
        """Per-layer sequence form: (max_layers, layer_width) + validity mask.

        This is the input format of the LSTM-encoder baseline the paper
        compares against (Section III-C); the flat :meth:`encode` output
        is this sequence raveled.
        """
        flat = self.encode(network)
        seq = flat.reshape(self.max_layers, _LAYER_WIDTH)
        mask = np.zeros(self.max_layers)
        mask[: network.n_layers] = 1.0
        return seq, mask

    def encode_sequences(
        self, networks: Sequence[Network]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`encode_sequence`: (B, T, D) + (B, T) mask."""
        pairs = [self.encode_sequence(n) for n in networks]
        return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


class StaticHardwareEncoder:
    """Static-spec hardware encoding: CPU one-hot + frequency + DRAM.

    Parameters
    ----------
    cpu_models:
        Vocabulary of CPU model names. Devices whose model is outside
        the vocabulary encode as an all-zero one-hot block, mirroring
        how a deployed model meets truly unseen hardware.
    """

    def __init__(self, cpu_models: Sequence[str]) -> None:
        if not cpu_models:
            raise ValueError("cpu_models must be non-empty")
        self.cpu_models = sorted(set(cpu_models))
        self._index = {name: i for i, name in enumerate(self.cpu_models)}
        self.width = len(self.cpu_models) + 2

    @classmethod
    def from_devices(cls, devices: Sequence[Device]) -> "StaticHardwareEncoder":
        return cls([d.cpu_model for d in devices])

    def encode(self, device: Device) -> np.ndarray:
        one_hot = np.zeros(len(self.cpu_models))
        index = self._index.get(device.cpu_model)
        if index is not None:
            one_hot[index] = 1.0
        return np.concatenate([one_hot, [device.frequency_ghz, float(device.dram_gb)]])

    def encode_all(self, devices: Sequence[Device]) -> np.ndarray:
        return np.stack([self.encode(d) for d in devices])


@dataclass(frozen=True, eq=False)
class EncodedSuite:
    """One suite, encoded and quantized exactly once.

    Bundles everything the training pipeline derives from a benchmark
    suite alone (no dataset, no split): the sized
    :class:`NetworkEncoder`, the ``(n_networks, width)`` encoding
    matrix from :meth:`NetworkEncoder.encode_all`, a name -> row index,
    and a :class:`~repro.ml.binning.QuantizedFeatureBlock` over the
    matrix, from which any sweep cell derives its network-block bin
    edges in microseconds. ``matrix`` is write-protected; use
    :meth:`row` / fancy-indexing, never in-place edits.
    """

    encoder: NetworkEncoder
    names: tuple[str, ...]
    matrix: np.ndarray
    block: QuantizedFeatureBlock

    def row_index(self, name: str) -> int:
        return self._index[name]

    def row(self, name: str) -> np.ndarray:
        """The encoding of one network (a read-only matrix row)."""
        return self.matrix[self._index[name]]

    @property
    def _index(self) -> dict[str, int]:
        index = self.__dict__.get("_index_cache")
        if index is None:
            index = {name: i for i, name in enumerate(self.names)}
            self.__dict__["_index_cache"] = index
        return index


_SUITE_MEMO_MAX = 4
_suite_memo_lock = threading.Lock()
_suite_memo: OrderedDict[tuple, EncodedSuite] = OrderedDict()


def _suite_content_key(networks: Sequence[Network]) -> tuple:
    """Structural identity of a network population.

    Built from each network's name, input shape, and per-layer operator
    reprs (frozen dataclasses, so reprs carry every parameter). Two
    suite objects with identical structure share one cache entry even
    when constructed independently.
    """
    return tuple(
        (
            n.name,
            repr(n.input_shape),
            tuple((repr(layer.op), layer.inputs) for layer in n.layers),
        )
        for n in networks
    )


def shared_encoded_suite(suite: Sequence[Network]) -> EncodedSuite:
    """Content-memoized encoder + encodings + quantile block for a suite.

    The first call for a given suite structure pays for
    ``NetworkEncoder`` construction, :meth:`~NetworkEncoder.encode_all`,
    and the per-column sort of the quantized block; every later call —
    every sweep cell, every collaborative checkpoint — is a dictionary
    hit (`train.bin_reuse_hits` in telemetry).
    """
    networks = list(suite)
    key = _suite_content_key(networks)
    with _suite_memo_lock:
        cached = _suite_memo.get(key)
        if cached is not None:
            _suite_memo.move_to_end(key)
    if cached is not None:
        telemetry.count("train.bin_reuse_hits")
        return cached
    telemetry.count("train.bin_reuse_misses")
    encoder = NetworkEncoder(networks)
    matrix = encoder.encode_all(networks)
    matrix.setflags(write=False)
    built = EncodedSuite(
        encoder=encoder,
        names=tuple(n.name for n in networks),
        matrix=matrix,
        block=QuantizedFeatureBlock(matrix),
    )
    with _suite_memo_lock:
        _suite_memo[key] = built
        _suite_memo.move_to_end(key)
        while len(_suite_memo) > _SUITE_MEMO_MAX:
            _suite_memo.popitem(last=False)
    return built


def shared_network_encoder(suite: Sequence[Network]) -> NetworkEncoder:
    """The memoized :class:`NetworkEncoder` for a suite (see above)."""
    return shared_encoded_suite(suite).encoder


def clear_suite_memo() -> None:
    """Drop cached suite encodings (tests / memory pressure)."""
    with _suite_memo_lock:
        _suite_memo.clear()


class SignatureHardwareEncoder:
    """Signature-set hardware encoding: measured latencies on k networks.

    Parameters
    ----------
    signature_names:
        The chosen signature networks, in a fixed order.
    """

    def __init__(self, signature_names: Sequence[str]) -> None:
        if not signature_names:
            raise ValueError("signature set must be non-empty")
        if len(set(signature_names)) != len(signature_names):
            raise ValueError("signature networks must be unique")
        self.signature_names = list(signature_names)

    @property
    def width(self) -> int:
        return len(self.signature_names)

    def encode_from_dataset(self, dataset: LatencyDataset, device_name: str) -> np.ndarray:
        """Representation of a device already present in a dataset."""
        cols = [dataset.network_index(n) for n in self.signature_names]
        return dataset.latencies_ms[dataset.device_index(device_name), cols]

    def encode_from_measurements(self, latencies_ms: dict[str, float]) -> np.ndarray:
        """Representation from fresh measurements of the signature set.

        ``latencies_ms`` maps signature network name -> measured ms and
        must cover the full signature set.
        """
        missing = [n for n in self.signature_names if n not in latencies_ms]
        if missing:
            raise ValueError(f"missing signature measurements for {missing}")
        return np.array([latencies_ms[n] for n in self.signature_names], dtype=float)
