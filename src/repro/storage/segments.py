"""Aligned, versioned, checksummed on-disk array segments (mmap-able).

The columnar kernel's hot state is a handful of flat numpy arrays (the
seven CSR arrays behind :class:`~repro.core.plfstore.PLFStore` /
:class:`~repro.core.plfstore.CSRView`, plus the object-id column).  A
*segment* is those arrays written once, contiguously, behind a small
binary header, so that a later process — or a pool worker — opens them
with ``np.memmap`` in O(1) time and zero copies: pages are faulted in
on demand and shared between processes through the OS page cache.

File layout::

    0   magic       b"REPROSEG"            (8 bytes)
    8   version     u16 big-endian
    10  data_start  u64 big-endian         (page-aligned)
    18  file_bytes  u64 big-endian         (truncation detection)
    26  header_len  u32 big-endian
    30  header      JSON (utf-8): per-array name/dtype/shape/offset/
                    nbytes/crc32, plus free-form ``meta``
    data_start      array data; each array 64-byte aligned

Integrity: the recorded ``file_bytes`` catches truncation before any
array is touched, and each array carries a crc32 over its exact bytes
(verified on open by default) — a corrupted or short segment raises a
clean :class:`~repro.storage.persistence.PersistenceError` instead of
a numpy crash.  ``BlockDevice`` block payloads ride the same container
(:func:`write_device_blocks`): ids, blob offsets, and the pickled
payload blob are just three more checksummed arrays.
"""

from __future__ import annotations

import json
import pickle
import zlib
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.persistence import PersistenceError

#: Bump when the segment container layout changes incompatibly.
SEGMENT_VERSION = 1

_MAGIC = b"REPROSEG"

#: Array data starts on a page boundary so memmap windows align with
#: the OS page cache; individual arrays align to cache lines.
_PAGE = 4096
_ALIGN = 64

#: Fixed-width prefix before the JSON header (see module docstring).
_PREFIX_BYTES = 30


def _align(offset: int, alignment: int) -> int:
    return (offset + alignment - 1) // alignment * alignment


class SegmentInfo:
    """Header facts of one written/opened segment (catalog currency)."""

    __slots__ = ("path", "version", "file_bytes", "crc32", "arrays", "meta")

    def __init__(
        self,
        path: Path,
        version: int,
        file_bytes: int,
        crc32: int,
        arrays: List[dict],
        meta: dict,
    ) -> None:
        self.path = path
        self.version = version
        self.file_bytes = file_bytes
        #: crc32 of the header JSON — a cheap whole-file identity the
        #: catalog stores (array bytes carry their own checksums).
        self.crc32 = crc32
        self.arrays = arrays
        self.meta = meta


def write_segment(
    path: str | Path,
    arrays: Sequence[Tuple[str, np.ndarray]],
    meta: Optional[dict] = None,
) -> SegmentInfo:
    """Write named arrays as one aligned, checksummed segment file.

    ``arrays`` is an ordered ``(name, array)`` sequence; each array is
    stored C-contiguous in its own dtype.  Returns the header facts
    the catalog records (dtypes, offsets, checksums, total bytes).
    """
    path = Path(path)
    entries: List[dict] = []
    payloads: List[bytes] = []
    offset = 0
    for name, array in arrays:
        data = np.ascontiguousarray(array)
        raw = data.tobytes()
        offset = _align(offset, _ALIGN)
        entries.append(
            {
                "name": str(name),
                "dtype": data.dtype.str,
                "shape": list(data.shape),
                "offset": offset,
                "nbytes": len(raw),
                "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
            }
        )
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps(
        {"arrays": entries, "meta": meta or {}}, sort_keys=True
    ).encode("utf-8")
    data_start = _align(_PREFIX_BYTES + len(header), _PAGE)
    file_bytes = data_start + offset
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(SEGMENT_VERSION.to_bytes(2, "big"))
        handle.write(data_start.to_bytes(8, "big"))
        handle.write(file_bytes.to_bytes(8, "big"))
        handle.write(len(header).to_bytes(4, "big"))
        handle.write(header)
        for entry, raw in zip(entries, payloads):
            handle.seek(data_start + entry["offset"])
            handle.write(raw)
        handle.truncate(file_bytes)
    return SegmentInfo(
        path,
        SEGMENT_VERSION,
        file_bytes,
        zlib.crc32(header) & 0xFFFFFFFF,
        entries,
        dict(meta or {}),
    )


class MappedSegment:
    """An open segment: zero-copy memmap views of its arrays.

    ``arrays[name]`` is a read-only ``np.memmap``-backed view sliced
    out of one shared uint8 map of the file — opening costs no reads
    beyond the header page, and two processes mapping the same segment
    share physical pages through the OS cache.
    """

    __slots__ = ("path", "info", "arrays", "meta", "_raw")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ", ".join(self.arrays)
        return f"MappedSegment({self.path.name}: {names})"


def read_header(path: str | Path) -> SegmentInfo:
    """Parse and validate a segment's header without mapping its data."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(_PREFIX_BYTES)
            if len(prefix) < _PREFIX_BYTES or not prefix.startswith(_MAGIC):
                raise PersistenceError(f"{path} is not a repro segment file")
            version = int.from_bytes(prefix[8:10], "big")
            if version != SEGMENT_VERSION:
                raise PersistenceError(
                    f"{path} has segment version {version}, "
                    f"expected {SEGMENT_VERSION}"
                )
            data_start = int.from_bytes(prefix[10:18], "big")
            file_bytes = int.from_bytes(prefix[18:26], "big")
            header_len = int.from_bytes(prefix[26:30], "big")
            header = handle.read(header_len)
    except OSError as exc:
        raise PersistenceError(f"cannot read segment {path}: {exc}") from exc
    if len(header) < header_len:
        raise PersistenceError(f"{path} is truncated inside its header")
    try:
        decoded = json.loads(header.decode("utf-8"))
        arrays = decoded["arrays"]
        meta = decoded.get("meta", {})
    except (ValueError, KeyError) as exc:
        raise PersistenceError(f"{path} has a corrupt header: {exc}") from exc
    actual = path.stat().st_size
    if actual != file_bytes:
        raise PersistenceError(
            f"{path} is truncated or padded: {actual} bytes on disk, "
            f"header records {file_bytes}"
        )
    info = SegmentInfo(
        path, version, file_bytes, zlib.crc32(header) & 0xFFFFFFFF, arrays, meta
    )
    # data_start is derived state; keep it with the entries so open()
    # does not re-read the prefix.
    for entry in info.arrays:
        entry["abs_offset"] = data_start + entry["offset"]
    return info


def open_segment(path: str | Path, verify: bool = True) -> MappedSegment:
    """Map a segment's arrays zero-copy (read-only).

    ``verify=True`` (default) checks every array's crc32 against the
    header — one streaming pass over the mapped bytes; pass ``False``
    to defer page faults entirely to first kernel use on very large
    datasets.  Truncation is always detected via the recorded file
    size before any array is touched.
    """
    path = Path(path)
    info = read_header(path)
    raw = np.memmap(path, dtype=np.uint8, mode="r")
    # Base-class views of the map: downstream slicing (one slice per
    # object in PLFStore.from_segments) skips np.memmap's subclass
    # machinery, which dominates mount time at large m.  The views
    # keep ``raw`` alive through their .base chain and inherit its
    # read-only buffer.
    flat = raw.view(np.ndarray)
    segment = MappedSegment.__new__(MappedSegment)
    segment.path = path
    segment.info = info
    segment.meta = info.meta
    segment._raw = raw
    segment.arrays = {}
    for entry in info.arrays:
        lo = entry["abs_offset"]
        hi = lo + entry["nbytes"]
        window = flat[lo:hi]
        if verify:
            checksum = zlib.crc32(window) & 0xFFFFFFFF
            if checksum != entry["crc32"]:
                raise PersistenceError(
                    f"{path}: array {entry['name']!r} fails its checksum "
                    f"(stored {entry['crc32']:#010x}, "
                    f"computed {checksum:#010x})"
                )
        view = window.view(np.dtype(entry["dtype"]))
        segment.arrays[entry["name"]] = view.reshape(entry["shape"])
    return segment


# ----------------------------------------------------------------------
# the CSR store segment (the seven kernel arrays + object ids)
# ----------------------------------------------------------------------
#: Names and storage order of the PLFStore arrays in a store segment.
STORE_ARRAYS = (
    "knot_times",
    "knot_values",
    "offsets",
    "prefix_masses",
    "starts",
    "ends",
    "totals",
    "object_ids",
)


def write_store_segment(
    path: str | Path, store, meta: Optional[dict] = None
) -> SegmentInfo:
    """Persist a :class:`~repro.core.plfstore.PLFStore`'s kernel arrays."""
    payload = dict(meta or {})
    payload.setdefault("kind", "plfstore")
    payload["num_objects"] = int(store.num_objects)
    payload["num_segments"] = int(store.num_segments)
    return write_segment(
        path,
        [(name, getattr(store, name)) for name in STORE_ARRAYS],
        payload,
    )


# ----------------------------------------------------------------------
# BlockDevice block payloads
# ----------------------------------------------------------------------
def write_device_blocks(
    path: str | Path, devices: Sequence, meta: Optional[dict] = None
) -> SegmentInfo:
    """Persist the live blocks of one or more devices as a segment.

    Payloads are arbitrary Python objects (interval-tree nodes, packed
    leaf arrays); each device's payloads are pickled as ONE list in
    sorted-id order — a single ``pickle.loads`` per device at open
    time instead of one per block.  The pickle streams use protocol 5
    with out-of-band buffers: every contiguous ndarray inside a
    payload lands raw (64-byte aligned) in a side blob, and
    :func:`read_device_blocks` hands memoryviews of the mapped blob
    back to ``pickle.loads`` — payload arrays reconstruct zero-copy
    over the file mapping, read-only, with no per-array memcpy.
    Everything rides the same aligned, checksummed container as the
    CSR arrays.  Device identity (name, block size, allocation cursor,
    cache capacity) goes in the meta so each device restores exactly.
    """
    bounds = [0]
    ids: List[int] = []
    stream_offsets = [0]
    streams: List[bytes] = []
    buf_bounds = [0]
    buf_spans: List[List[int]] = []
    buf_chunks: List[bytes] = []
    device_meta = []
    stream_total = 0
    buf_total = 0
    for device in devices:
        block_ids = sorted(device._blocks)
        ids.extend(block_ids)
        bounds.append(len(ids))
        buffers: List[pickle.PickleBuffer] = []
        stream = pickle.dumps(
            [device._blocks[block_id] for block_id in block_ids],
            protocol=5,
            buffer_callback=buffers.append,
        )
        streams.append(stream)
        stream_total += len(stream)
        stream_offsets.append(stream_total)
        for buffer in buffers:
            raw = buffer.raw()
            pad = (-buf_total) % _ALIGN
            if pad:
                buf_chunks.append(b"\x00" * pad)
                buf_total += pad
            buf_spans.append([buf_total, raw.nbytes])
            buf_chunks.append(raw.tobytes())
            buf_total += raw.nbytes
        buf_bounds.append(len(buf_spans))
        cache = device._cache
        device_meta.append(
            {
                "name": device.name,
                "block_bytes": int(device.block_bytes),
                "next_id": int(device._next_id),
                "cache_blocks": int(cache.capacity_blocks) if cache else 0,
            }
        )
    payload = dict(meta or {})
    payload.setdefault("kind", "blocks")
    payload["devices"] = device_meta
    blob = np.frombuffer(b"".join(streams), dtype=np.uint8)
    buf_blob = np.frombuffer(b"".join(buf_chunks), dtype=np.uint8)
    return write_segment(
        path,
        [
            ("device_bounds", np.asarray(bounds, dtype=np.int64)),
            ("block_ids", np.asarray(ids, dtype=np.int64)),
            ("blob_offsets", np.asarray(stream_offsets, dtype=np.int64)),
            ("blob", blob),
            ("buf_bounds", np.asarray(buf_bounds, dtype=np.int64)),
            (
                "buf_spans",
                np.asarray(buf_spans, dtype=np.int64).reshape(-1, 2),
            ),
            ("buf_blob", buf_blob),
        ],
        payload,
    )


class LazyDeviceBlocks(dict):
    """A device's ``{block_id: payload}`` map that decodes on demand.

    Mounting defers the per-device ``pickle.loads`` until the first
    time anything touches the mapping — the demand-paging analogue at
    the payload level: opening a snapshot stays O(metadata) and a
    device's blocks only pay their decode cost when a query actually
    reads them.  Every accessor (including mutators, so post-mount
    appends can never be clobbered by a later decode) hydrates first;
    after that this is a plain dict.
    """

    __slots__ = ("_loader",)

    def __init__(self, loader):
        super().__init__()
        self._loader = loader

    def _hydrate(self):
        if self._loader is not None:
            loader, self._loader = self._loader, None
            super().update(loader())

    def __getitem__(self, key):
        self._hydrate()
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self._hydrate()
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._hydrate()
        super().__delitem__(key)

    def __contains__(self, key):
        self._hydrate()
        return super().__contains__(key)

    def __iter__(self):
        self._hydrate()
        return super().__iter__()

    def __len__(self):
        self._hydrate()
        return super().__len__()

    def __eq__(self, other):
        self._hydrate()
        return super().__eq__(other)

    __hash__ = None

    def __repr__(self):
        self._hydrate()
        return super().__repr__()

    def keys(self):
        self._hydrate()
        return super().keys()

    def values(self):
        self._hydrate()
        return super().values()

    def items(self):
        self._hydrate()
        return super().items()

    def get(self, key, default=None):
        self._hydrate()
        return super().get(key, default)

    def pop(self, *args):
        self._hydrate()
        return super().pop(*args)

    def update(self, *args, **kwargs):
        self._hydrate()
        super().update(*args, **kwargs)

    def copy(self):
        self._hydrate()
        return dict(self)

    def __reduce__(self):
        # A pickle round-trip (e.g. shipping to a worker) hydrates and
        # produces a plain dict — laziness is a mount-local property.
        self._hydrate()
        return (dict, (dict(self),))


def read_device_blocks(path: str | Path, verify: bool = True):
    """Load a device-blocks segment: per-device ``(meta, blocks)``.

    ``blocks`` is a :class:`LazyDeviceBlocks` whose payloads decode
    from the mapped blob on first access (protocol-5 out-of-band
    buffers, so ndarray payloads alias the mapping zero-copy).
    Returned in the order :func:`write_device_blocks` received the
    devices, which is the deterministic discovery order of the
    snapshot layer — so restoration zips straight back.
    """
    segment = open_segment(path, verify=verify)
    bounds = segment["device_bounds"]
    ids = segment["block_ids"]
    offsets = segment["blob_offsets"]
    blob = memoryview(np.ascontiguousarray(segment["blob"]))
    buf_bounds = segment["buf_bounds"]
    buf_spans = segment["buf_spans"]
    buf_blob = memoryview(np.ascontiguousarray(segment["buf_blob"]))
    out = []
    device_meta = segment.meta.get("devices", [])
    if len(device_meta) != bounds.size - 1:
        raise PersistenceError(
            f"{path}: device meta does not match block groups"
        )
    for index, meta in enumerate(device_meta):
        lo, hi = int(bounds[index]), int(bounds[index + 1])
        chunk = blob[int(offsets[index]) : int(offsets[index + 1])]
        blo, bhi = int(buf_bounds[index]), int(buf_bounds[index + 1])
        spans = buf_spans[blo:bhi]
        block_ids = ids[lo:hi].tolist()

        def _decode(chunk=chunk, spans=spans, block_ids=block_ids,
                    name=meta.get("name")):
            buffers = [
                buf_blob[start : start + nbytes]
                for start, nbytes in spans.tolist()
            ]
            payloads = pickle.loads(chunk, buffers=buffers)
            if len(payloads) != len(block_ids):
                raise PersistenceError(
                    f"{path}: device {name!r} payload count "
                    f"does not match its block-id range"
                )
            return zip(block_ids, payloads)

        out.append((meta, LazyDeviceBlocks(_decode)))
    return out
