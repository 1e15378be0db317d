"""Versioned binary container for trained parameter blocks.

One format shared by the decoder and the backbones: a magic tag, a JSON
header (arbitrary metadata plus the ordered block manifest), then raw
row-major float64 blocks. Round-trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

MAGIC = b"STPB"
FORMAT_VERSION = 1


def save_blocks(path, header: dict, blocks: dict[str, np.ndarray]) -> None:
    manifest = []
    payload = []
    for name, arr in blocks.items():
        arr = np.asarray(arr, dtype=np.float64)
        manifest.append({"name": name, "shape": list(arr.shape)})
        payload.append(np.ascontiguousarray(arr))  # written from its own buffer, uncopied
    head = dict(header)
    head["_format_version"] = FORMAT_VERSION
    head["_blocks"] = manifest
    head_bytes = json.dumps(head, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(head_bytes).to_bytes(8, "little"))
        fh.write(head_bytes)
        for chunk in payload:
            fh.write(chunk)


def load_blocks(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and named blocks of a container file.

    Raises ValueError when the file is not a container of this version, its
    header or block manifest is malformed, or its payload is not exactly the
    bytes the manifest declares.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"not a parameter container (bad magic {magic!r})")
        offset = 12 + int.from_bytes(fh.read(8), "little")
        if offset > size:
            raise ValueError(f"header of {offset - 12} bytes runs past the end of the file")
        head = json.loads(fh.read(offset - 12).decode("utf-8"))
        if not isinstance(head, dict):
            raise ValueError(f"header is a JSON {type(head).__name__}, not an object")
        version = head.pop("_format_version", None)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported container version {version}")
        manifest = head.pop("_blocks", None)
        if not (isinstance(manifest, list) and all(map(_is_entry, manifest))):
            raise ValueError(f"malformed block manifest {manifest!r:.60}")
        counts = [math.prod(entry["shape"]) for entry in manifest]
        if offset + 8 * sum(counts) != size:
            raise ValueError(
                f"payload has {size - offset} bytes, the manifest declares {8 * sum(counts)}"
            )
        blocks = {}
        for entry, count in zip(manifest, counts):
            data = np.empty(count, dtype=np.float64)  # each block read straight into its array
            if fh.readinto(data) != data.nbytes:
                raise ValueError(f"block {entry['name']!r} ends early: the file changed while read")
            blocks[entry["name"]] = data.reshape(entry["shape"])
    return head, blocks


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the arrays' float64 bytes in order, those of `tobytes()`, uncopied."""
    md = hashlib.sha256()
    for arr in arrays:
        md.update(np.ascontiguousarray(arr, dtype=np.float64))
    return md.hexdigest()


def _is_entry(entry) -> bool:
    """A manifest entry: a string name and a list of nonnegative integer dimensions."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in entry["shape"])
    )


def header_number(header: dict, key: str, kind: type = int):
    """`header[key]`; ValueError unless it is a finite `kind` (int or float, never a bool)."""
    value = header.get(key)
    if isinstance(value, kind) and not isinstance(value, bool) and abs(value) < math.inf:
        return value
    raise ValueError(f"header field {key!r} is {value!r:.60}, expected a finite {kind.__name__}")
