"""Fixed binary checkpoints for bit-exact restart.

Layout (little-endian): magic ``MMP2``, format version u32 (2), grid n
u32, variant id u32, the five coefficients f64, alpha f64x3, Diophantine
exponent f64, time f64, step count u64, seed u64 (112 bytes), then the
three retained-band arrays u, omega, b of the `State`, each
(3, 2kc+1, 2kc+1, kc+1) complex ``<c16`` in C order (the band layout of
`spectral`), then a u32 ``zlib.crc32`` of header plus payload.  A `State`
is its band, so the payload is what it holds: 5,857,748 bytes at 64^3.
`load_checkpoint` checks the file's size, then the checksum, and reads the
payload straight into the state's arrays; a mismatch raises
`CheckpointFormatError`, so any single corrupted byte is refused.

Format 1 (magic ``MMP1``, version 1) is still read: the same header, then
nine full-spectrum coefficient arrays (u1,u2,u3,w1,w2,w3,m1,m2,m3) as f64
(re, im) pairs, row-major over (k1,k2,k3) with each axis ordered
0,1,...,n/2-1,-n/2,...,-1 (37,748,848 bytes at 64^3, 85% of them zeros
or mirror entries), with no checksum.  Each array is read and its band
gathered into the state, one at a time.  The magic says which payload
follows; only format 2 is written.

A checkpoint is written to ``<path>.tmp`` and renamed onto ``<path>``, so a
process that dies mid-write leaves the previous file (or none) under the
final name, never a truncated one.  `write_then_rename` makes that write,
here and in `diagio.truncate_diagnostics`.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .fields import PhysParams, State, WIRE_VARIANTS
from .spectral import GridSpec, band_part

MAGIC = b"MMP2"
FORMAT_VERSION = 2
# the format version each magic carries
_VERSIONS = {b"MMP1": 1, MAGIC: FORMAT_VERSION}
_HEADER = struct.Struct("<4sIII5d3dddQQ")
_CRC = struct.Struct("<I")


class CheckpointFormatError(ValueError):
    """Malformed checkpoint: bad magic/version, inconsistent lengths or a
    checksum mismatch."""


@dataclass(frozen=True)
class CheckpointData:
    state: State
    params: PhysParams
    step: int
    seed: int


@contextlib.contextmanager
def write_then_rename(path, mode: str, **open_args):
    """Open ``<path>.tmp`` (``mode``, ``open_args``) for the ``with`` body,
    then os.replace it onto ``path``; on any failure remove it and re-raise,
    so ``path`` keeps its previous content or stays absent.  No fsync: the
    rename guards against a process killed mid-write, the failure a killed
    run meets, not against a power loss or a kernel crash."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, state: State, params: PhysParams, step: int,
                    seed: int) -> None:
    """Write ``state`` as a format-2 checkpoint: the header, its three band
    arrays as they are held, and the CRC32 of both."""
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, state.grid.n, state.variant.wire_id,
        params.mu, params.chi, params.kappa, params.eta, params.nu,
        params.alpha[0], params.alpha[1], params.alpha[2],
        params.r, state.t, step, seed)
    crc = zlib.crc32(header)
    with write_then_rename(path, "wb") as fh:
        fh.write(header)
        for field in state.arrays:
            payload = np.ascontiguousarray(field, dtype="<c16")
            crc = zlib.crc32(payload, crc)
            fh.write(payload)
        fh.write(_CRC.pack(crc))


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint of either format.  The header is validated first:
    a magic other than ``MMP1``/``MMP2`` or a version other than its own,
    a non-finite time, a grid size `GridSpec` rejects or parameters
    `PhysParams` rejects raise `CheckpointFormatError`.  The file's size is
    then checked against the header's grid before the payload is read; a
    format-2 payload must match its checksum."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CheckpointFormatError("file shorter than the header")
        (magic, version, n, variant_id, mu, chi, kappa, eta, nu,
         a1, a2, a3, r, t, step, seed) = _HEADER.unpack(head)
        if magic not in _VERSIONS:
            raise CheckpointFormatError(f"bad magic {magic!r}")
        if version != _VERSIONS[magic]:
            raise CheckpointFormatError(
                f"unsupported format version {version}")
        if variant_id not in WIRE_VARIANTS:
            raise CheckpointFormatError(f"unknown variant id {variant_id}")
        if not math.isfinite(t):
            raise CheckpointFormatError(f"non-finite time {t}")
        try:
            grid = GridSpec(n)
            params = PhysParams(mu=mu, chi=chi, kappa=kappa, eta=eta, nu=nu,
                                alpha=(a1, a2, a3), r=r)
        except ValueError as exc:
            raise CheckpointFormatError(f"bad header: {exc}") from exc
        if magic == MAGIC:
            payload = 9 * math.prod(grid.band_shape) * 16 + _CRC.size
        else:
            payload = 9 * n ** 3 * 16
        expected = _HEADER.size + payload
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CheckpointFormatError(
                f"array payload length mismatch: expected {expected} bytes, "
                f"file has {size}")
        if magic == MAGIC:
            arrays = _read_band(fh, head, grid)
        else:
            arrays = _read_full(fh, grid)

    state = State.from_band(arrays, grid, WIRE_VARIANTS[variant_id], t=t)
    return CheckpointData(state=state, params=params, step=step, seed=seed)


def _read_band(fh, head: bytes, grid: GridSpec) -> np.ndarray:
    """The format-2 payload after ``head``, read into one (3, 3, band)
    array once its checksum matches."""
    arrays = np.empty((3, 3) + grid.band_shape, dtype="<c16")
    fh.readinto(memoryview(arrays).cast("B"))
    (crc,) = _CRC.unpack(fh.read(_CRC.size))
    if zlib.crc32(arrays, zlib.crc32(head)) != crc:
        raise CheckpointFormatError("checksum mismatch")
    return arrays.astype(np.complex128, copy=False)


def _read_full(fh, grid: GridSpec) -> np.ndarray:
    """The format-1 payload: each of its nine full-spectrum arrays read and
    its band gathered, one at a time."""
    n = grid.n
    arrays = np.empty((3, 3) + grid.band_shape, dtype=np.complex128)
    for component in arrays.reshape((9,) + grid.band_shape):
        component[...] = band_part(np.fromfile(
            fh, dtype="<c16", count=n ** 3).reshape(n, n, n), grid)
    return arrays
