"""Fixed binary checkpoints for bit-exact restart.

Layout (little-endian): magic ``MMP1``, format version u32, grid n u32,
variant id u32, the five coefficients f64, alpha f64x3, Diophantine
exponent f64, time f64, step count u64, seed u64, then nine coefficient
arrays (u1,u2,u3,w1,w2,w3,m1,m2,m3) as f64 (re, im) pairs, full-spectrum
row-major over (k1,k2,k3) with each axis ordered 0,1,...,n/2-1,-n/2,...,-1.
A `State` holds only its retained band, so the payload is its expansion
(`spectral.expand_band`): zero outside the 2/3-rule box, and k3 < 0
filled by Hermitian symmetry.  The nine arrays are expanded and written,
and read and gathered back to the band, one at a time, so neither
direction holds more than one full-spectrum scalar component.

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
from dataclasses import dataclass

import numpy as np

from .fields import PhysParams, State, WIRE_VARIANTS
from .spectral import GridSpec, band_part, expand_band

MAGIC = b"MMP1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIII5d3dddQQ")


class CheckpointFormatError(ValueError):
    """Malformed checkpoint: bad magic/version or inconsistent lengths."""


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
    n = state.grid.n
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, n, state.variant.wire_id,
        params.mu, params.chi, params.kappa, params.eta, params.nu,
        params.alpha[0], params.alpha[1], params.alpha[2],
        params.r, state.t, step, seed)
    with write_then_rename(path, "wb") as fh:
        fh.write(header)
        for field in state.arrays:
            for component in field:
                fh.write(expand_band(component, state.grid).astype(
                    "<c16", copy=False))


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint.  The header is validated first: a non-finite time,
    a grid size `GridSpec` rejects or parameters `PhysParams` rejects raise
    `CheckpointFormatError`.  The payload's length is checked against the
    file's size before it is read; then each of its nine arrays is read
    and its band gathered into the state, one at a time."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CheckpointFormatError("file shorter than the header")
        (magic, version, n, variant_id, mu, chi, kappa, eta, nu,
         a1, a2, a3, r, t, step, seed) = _HEADER.unpack(head)
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
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
        expected = _HEADER.size + 9 * n ** 3 * 16
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CheckpointFormatError(
                f"array payload length mismatch: expected {expected} bytes, "
                f"file has {size}")
        arrays = np.empty((3, 3) + grid.band_shape, dtype=np.complex128)
        for component in arrays.reshape((9,) + grid.band_shape):
            component[...] = band_part(np.fromfile(
                fh, dtype="<c16", count=n ** 3).reshape(n, n, n), grid)

    state = State.from_band(arrays, grid, WIRE_VARIANTS[variant_id], t=t)
    return CheckpointData(state=state, params=params, step=step, seed=seed)
