"""Fixed binary checkpoints for bit-exact restart.

Layout (little-endian): magic ``MMP1``, format version u32, grid n u32,
variant id u32, the five coefficients f64, alpha f64x3, Diophantine
exponent f64, time f64, step count u64, seed u64, then nine coefficient
arrays (u1,u2,u3,w1,w2,w3,m1,m2,m3) as f64 (re, im) pairs, full-spectrum
row-major over (k1,k2,k3) with each axis ordered 0,1,...,n/2-1,-n/2,...,-1.

A checkpoint is written to ``<path>.tmp`` and renamed onto ``<path>``, so a
process that dies mid-write leaves the previous file (or none) under the
final name, never a truncated one.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .fields import PhysParams, State, WIRE_VARIANTS
from .spectral import GridSpec, SpectralVectorField

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


def save_checkpoint(path, state: State, params: PhysParams, step: int,
                    seed: int) -> None:
    n = state.grid.n
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, n, state.variant.wire_id,
        params.mu, params.chi, params.kappa, params.eta, params.nu,
        params.alpha[0], params.alpha[1], params.alpha[2],
        params.r, state.t, step, seed)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for f in (state.u, state.omega, state.magnetic):
                fh.write(np.ascontiguousarray(
                    f.coeffs.astype("<c16", copy=False)))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint.  The payload is read straight into one array, and
    its length is checked against the file's size before it is read."""
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
        expected = _HEADER.size + 9 * n ** 3 * 16
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CheckpointFormatError(
                f"array payload length mismatch: expected {expected} bytes, "
                f"file has {size}")
        payload = np.fromfile(fh, dtype="<c16", count=9 * n ** 3)

    grid = GridSpec(n)
    arrays = payload.reshape(3, 3, n, n, n).astype(np.complex128, copy=False)
    variant = WIRE_VARIANTS[variant_id]
    state = State(SpectralVectorField(arrays[0], grid),
                  SpectralVectorField(arrays[1], grid),
                  SpectralVectorField(arrays[2], grid),
                  variant, t=t)
    params = PhysParams(mu=mu, chi=chi, kappa=kappa, eta=eta, nu=nu,
                        alpha=(a1, a2, a3), r=r)
    return CheckpointData(state=state, params=params, step=step, seed=seed)
