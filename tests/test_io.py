"""Checkpoint binary format, diagnostics CSV, and the CLI contracts."""

import builtins
import os
import re
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
import zlib

import numpy as np
import pytest

import mmpsim
from mmpsim import checkpoint, cli, integrator, spectral
from mmpsim.checkpoint import (
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from mmpsim.cli import cli_main
from mmpsim.diophantine import lifting_ratio
from mmpsim.diagio import (
    CSV_HEADER,
    read_diagnostics,
    truncate_diagnostics,
    write_diagnostics,
)
from mmpsim.fields import (
    InitSpec,
    PhysParams,
    State,
    SystemVariant,
    make_random_state,
)
from mmpsim.norms import RECORD_COLUMNS, DiagnosticsRecord
from mmpsim.selftest import CHECKS
from mmpsim.spectral import GridSpec

ZK = SystemVariant.ZERO_KINEMATIC
ZK_PARAMS = PhysParams(chi=1.0, eta=1.0, nu=1.0)


def sample_state(n=8, seed=1, variant=ZK, t=0.75):
    state = make_random_state(GridSpec(n), InitSpec(epsilon=0.1, seed=seed),
                              variant)
    return state.with_time(t)


def write_format_1(path, state, params, step, seed):
    """The format-1 (MMP1) writer: the header, then the nine full-spectrum
    components, each field written whole."""
    with open(path, "wb") as fh:
        fh.write(checkpoint._HEADER.pack(
            b"MMP1", 1, state.grid.n, state.variant.wire_id, params.mu,
            params.chi, params.kappa, params.eta, params.nu, *params.alpha,
            params.r, state.t, step, seed))
        for f in (state.u, state.omega, state.magnetic):
            fh.write(f.coeffs.tobytes())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        state = sample_state()
        path = tmp_path / "state.mmp"
        save_checkpoint(path, state, ZK_PARAMS, step=13, seed=1)
        data = load_checkpoint(path)
        assert np.array_equal(data.state.u.coeffs, state.u.coeffs)
        assert np.array_equal(data.state.omega.coeffs, state.omega.coeffs)
        assert np.array_equal(data.state.magnetic.coeffs, state.magnetic.coeffs)
        assert data.state.t == state.t
        assert data.state.variant is ZK
        assert data.params == ZK_PARAMS
        assert data.step == 13 and data.seed == 1

    def test_header_layout(self, tmp_path):
        state = sample_state(n=8)
        path = tmp_path / "state.mmp"
        save_checkpoint(path, state, ZK_PARAMS, step=2, seed=9)
        blob = path.read_bytes()
        assert blob[:4] == b"MMP2"
        version, n, variant_id = struct.unpack_from("<III", blob, 4)
        assert version == 2 and n == 8 and variant_id == ZK.wire_id
        # the band of 8^3 is (5, 5, 3), then a 4-byte checksum
        assert len(blob) == 112 + 9 * 5 * 5 * 3 * 16 + 4

    def test_coefficient_order_is_fft_layout(self, tmp_path):
        # the first stored complex value is the k=(0,0,0) mode of u1, the
        # second is k=(0,0,1)
        state = sample_state(n=8)
        path = tmp_path / "state.mmp"
        save_checkpoint(path, state, ZK_PARAMS, step=0, seed=0)
        blob = path.read_bytes()
        first, second = np.frombuffer(blob, dtype="<c16", count=2, offset=112)
        assert first == state.u.coeffs[0, 0, 0, 0]
        assert second == state.u.coeffs[0, 0, 0, 1]

    def test_writes_the_band_arrays_and_their_checksum(self, tmp_path):
        # oracle: the header, the state's three band arrays as bytes and
        # the CRC32 of both, joined; the writer builds no full-spectrum
        # array (one 32^3 scalar component would be 0.52 MB)
        g = GridSpec(32)
        state = make_random_state(g, InitSpec(epsilon=0.1, seed=4), ZK)
        state = state.with_time(0.5)
        body = checkpoint._HEADER.pack(
            b"MMP2", 2, g.n, ZK.wire_id, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0,
            0.0, 2.5, 0.5, 3, 4) + b"".join(a.tobytes() for a in state.arrays)
        path = tmp_path / "state.mmp"
        save_checkpoint(path, state, ZK_PARAMS, step=3, seed=4)
        tracemalloc.start()
        try:
            save_checkpoint(path, state, ZK_PARAMS, step=3, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))
        assert peak <= 64 * 1024
        data = load_checkpoint(path)
        for a, b in zip(data.state.arrays, state.arrays):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("variant", [ZK, SystemVariant.PERTURBATION])
    def test_format_1_file_loads_to_the_same_band(self, tmp_path, variant):
        # oracle: the format-1 writer, each full-spectrum field whole
        state = sample_state(n=16, seed=6, variant=variant)
        path = tmp_path / "state.mmp"
        write_format_1(path, state, ZK_PARAMS, step=3, seed=6)
        data = load_checkpoint(path)
        for a, b in zip(data.state.arrays, state.arrays):
            assert a.tobytes() == b.tobytes()
        assert data.state.t == state.t and data.state.variant is variant
        assert (data.params, data.step, data.seed) == (ZK_PARAMS, 3, 6)

    def test_every_flipped_byte_is_refused(self, tmp_path):
        # one byte of an 8^3 file changed by each of three masks, at every
        # offset: header, payload and checksum alike; each change is made
        # in place and undone after the load
        path = tmp_path / "state.mmp"
        save_checkpoint(path, sample_state(n=8), ZK_PARAMS, step=5, seed=1)
        blob = path.read_bytes()
        accepted = []
        with open(path, "r+b") as fh:
            for offset, byte in enumerate(blob):
                for mask in (0x01, 0x80, 0xFF):
                    fh.seek(offset)
                    fh.write(bytes([byte ^ mask]))
                    fh.flush()
                    try:
                        load_checkpoint(path)
                    except CheckpointFormatError:
                        pass
                    else:
                        accepted.append((offset, mask))
                    fh.seek(offset)
                    fh.write(bytes([byte]))
                    fh.flush()
        assert accepted == []
        assert path.read_bytes() == blob
        load_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.mmp"
        save_checkpoint(path, sample_state(seed=1), ZK_PARAMS, step=1, seed=1)
        before = path.read_bytes()

        class FailingFile:
            """Writes the header and the first array, then fails."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.writes == 2:
                    raise OSError("no space left on device")
                self.writes += 1
                return self.fh.write(data)

        monkeypatch.setattr(checkpoint, "open", raising=False,
                            value=lambda *a, **k: FailingFile(
                                builtins.open(*a, **k)))
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, sample_state(seed=2), ZK_PARAMS, step=2,
                            seed=2)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mmp"
        path.write_bytes(b"NOPE" + b"\x00" * 200)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_file_shorter_than_the_header_rejected(self, tmp_path):
        path = tmp_path / "short.mmp"
        save_checkpoint(path, sample_state(n=8), ZK_PARAMS, step=0, seed=0)
        path.write_bytes(path.read_bytes()[:checkpoint._HEADER.size - 1])
        with pytest.raises(CheckpointFormatError,
                           match="^file shorter than the header$"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        state = sample_state(n=8)
        path = tmp_path / "state.mmp"
        save_checkpoint(path, state, ZK_PARAMS, step=0, seed=0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_overlong_payload_rejected(self, tmp_path):
        state = sample_state(n=8)
        path = tmp_path / "state.mmp"
        save_checkpoint(path, state, ZK_PARAMS, step=0, seed=0)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointFormatError, match="length mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset, fmt, value", [
        (88, "<d", float("nan")),   # time
        (88, "<d", float("inf")),
        (8, "<I", 0),               # grid n
        (8, "<I", 9),
        (16, "<d", -1.0),           # mu
    ])
    def test_bad_header_field_rejected(self, tmp_path, offset, fmt, value):
        # the payload length matches the header's n and the checksum the
        # bytes, so only the header field itself is wrong
        path = tmp_path / "state.mmp"
        save_checkpoint(path, sample_state(n=8), ZK_PARAMS, step=0, seed=0)
        header = bytearray(path.read_bytes()[:112])
        struct.pack_into(fmt, header, offset, value)
        (n,) = struct.unpack_from("<I", header, 8)
        body = bytes(header) + bytes(9 * (2 * (n // 3) + 1) ** 2
                                     * (n // 3 + 1) * 16)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointFormatError, match="bad header|time"):
            load_checkpoint(path)


class TestDiagnosticsCsv:
    def test_header_exact(self):
        assert CSV_HEADER == ("t,l2_energy,h3,hN,hr5,F_func,E_func,D_func,"
                              "alpha_grad_B_hr3,div_u_max,div_b_max,cancel_max")

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_diagnostics([], path)
        assert path.read_text() == CSV_HEADER + "\n"
        assert read_diagnostics(path) == []

    def test_round_trip_bit_exact(self, tmp_path):
        rec = DiagnosticsRecord(
            t=1.0 / 3.0, l2_energy=np.pi * 1e-7, h3=1.2345678901234567e-3,
            hN=None, hr5=7.0, F_func=2.0 ** -40, E_func=None, D_func=None,
            alpha_grad_B_hr3=None, div_u_max=1e-300, div_b_max=0.0,
            cancel_max=None)
        path = tmp_path / "diag.csv"
        write_diagnostics([rec], path)
        assert read_diagnostics(path) == [rec]

    def test_truncate_keeps_rows_up_to_time(self, tmp_path):
        path = tmp_path / "diag.csv"
        records = [DiagnosticsRecord(t=0.1 * i, l2_energy=1.0 + i)
                   for i in range(5)]
        write_diagnostics(records, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0.5,2.5,")  # a row cut short by a killed writer
        truncate_diagnostics(path, records[2].t)
        assert read_diagnostics(path) == records[:3]
        assert not (tmp_path / "diag.csv.tmp").exists()
        missing = tmp_path / "new.csv"
        truncate_diagnostics(missing, 1.0)
        assert missing.read_text() == CSV_HEADER + "\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n0,1\n")
        with pytest.raises(ValueError):
            truncate_diagnostics(bad, 1.0)
        assert bad.read_text() == "t,x\n0,1\n"

    def test_failed_truncate_keeps_previous_file(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "diag.csv"
        write_diagnostics([DiagnosticsRecord(t=0.1 * i, l2_energy=1.0 + i)
                           for i in range(5)], path)
        before = path.read_bytes()

        class FailingFile:
            """Writes the header line, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def writelines(self, lines):
                self.fh.write(lines[0])
                raise OSError("no space left on device")

        monkeypatch.setattr(checkpoint, "open", raising=False,
                            value=lambda *a, **k: FailingFile(
                                builtins.open(*a, **k)))
        with pytest.raises(OSError, match="no space"):
            truncate_diagnostics(path, 0.25)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_truncate_names_the_row_it_cannot_read(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_diagnostics([DiagnosticsRecord(t=0.1 * i, l2_energy=1.0 + i)
                           for i in range(3)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("x,1,2\n")
        before = path.read_bytes()
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(str(path))}:5: could not convert string to "
                rf"float: 'x'$")):
            truncate_diagnostics(path, 1.0)
        assert path.read_bytes() == before

    def test_absent_fields_written_empty(self, tmp_path):
        rec = DiagnosticsRecord(t=0.0, l2_energy=1.0)
        path = tmp_path / "diag.csv"
        write_diagnostics([rec], path)
        row = path.read_text().splitlines()[1]
        assert row == "0,1,,,,,,,,,,"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("time,count\n0,1\n")
        with pytest.raises(ValueError):
            read_diagnostics(path)

    @pytest.mark.parametrize("row, message", [
        ("0,1", f"expected {len(RECORD_COLUMNS)} fields, got 2"),
        (",1" + "," * (len(RECORD_COLUMNS) - 2),
         "t and l2_energy are required"),
        ("0" + "," * (len(RECORD_COLUMNS) - 1),
         "t and l2_energy are required"),
    ], ids=["width", "no-t", "no-l2_energy"])
    def test_bad_row_refused_on_its_line(self, tmp_path, row, message):
        path = tmp_path / "diag.csv"
        good = "0,1" + "," * (len(RECORD_COLUMNS) - 2)
        path.write_text(f"{CSV_HEADER}\n{good}\n{row}\n")
        with pytest.raises(ValueError) as info:
            read_diagnostics(path)
        assert str(info.value) == f"{path}:3: {message}"

    def test_thousand_record_fit_pipeline(self, tmp_path):
        # synthetic decay written, re-read, and fitted end to end
        from mmpsim.norms import fit_decay
        t = np.linspace(0.0, 30.0, 1000)
        records = [DiagnosticsRecord(t=float(ti),
                                     l2_energy=float(4.0 * np.exp(-0.7 * ti)),
                                     h3=float(2.0 * (1.0 + ti) ** -1.5))
                   for ti in t]
        path = tmp_path / "long.csv"
        write_diagnostics(records, path)
        back = read_diagnostics(path)
        assert len(back) == 1000
        exp = fit_decay([r.t for r in back], [r.l2_energy for r in back],
                        "exponential")
        alg = fit_decay([r.t for r in back], [r.h3 for r in back],
                        "algebraic")
        assert exp.rate == pytest.approx(0.7, abs=1e-9)
        assert alg.exponent == pytest.approx(-1.5, abs=1e-9)


CONFIG_TEMPLATE = """
grid.n = 16
system = zero-kinematic
params.chi = 1
params.eta = 1
params.nu = 1
init.epsilon = 0.01
init.seed = 11
time.dt = 0.05
time.t_end = {t_end}
time.record_interval = 0.1
output.dir = {outdir}
{extra}
"""


class TestCli:
    def test_check_diophantine_degenerate_exit_zero(self, capsys):
        code = cli_main(["check-diophantine", "--alpha", "1,1,0",
                         "--r", "2.5", "--kmax", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "degenerate = true" in out

    def test_verify_lemma(self, capsys):
        code = cli_main(["verify-lemma", "--alpha", "1,1.41421356,1.7320508",
                         "--s", "0", "--r", "2.5", "--n", "16",
                         "--trials", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode_bound" in out

    @pytest.mark.parametrize("alpha, want", [
        ("1,1.41421356,1.7320508",
         "alpha = 1,1.4142135600000001,1.7320507999999999\n"
         "r = 2.5\nk_max = 6\nc_est = 0.45202324146479128\n"
         "argmin_k = 3,4,-5\ndegenerate = false\n"),
        ("1,1,0",
         "alpha = 1,1,0\nr = 2.5\nk_max = 6\nc_est = 0\n"
         "argmin_k = 0,0,1\ndegenerate = true\n"),
    ], ids=["generic", "degenerate"])
    def test_check_diophantine_stdout(self, capsys, alpha, want):
        assert cli_main(["check-diophantine", "--alpha", alpha, "--r", "2.5",
                         "--kmax", "6"]) == 0
        assert capsys.readouterr().out == want

    def test_verify_lemma_stdout(self, capsys):
        # the two ratios are sample statistics of FFT-transformed data,
        # taken from the library call; every other value is pinned
        assert cli_main(["verify-lemma", "--alpha", "1,1.41421356,1.7320508",
                         "--s", "0", "--r", "2.5", "--n", "8", "--trials",
                         "2", "--seed", "1"]) == 0
        report = lifting_ratio((1.0, 1.41421356, 1.7320508), 0.0, 2.5,
                               GridSpec(8), 2, 1)
        assert capsys.readouterr().out == (
            "alpha = 1,1.4142135600000001,1.7320507999999999\n"
            "s = 0\nr = 2.5\nk_max = 2\ntrials = 2\n"
            f"max_ratio = {report.max_ratio:.17g}\n"
            f"mean_ratio = {report.mean_ratio:.17g}\n"
            "mode_bound = 1.1272066916045511\nbound_mode = 2,1,-2\n")

    def test_verify_lemma_degenerate_is_validation_error(self, capsys):
        code = cli_main(["verify-lemma", "--alpha", "1,1,0", "--s", "0",
                         "--r", "2.5", "--n", "16"])
        assert code == 1

    @pytest.mark.parametrize("n", ["1540", "2000"])
    def test_verify_lemma_refuses_a_grid_beyond_the_search_radius(
            self, capsys, n):
        # the refusal names the grid size and the largest one accepted,
        # not the --kmax of check-diophantine, and comes before any n^3
        # array is made
        code = cli_main(["verify-lemma", "--alpha", "1,1.41421356,1.7320508",
                         "--s", "0", "--r", "2.5", "--n", n])
        err = capsys.readouterr().err
        assert code == 1
        assert f"n={n} " in err and "largest accepted n is 1538" in err
        assert "k_max" not in err

    def test_verify_lemma_resonance_names_plain_floats(self, capsys):
        # the refusal printed numpy's scalar reprs, alpha=(np.float64(0.3),
        # ...)
        code = cli_main(["verify-lemma", "--alpha", "0.3,0.5,0.7", "--s",
                         "1", "--r", "2.5", "--n", "8", "--trials", "2"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: alpha=(0.3, 0.5, 0.7) is resonant on the truncated "
            "lattice: alpha.k vanishes at k=(1, -2, 1)\n")

    R_WARNING = ("warning: Diophantine exponent r=1.0 <= 2: the lifting "
                 "inequality holds for almost no such vector\n")

    def test_small_r_warning_is_one_stderr_line(self):
        # in its own process, where Python's default warning display would
        # print the source path, UserWarning and the source line
        src = os.path.dirname(os.path.dirname(mmpsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "mmpsim.cli", "check-diophantine",
             "--alpha", "1,1.41421356,1.7320508", "--r", "1", "--kmax", "4"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == self.R_WARNING
        assert "degenerate = false" in proc.stdout

    @pytest.mark.parametrize("alpha, code", [("1,1.41421356,1.7320508", 0),
                                             ("0.3,0.5,0.7", 1)],
                             ids=["report", "resonant"])
    def test_verify_lemma_small_r_warning(self, capsys, alpha, code):
        # printed before the report, and before the error when the scan
        # refuses the vector
        assert cli_main(["verify-lemma", "--alpha", alpha, "--s", "0",
                         "--r", "1", "--n", "8", "--trials", "2"]) == code
        err = capsys.readouterr().err
        assert err.startswith(self.R_WARNING)
        assert err.count("\n") == 1 + code

    FLOOR_CONFIG = """
grid.n = 8
system = zero-kinematic
params.chi = 1
params.eta = 1
params.nu = 1
init.epsilon = 1e9
init.seed = 11
time.dt = 0.05
time.t_end = 1e-7
time.record_interval = 0.1
output.dir = {outdir}
"""
    FLOOR_WARNINGS = [
        "warning: stable_dt floored at 5.000e-08 (computed bound 1.306e-08)",
        "warning: stable_dt floored at 5.000e-08 (computed bound 1.131e-08)",
    ]

    def test_run_floor_warnings_are_stderr_lines(self, tmp_path):
        # in its own process, where Python's default warning display
        # printed the source path, UserWarning and the source line per step
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(self.FLOOR_CONFIG.format(outdir=tmp_path / "out"))
        src = os.path.dirname(os.path.dirname(mmpsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "mmpsim.cli", "run", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == "".join(w + "\n" for w in self.FLOOR_WARNINGS)
        assert "steps = 2" in proc.stdout

    def test_run_prints_each_floor_as_it_happens(self, tmp_path, capsys,
                                                 monkeypatch):
        # each step's stable_dt floors before the step: its line is on
        # stderr when the step starts, not collected until run returns
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(self.FLOOR_CONFIG.format(outdir=tmp_path / "out"))
        original_step = integrator.step
        seen = []

        def step(*args, **kwargs):
            seen.append(capsys.readouterr().err)
            return original_step(*args, **kwargs)
        monkeypatch.setattr(integrator, "step", step)
        assert cli_main(["run", "--config", str(cfg)]) == 0
        assert seen == [w + "\n" for w in self.FLOOR_WARNINGS]
        assert capsys.readouterr().err == ""

    def test_run_out_of_memory_is_reported(self, tmp_path, capsys,
                                           monkeypatch):
        # a grid.n of 100000 ran out of memory building grid.band and
        # ended in a traceback; the failure is raised here instead, with
        # numpy's message for that case
        message = ("Unable to allocate 33.1 GiB for an array with shape "
                   "(66667, 66667, 1) and data type float64")

        def refuse(*args):
            raise MemoryError(message)
        monkeypatch.setattr(spectral.SpectralLayout, "of", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(t_end=0.1,
                                              outdir=tmp_path / "out",
                                              extra=""))
        assert cli_main(["run", "--config", str(cfg)]) == cli.EXIT_MEMORY == 4
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    def test_verify_lemma_refuses_trials_before_the_scan(self, capsys):
        # a resonant alpha is found by the lattice scan, which trials < 1
        # must not reach
        code = cli_main(["verify-lemma", "--alpha", "1,1,0", "--s", "0",
                         "--r", "2.5", "--n", "16", "--trials", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: trials must be >= 1\n"

    def test_fit_decay_synthetic(self, tmp_path, capsys):
        t = np.linspace(0.0, 10.0, 50)
        records = [DiagnosticsRecord(t=float(ti),
                                     l2_energy=float(5.0 * np.exp(-0.3 * ti)))
                   for ti in t]
        path = tmp_path / "synthetic.csv"
        write_diagnostics(records, path)
        code = cli_main(["fit-decay", "--csv", str(path), "--column",
                         "l2_energy", "--model", "exp", "--tmin", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rate = 0.3" in out.replace("0.29999999999999", "0.3")

    def test_fit_decay_algebraic_prints_its_exponent(self, tmp_path, capsys):
        t = np.linspace(0.0, 40.0, 80)
        path = tmp_path / "synthetic.csv"
        write_diagnostics([DiagnosticsRecord(
            t=float(ti), l2_energy=float(2.0 * (1.0 + ti) ** -1.5))
            for ti in t], path)
        assert cli_main(["fit-decay", "--csv", str(path), "--column",
                         "l2_energy", "--model", "alg"]) == 0
        lines = dict(line.split(" = ")
                     for line in capsys.readouterr().out.splitlines())
        assert list(lines) == ["model", "amplitude", "exponent", "r_squared",
                               "n_samples"]
        assert lines["model"] == "algebraic" and lines["n_samples"] == "80"
        assert float(lines["exponent"]) == pytest.approx(-1.5, abs=1e-6)

    def test_fit_decay_empty_column_is_refused(self, tmp_path, capsys):
        path = tmp_path / "synthetic.csv"
        write_diagnostics([DiagnosticsRecord(t=0.0, l2_energy=1.0)], path)
        assert cli_main(["fit-decay", "--csv", str(path), "--column", "h3",
                         "--model", "alg"]) == 1
        assert capsys.readouterr().err == "error: column 'h3' is empty\n"

    def test_fit_decay_nan_tmin_is_named(self, tmp_path, capsys):
        t = np.linspace(0.0, 10.0, 50)
        path = tmp_path / "synthetic.csv"
        write_diagnostics([DiagnosticsRecord(t=float(ti), l2_energy=1.0)
                           for ti in t], path)
        assert cli_main(["fit-decay", "--csv", str(path), "--column",
                         "l2_energy", "--model", "exp", "--tmin", "nan"]) == 1
        assert capsys.readouterr().err == (
            "error: t_min is NaN, which no sample time reaches\n")

    def test_fit_decay_unknown_column(self, tmp_path):
        path = tmp_path / "synthetic.csv"
        write_diagnostics([], path)
        assert cli_main(["fit-decay", "--csv", str(path), "--column",
                         "entropy", "--model", "exp"]) == 1

    def test_fit_decay_unparseable_cell_names_file_and_line(self, tmp_path,
                                                             capsys):
        path = tmp_path / "bad.csv"
        row = ",".join(["x"] + ["1"] * (len(RECORD_COLUMNS) - 1))
        path.write_text(f"{CSV_HEADER}\n{row}\n")
        assert cli_main(["fit-decay", "--csv", str(path), "--column",
                         "l2_energy", "--model", "exp"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: could not convert string to float: 'x'\n")

    def test_fit_decay_missing_file_is_io_error(self):
        assert cli_main(["fit-decay", "--csv", "/nonexistent/x.csv",
                         "--column", "h3", "--model", "exp"]) == 3

    def test_selftest_prints_properties(self, capsys):
        assert cli_main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(CHECKS)
        for (name, _), line in zip(CHECKS, lines):
            assert line.startswith(f"PASS  {name}  (")

    def test_bad_arguments_exit_one(self, capsys):
        assert cli_main(["run"]) == 1
        capsys.readouterr()

    def test_run_missing_config_is_io_error(self):
        assert cli_main(["run", "--config", "/nonexistent/run.cfg"]) == 3

    def test_run_invalid_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.n = 7\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    # CI's 8^3 zero-kinematic run; t_end = 0.1 is on a record boundary of
    # 0.05 but not of 1.0, where the last record is the initial one
    RUN8_CONFIG = """
grid.n = 8
system = zero-kinematic
params.chi = 1
params.eta = 1
params.nu = 1
init.epsilon = 0.01
init.seed = 11
time.dt = 0.05
time.t_end = 0.1
time.record_interval = {interval}
output.dir = {outdir}
"""

    @pytest.mark.parametrize("interval, record_t", [("1.0", "0"),
                                                    ("0.05", "0.1")])
    def test_run_summary_names_its_records_time(self, tmp_path, capsys,
                                                interval, record_t):
        # the summary printed t = 0.10000000000000001 above the values of
        # the t = 0 record, as if they were the final state's
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.RUN8_CONFIG.format(interval=interval,
                                               outdir=outdir))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        last = read_diagnostics(outdir / "diagnostics.csv")[-1]
        assert f"{last.t:.17g}".startswith(record_t)
        assert capsys.readouterr().out == (
            "status = completed\n"
            "steps = 2\n"
            "t = 0.10000000000000001\n"
            f"record_t = {last.t:.17g}\n"
            f"l2_energy = {last.l2_energy:.17g}\n"
            f"h3 = {last.h3:.17g}\n")

    def test_run_and_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(t_end=0.5, outdir=outdir,
                                              extra=""))
        code = cli_main(["run", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status = completed" in out
        records = read_diagnostics(outdir / "diagnostics.csv")
        assert len(records) >= 5
        assert (outdir / "final.mmp").exists()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path, capsys):
        # oracle: a single uninterrupted run; the interrupted run restarts
        # from a mid-trajectory checkpoint and must match bit-exactly
        full_dir = tmp_path / "full"
        cfg_full = tmp_path / "full.cfg"
        cfg_full.write_text(CONFIG_TEMPLATE.format(
            t_end=1.0, outdir=full_dir, extra=""))
        assert cli_main(["run", "--config", str(cfg_full)]) == 0

        part_dir = tmp_path / "part"
        cfg_part = tmp_path / "part.cfg"
        cfg_part.write_text(CONFIG_TEMPLATE.format(
            t_end=0.5, outdir=part_dir,
            extra="output.checkpoint_interval = 0.5"))
        assert cli_main(["run", "--config", str(cfg_part)]) == 0

        checkpoints = sorted(part_dir.glob("checkpoint_*.mmp"))
        assert checkpoints
        cfg_resume = tmp_path / "resume.cfg"
        resume_dir = tmp_path / "resumed"
        cfg_resume.write_text(CONFIG_TEMPLATE.format(
            t_end=1.0, outdir=resume_dir, extra=""))
        assert cli_main(["run", "--config", str(cfg_resume),
                         "--resume", str(checkpoints[-1])]) == 0
        capsys.readouterr()

        full = load_checkpoint(full_dir / "final.mmp")
        resumed = load_checkpoint(resume_dir / "final.mmp")
        assert full.state.t == resumed.state.t
        assert np.array_equal(full.state.u.coeffs, resumed.state.u.coeffs)
        assert np.array_equal(full.state.omega.coeffs,
                              resumed.state.omega.coeffs)
        assert np.array_equal(full.state.magnetic.coeffs,
                              resumed.state.magnetic.coeffs)

    def test_killed_run_resumes_to_identical_outputs(self, tmp_path, capsys):
        # a child `mmpsim run` is SIGKILLed once its first checkpoint exists
        # and resumed in place from its last one; every output file must
        # match an uninterrupted run byte for byte
        extra = "output.checkpoint_interval = 0.1"
        full_dir = tmp_path / "full"
        cfg_full = tmp_path / "full.cfg"
        cfg_full.write_text(CONFIG_TEMPLATE.format(
            t_end=3.0, outdir=full_dir, extra=extra))
        assert cli_main(["run", "--config", str(cfg_full)]) == 0
        capsys.readouterr()

        kill_dir = tmp_path / "killed"
        cfg_kill = tmp_path / "killed.cfg"
        cfg_kill.write_text(CONFIG_TEMPLATE.format(
            t_end=3.0, outdir=kill_dir, extra=extra))
        src = os.path.dirname(os.path.dirname(mmpsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-m", "mmpsim.cli", "run", "--config",
             str(cfg_kill)], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not list(kill_dir.glob("checkpoint_*.mmp")):
                assert child.poll() is None, "run ended before a checkpoint"
                assert time.monotonic() < deadline
                time.sleep(0.005)
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert not (kill_dir / "final.mmp").exists()

        checkpoints = sorted(kill_dir.glob("checkpoint_*.mmp"))
        assert cli_main(["run", "--config", str(cfg_kill),
                         "--resume", str(checkpoints[-1])]) == 0
        capsys.readouterr()

        expected = sorted(p.name for p in full_dir.iterdir())
        assert "diagnostics.csv" in expected and "final.mmp" in expected
        assert sorted(p.name for p in kill_dir.iterdir()) == expected
        for name in expected:
            assert (kill_dir / name).read_bytes() == \
                (full_dir / name).read_bytes(), name

    def test_blow_up_exits_with_integrity_code(self, tmp_path, capsys):
        # a checkpoint poisoned with NaN coefficients trips the integrity
        # check on the first resumed step.  The summary and the error line
        # both count the checkpoint's steps; the error line used to print
        # the resumed run's own count ("steps = 7", then "blow-up detected
        # at step 0")
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(t_end=0.5, outdir=outdir,
                                              extra=""))
        grid = GridSpec(16)
        state = sample_state(n=16, seed=11, t=0.1)
        poisoned = state.u.coeffs.copy()
        poisoned[0, 1, 0, 0] = np.nan
        from mmpsim.spectral import SpectralVectorField
        bad = State(SpectralVectorField(poisoned, grid), state.omega,
                    state.magnetic, state.variant, t=state.t)
        ckpt = tmp_path / "bad.mmp"
        save_checkpoint(ckpt, bad, ZK_PARAMS, step=7, seed=11)
        code = cli_main(["run", "--config", str(cfg), "--resume", str(ckpt)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "status = blow_up\nsteps = 7\nt = 0.10000000000000001\n"
        assert err.splitlines()[-1] == "error: blow-up detected at step 7"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_record_exits_with_integrity_code(self, tmp_path,
                                                         capsys):
        # epsilon = 1e160 is finite, but the squared norms of the initial
        # record overflow: a blow-up at step 0, not a traceback
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.5, outdir=outdir, extra="").replace(
            "grid.n = 16", "grid.n = 8").replace(
            "init.epsilon = 0.01", "init.epsilon = 1e160"))
        code = cli_main(["run", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert "blow-up detected at step 0" in captured.err
        assert "status = blow_up" in captured.out
        assert read_diagnostics(outdir / "diagnostics.csv") == []

    @pytest.mark.parametrize("key, value", [
        ("init.spectrum_slope", "nan"), ("init.spectrum_slope", "inf"),
        ("init.k_peak", "nan"), ("init.k_peak", "inf"),
        ("init.sobolev_index", "nan"), ("init.sobolev_index", "inf"),
    ])
    def test_non_finite_init_setting_is_a_config_error(self, tmp_path,
                                                       capsys, key, value):
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        text = CONFIG_TEMPLATE.format(
            t_end=0.5, outdir=outdir, extra=f"{key} = {value}").replace(
            "grid.n = 16", "grid.n = 8")
        cfg.write_text(text)
        lineno = text.splitlines().index(f"{key} = {value}") + 1
        code = cli_main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: line {lineno}: bad value for {key!r}: " in err
        assert not outdir.exists()

    @pytest.mark.parametrize("key", ["time.record_interval",
                                     "output.checkpoint_interval"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_interval_is_a_config_error(self, tmp_path, capsys,
                                                   key, value):
        # a NaN interval used to pass validation, write a header-only
        # diagnostics.csv, and then fail converting NaN to an integer
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        text = CONFIG_TEMPLATE.format(
            t_end=0.5, outdir=outdir, extra="").replace(
            "grid.n = 16", "grid.n = 8").replace(
            "time.record_interval = 0.1\n", "") + f"{key} = {value}\n"
        cfg.write_text(text)
        lineno = text.splitlines().index(f"{key} = {value}") + 1
        code = cli_main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: line {lineno}: bad value for {key!r}: " in err
        assert not (outdir / "diagnostics.csv").exists()

    def test_resume_from_bad_header_keeps_diagnostics(self, tmp_path,
                                                      capsys):
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.2, outdir=outdir, extra="output.checkpoint_interval = 0.1"))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        csv = outdir / "diagnostics.csv"
        before = csv.read_bytes()
        assert len(read_diagnostics(csv)) > 1
        ckpt = sorted(outdir.glob("checkpoint_*.mmp"))[-1]
        blob = bytearray(ckpt.read_bytes())
        struct.pack_into("<d", blob, 88, float("nan"))  # the header time
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        code = cli_main(["run", "--config", str(cfg), "--resume", str(ckpt)])
        assert code == 1
        assert "bad checkpoint" in capsys.readouterr().err
        assert csv.read_bytes() == before

    @pytest.mark.parametrize("where", ["header", "payload", "checksum"])
    def test_resume_from_a_flipped_byte_keeps_diagnostics(self, tmp_path,
                                                          capsys, where):
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.2, outdir=outdir, extra="output.checkpoint_interval = 0.1"))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        csv = outdir / "diagnostics.csv"
        before = csv.read_bytes()
        ckpt = sorted(outdir.glob("checkpoint_*.mmp"))[0]
        blob = bytearray(ckpt.read_bytes())
        offset = {"header": 60, "payload": len(blob) // 2,
                  "checksum": len(blob) - 1}[where]
        blob[offset] ^= 0x01
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        code = cli_main(["run", "--config", str(cfg), "--resume", str(ckpt)])
        assert code == 1
        assert "error: bad checkpoint: " in capsys.readouterr().err
        assert csv.read_bytes() == before

    def test_resume_from_format_1_matches_format_2(self, tmp_path, capsys):
        # the same mid-run checkpoint, rewritten by the format-1 writer,
        # resumes to the same files as the format-2 one and as the
        # uninterrupted run
        extra = "output.checkpoint_interval = 0.1"
        full_dir = tmp_path / "full"
        cfg_full = tmp_path / "full.cfg"
        cfg_full.write_text(CONFIG_TEMPLATE.format(
            t_end=0.3, outdir=full_dir, extra=extra))
        assert cli_main(["run", "--config", str(cfg_full)]) == 0
        ckpt = full_dir / "checkpoint_00000002.mmp"
        data = load_checkpoint(ckpt)
        old = tmp_path / "format1.mmp"
        write_format_1(old, data.state, data.params, data.step, data.seed)
        outputs = []
        for name, source in (("from2", ckpt), ("from1", old)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(CONFIG_TEMPLATE.format(
                t_end=0.3, outdir=tmp_path / name, extra=extra))
            assert cli_main(["run", "--config", str(cfg), "--resume",
                             str(source)]) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in (tmp_path / name).iterdir()})
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        assert outputs[1]["final.mmp"] == (full_dir / "final.mmp").read_bytes()
        assert "checkpoint_00000004.mmp" in outputs[1]

    def test_resume_far_past_t_end_is_refused(self, tmp_path, capsys):
        # t / record_interval overflows at the checkpoint's t = 1e10; the
        # run used to end in an OverflowError traceback
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.1, outdir=outdir, extra="").replace(
            "time.record_interval = 0.1", "time.record_interval = 1e-300"))
        ckpt = tmp_path / "late.mmp"
        save_checkpoint(ckpt, sample_state(n=16, seed=11, t=1e10), ZK_PARAMS,
                        step=2, seed=11)
        code = cli_main(["run", "--config", str(cfg), "--resume", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 1
        assert ("error: record_interval 1e-300 is too small for the start "
                "time t = 10000000000.0: t/record_interval overflows" in err)
        assert not (outdir / "final.mmp").exists()

    @pytest.mark.parametrize("source, t_end, t", [
        ("checkpoint_00000002.mmp", 0.05, "0.1"),
        ("checkpoint_00000001.mmp", 0.04, "0.05"),
        ("final.mmp", 0.1, None),
    ], ids=["last", "first", "final-at-t-end"])
    def test_resume_past_t_end_is_refused(self, tmp_path, capsys, source,
                                          t_end, t):
        # a checkpoint past time.t_end used to resume to "status =
        # completed" with no step, rewriting final.mmp (and truncating the
        # CSV after the checkpoint); now it is refused before any output is
        # touched.  final.mmp at t_end is within the run's end tolerance
        # and resumes to a successful no-op, which prints the uninterrupted
        # run's summary, its last record read from the CSV (it used to
        # print no record_t, l2_energy or h3 line)
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        text = CONFIG_TEMPLATE.replace("grid.n = 16", "grid.n = 8")
        cfg.write_text(text.format(
            t_end=0.1, outdir=outdir,
            extra="output.checkpoint_interval = 0.05"))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        before = {f.name: f.read_bytes() for f in outdir.iterdir()}
        cfg.write_text(text.format(
            t_end=t_end, outdir=outdir,
            extra="output.checkpoint_interval = 0.05"))
        uninterrupted = capsys.readouterr().out
        code = cli_main(["run", "--config", str(cfg), "--resume",
                         str(outdir / source)])
        out, err = capsys.readouterr()
        if t is None:
            assert (code, err) == (0, "")
            last = read_diagnostics(outdir / "diagnostics.csv")[-1]
            assert out == uninterrupted == (
                "status = completed\nsteps = 2\nt = 0.10000000000000001\n"
                f"record_t = {last.t:.17g}\n"
                f"l2_energy = {last.l2_energy:.17g}\n"
                f"h3 = {last.h3:.17g}\n")
        else:
            assert (code, out) == (1, "")
            assert err == f"error: the start time t = {t} is past t_end = " \
                          f"{t_end}\n"
        assert {f.name: f.read_bytes() for f in outdir.iterdir()} == before

    def test_step_cap_binds_the_resumed_trajectory(self, tmp_path, capsys):
        # time.max_steps caps the trajectory, the checkpoint's steps
        # counted: resumed in place from its step-1 checkpoint, the capped
        # run stops where the uninterrupted one did.  It used to take two
        # more steps, print steps = 3 and write checkpoint_00000003.mmp
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.RUN8_CONFIG.format(interval="0.05", outdir=outdir)
                       .replace("time.t_end = 0.1", "time.t_end = 0.2")
                       + "time.max_steps = 2\n"
                         "output.checkpoint_interval = 0.05\n")
        assert cli_main(["run", "--config", str(cfg)]) == 0
        uninterrupted = capsys.readouterr().out
        assert uninterrupted.startswith("status = step_cap\nsteps = 2\n")
        before = {f.name: f.read_bytes() for f in outdir.iterdir()}
        (outdir / "checkpoint_00000002.mmp").unlink()
        (outdir / "final.mmp").unlink()
        assert cli_main(["run", "--config", str(cfg), "--resume",
                         str(outdir / "checkpoint_00000001.mmp")]) == 0
        assert capsys.readouterr().out == uninterrupted
        assert {f.name: f.read_bytes() for f in outdir.iterdir()} == before

    def test_state_sink_failure_exits_with_io_code(self, tmp_path, capsys):
        # a directory where the first checkpoint's temporary file goes
        # makes the state sink fail after the t = 0.05 record: exit 3 with
        # one error line, no summary and no final.mmp; the rows recorded
        # before the failure stay in the CSV
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.RUN8_CONFIG.format(interval="0.05", outdir=outdir)
                       + "output.checkpoint_interval = 0.05\n")
        (outdir / "checkpoint_00000001.mmp.tmp").mkdir(parents=True)
        code = cli_main(["run", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: state sink failed: ")
        assert [rec.t for rec in read_diagnostics(
            outdir / "diagnostics.csv")] == pytest.approx([0.0, 0.05])
        assert not (outdir / "final.mmp").exists()

    def test_resume_from_unreadable_row_names_it(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.2, outdir=outdir, extra="output.checkpoint_interval = 0.1"))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        csv = outdir / "diagnostics.csv"
        with open(csv, "a", encoding="utf-8") as fh:
            fh.write("x,1,2\n")
        before = csv.read_bytes()
        lineno = before.count(b"\n")
        ckpt = sorted(outdir.glob("checkpoint_*.mmp"))[0]
        capsys.readouterr()
        code = cli_main(["run", "--config", str(cfg), "--resume", str(ckpt)])
        assert code == 1
        assert (f"error: {csv}:{lineno}: could not convert string to float: "
                f"'x'" in capsys.readouterr().err)
        assert csv.read_bytes() == before

    def test_resume_with_a_bad_kept_row_touches_no_output(self, tmp_path,
                                                          capsys):
        # the summary is read back from the CSV after the run, so a kept
        # row read_diagnostics refuses is refused before the run: it used
        # to be kept as it was (exit 0), and once the summary came from the
        # CSV it failed the run after final.mmp was written
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.2, outdir=outdir, extra="output.checkpoint_interval = 0.1"))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        csv = outdir / "diagnostics.csv"
        lines = csv.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace(",", ",x,", 1)
        csv.write_text("".join(lines))
        before = {f.name: f.read_bytes() for f in outdir.iterdir()}
        capsys.readouterr()
        code = cli_main(["run", "--config", str(cfg), "--resume",
                         str(outdir / "checkpoint_00000002.mmp")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == (f"error: {csv}:2: could not convert string to "
                       f"float: 'x'\n")
        assert {f.name: f.read_bytes() for f in outdir.iterdir()} == before

    @pytest.mark.parametrize("resume", [False, True])
    def test_run_frees_its_initial_band_before_the_first_step(
            self, tmp_path, capsys, monkeypatch, resume):
        # `run` copies the initial band; the CLI holds no other reference,
        # so the initial state is gone by the first record written after
        # `run` starts (before the first step when the initial state is
        # recorded, after it on resume)
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.2, outdir=outdir, extra="output.checkpoint_interval = 0.1"))
        if resume:
            assert cli_main(["run", "--config", str(cfg)]) == 0
            args = ["--resume",
                    str(sorted(outdir.glob("checkpoint_*.mmp"))[0])]
        else:
            args = []
        initial, alive_at_records = [], []

        def tracked(make):
            def made(*a, **k):
                result = make(*a, **k)
                state = result.state if resume else result
                initial.append(weakref.ref(state.arrays[0]))
                return result
            return made

        def write(records, path, append=False):
            if append:
                alive_at_records.append(initial[0]() is not None)
            return write_diagnostics(records, path, append=append)
        name = "load_checkpoint" if resume else "make_random_state"
        monkeypatch.setattr(cli, name, tracked(getattr(cli, name)))
        monkeypatch.setattr(cli, "write_diagnostics", write)
        assert cli_main(["run", "--config", str(cfg)] + args) == 0
        capsys.readouterr()
        assert len(initial) == 1
        assert alive_at_records and not any(alive_at_records)

    def test_resume_mismatched_grid_rejected(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.2, outdir=outdir, extra=""))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG_TEMPLATE.format(
            t_end=0.2, outdir=outdir, extra="").replace("grid.n = 16",
                                                        "grid.n = 8"))
        code = cli_main(["run", "--config", str(other),
                         "--resume", str(outdir / "final.mmp")])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("case, code, message", [
        ("variant", 1, "error: checkpoint variant 'full' does not match "
                       "config 'zero-kinematic'\n"),
        ("params", 1, "error: checkpoint parameters differ from the config\n"),
        ("unreadable", 3, "error: cannot read checkpoint: "),
    ])
    def test_resume_refusal_touches_no_output(self, tmp_path, capsys, case,
                                              code, message):
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(t_end=0.2, outdir=outdir,
                                              extra=""))
        ckpt = tmp_path / "other.mmp"
        if case == "variant":
            save_checkpoint(ckpt, sample_state(n=16, seed=11,
                                               variant=SystemVariant.FULL),
                            ZK_PARAMS, step=2, seed=11)
        elif case == "params":
            save_checkpoint(ckpt, sample_state(n=16, seed=11),
                            PhysParams(chi=1.0, eta=1.0, nu=2.0), step=2,
                            seed=11)
        assert cli_main(["run", "--config", str(cfg), "--resume",
                         str(ckpt)]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message)
        assert (err == message) is (case != "unreadable")
        assert not outdir.exists()

    def test_resume_under_another_seed_keeps_diagnostics(self, tmp_path,
                                                         capsys):
        # the checkpoints and final.mmp of a resume carry init.seed, which
        # must be the seed that drew the trajectory
        outdir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(
            t_end=0.2, outdir=outdir, extra="output.checkpoint_interval = 0.1"))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        csv = outdir / "diagnostics.csv"
        before = csv.read_bytes()
        other = tmp_path / "other.cfg"
        other.write_text(cfg.read_text().replace("init.seed = 11",
                                                 "init.seed = 12"))
        ckpt = sorted(outdir.glob("checkpoint_*.mmp"))[0]
        capsys.readouterr()
        code = cli_main(["run", "--config", str(other), "--resume", str(ckpt)])
        assert code == 1
        assert ("error: checkpoint seed 11 differs from init.seed 12"
                in capsys.readouterr().err)
        assert csv.read_bytes() == before


# an 8^3 perturbation run of two steps, one assignment per key; alpha is
# the acceptance fixture's background vector, not resonant on the box
SWEEP_BASE = {
    "grid.n": "8",
    "system": "perturbation",
    "params.chi": "1",
    "params.eta": "1",
    "alpha": "0.367423461417,0.519615242271,0.636396103068",
    "diophantine.r": "2.5",
    "init.epsilon": "0.01",
    "init.seed": "5",
    "time.dt": "0.01",
    "time.t_end": "1",
    "time.max_steps": "2",
    "time.record_interval": "0.01",
}
# the bad values each key or flag is set to
SWEEP_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-308", "", "text",
                "1,2", "3.5", "1e20"]


def run_sweep_config(tmp_path, capsys, key, value):
    """`mmpsim run` on SWEEP_BASE with ``key = value``: the exit code, the
    key's line number, the captured output and the output directory."""
    outdir = tmp_path / "out"
    assignments = dict(SWEEP_BASE, **{"output.dir": str(outdir), key: value})
    lines = [f"{k} = {v}" for k, v in assignments.items()]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    lineno = lines.index(f"{key} = {value}") + 1
    code = cli_main(["run", "--config", str(cfg)])
    return code, lineno, capsys.readouterr(), outdir


class TestInvalidInput:
    # both ends of INDEX_WINDOW are inside it; the hr5 norm's index is r + 5
    @pytest.mark.parametrize("key, value, accepted", [
        ("init.sobolev_index", "40", True),
        ("init.sobolev_index", "40.5", False),
        ("init.sobolev_index", "-10", True),
        ("init.sobolev_index", "-10.5", False),
        ("diophantine.r", "35", True),
        ("diophantine.r", "35.5", False),
    ])
    def test_sobolev_index_window_is_checked_on_its_line(
            self, tmp_path, capsys, key, value, accepted):
        code, lineno, captured, outdir = run_sweep_config(
            tmp_path, capsys, key, value)
        if accepted:
            assert code == 0, captured.err
            assert (outdir / "diagnostics.csv").exists()
        else:
            assert code == 1
            assert (f"config error: line {lineno}: bad value for {key!r}: "
                    in captured.err)
            assert not (outdir / "diagnostics.csv").exists()

    @pytest.mark.parametrize("value", ["1e20", "1e308"])
    def test_huge_base_step_is_held_to_the_stability_bound(
            self, tmp_path, capsys, value):
        # the floor cfg.dt * 1e-6 used to exceed the coupling bound 1/14
        # and take one step of dt = 1 to t_end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, captured, outdir = run_sweep_config(
                tmp_path, capsys, "time.dt", value)
        assert code == 0, captured.err
        times = [rec.t for rec in read_diagnostics(outdir / "diagnostics.csv")]
        assert times == pytest.approx([0.0, 1.0 / 14.0, 2.0 / 14.0],
                                      rel=1e-15)

    @pytest.mark.parametrize("value, accepted", [
        ("1e-308", False), ("0.05", False), ("0.052", False), ("0.055", True)])
    def test_k_peak_whose_data_vanish_is_refused_on_its_line(
            self, tmp_path, capsys, value, accepted):
        # below ~0.054 exp(-1/k_peak^2) underflows the rescaled data to zero
        code, lineno, captured, outdir = run_sweep_config(
            tmp_path, capsys, "init.k_peak", value)
        if accepted:
            assert code == 0, captured.err
            assert (outdir / "diagnostics.csv").exists()
        else:
            assert code == 1
            assert (f"config error: line {lineno}: bad value for "
                    f"'init.k_peak': " in captured.err)
            assert not (outdir / "diagnostics.csv").exists()

    @pytest.mark.parametrize("seed, accepted", [
        (2 ** 64, False), (-1, False), (2 ** 64 - 1, True)])
    def test_seed_outside_the_checkpoint_range_is_refused_on_its_line(
            self, tmp_path, capsys, seed, accepted):
        # the checkpoint header packs the seed as u64: a seed of 2^64 used
        # to run to t_end and then fail in save_checkpoint with a traceback
        code, lineno, captured, outdir = run_sweep_config(
            tmp_path, capsys, "init.seed", str(seed))
        if accepted:
            assert code == 0, captured.err
            assert load_checkpoint(outdir / "final.mmp").seed == seed
        else:
            assert code == 1
            assert (f"config error: line {lineno}: bad value for "
                    f"'init.seed': " in captured.err)
            assert not (outdir / "diagnostics.csv").exists()

    def test_overflowing_alpha_is_refused_on_its_line(self, tmp_path,
                                                      capsys):
        # |alpha|^2 and alpha.k used to overflow with RuntimeWarnings before
        # the structure condition refused |alpha|^2 = inf on no line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, lineno, captured, outdir = run_sweep_config(
                tmp_path, capsys, "alpha", "1e308,1e308,1")
        assert code == 1
        assert (f"config error: line {lineno}: bad value for 'alpha': "
                in captured.err)
        assert not (outdir / "diagnostics.csv").exists()

    # extreme values may overflow or floor the step size: both warn
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("value", SWEEP_VALUES)
    @pytest.mark.parametrize("key", [
        "grid.n", "system", "params.mu", "params.chi", "params.kappa",
        "params.eta", "params.nu", "alpha", "diophantine.r", "init.epsilon",
        "init.sobolev_index", "init.spectrum_slope", "init.k_peak",
        "init.seed", "time.dt", "time.cfl", "time.t_end", "time.max_steps",
        "time.record_interval", "output.norms",
        "output.checkpoint_interval", "validate"])
    def test_each_bad_value_ends_with_an_exit_code(self, tmp_path, capsys,
                                                    key, value):
        # 0 (ran), 1 (refused) or 2 (blow-up), never a traceback, and a
        # refused run writes no diagnostics
        code, _, captured, outdir = run_sweep_config(
            tmp_path, capsys, key, value)
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.out + captured.err
        if code == 1:
            assert not (outdir / "diagnostics.csv").exists()


SUBCOMMAND_ALPHA = "1,1.41421356,1.7320508"


def subcommand_flags(csv_path):
    """Each subcommand's flags with values it runs on: kmax 4, n = 8 and
    two trials, and a fit of a 30-row CSV."""
    return {
        "check-diophantine": {"--alpha": SUBCOMMAND_ALPHA, "--r": "2.5",
                              "--kmax": "4"},
        "verify-lemma": {"--alpha": SUBCOMMAND_ALPHA, "--s": "0",
                         "--r": "2.5", "--n": "8", "--trials": "2",
                         "--seed": "1"},
        "fit-decay": {"--csv": str(csv_path), "--column": "l2_energy",
                      "--model": "exp", "--tmin": "0"},
    }


class TestInvalidSubcommandFlags:
    @pytest.mark.parametrize("command", ["check-diophantine",
                                         "verify-lemma"])
    def test_overflowing_alpha_exits_one(self, tmp_path, capsys, command):
        # check-diophantine used to exit 0 with c_est = 0 and
        # verify-lemma to call the vector resonant, both after overflow
        # RuntimeWarnings
        argv = [command]
        for name, default in subcommand_flags("")[command].items():
            argv += [name, "1e308,1e308,1" if name == "--alpha" else default]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(argv)
        assert code == 1
        assert "error: alpha=(1e+308, 1e+308, 1.0) overflows" in \
            capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("value", SWEEP_VALUES)
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in subcommand_flags("").items()
        for flag in flags])
    def test_each_bad_value_ends_with_an_exit_code(self, tmp_path, capsys,
                                                    command, flag, value):
        # 0 (ran), 1 (refused) or 3 (unreadable file), never a traceback,
        # and a non-finite value never runs; no value here is a valid
        # grid size above 8, so verify-lemma never allocates a large grid
        t = np.linspace(0.0, 10.0, 30)
        csv_path = tmp_path / "decay.csv"
        write_diagnostics([DiagnosticsRecord(t=float(ti),
                                             l2_energy=float(np.exp(-ti)))
                           for ti in t], csv_path)
        argv = [command]
        for name, default in subcommand_flags(csv_path)[command].items():
            argv += [name, value if name == flag else default]
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 3)
        assert "Traceback" not in captured.out + captured.err
        if value in ("nan", "inf", "-inf"):
            assert code != 0, captured.out
        if value == "-inf":  # argparse reads it as a flag
            assert code == 1
