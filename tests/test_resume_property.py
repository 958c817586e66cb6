"""A seeded property test of `mmpsim run` and of its resume.

Each 8^3 config is drawn from a table of valid and invalid values per key.
For every config:
- `mmpsim run` exits 0, 1, 2 or 3, and no exception escapes `cli_main`;
- an exit of 1 leaves the output directory as it was (here: absent);
- a run that writes checkpoints is resumed from each of them in place, in
  a copy of its directory without the later checkpoints and final.mmp,
  as a run killed after that checkpoint would leave it.  The resume exits
  with the same code, prints the same summary (stdout and the error
  lines) and leaves the same files, byte for byte.

The table holds a binding ``time.max_steps``, a ``time.t_end`` on and off
a record boundary (so a checkpoint can sit at t_end, and its resume takes
no step), a checkpoint interval that is not a multiple of the record
interval, a base step the stability bound cuts (so times fall off the
intervals' grids) and initial data large enough that the CFL bound sets
dt on every step.
"""

import contextlib
import io
import random
import re
import shutil
import traceback

import pytest

from mmpsim.cli import cli_main

SEED = 20240924
DRAWS = 1000
# the chance that a key is set to one of its invalid values
P_INVALID = 0.05

# the coefficients of each variant: every one valid in strict mode
VARIANT_PARAMS = {
    "zero-kinematic": {"params.chi": "1", "params.eta": "1",
                       "params.nu": "1"},
    "perturbation": {"params.chi": "1", "params.eta": "1",
                     "alpha": "0.367423461417,0.519615242271,0.636396103068",
                     "diophantine.r": "2.5"},
    "full": {"params.mu": "1", "params.chi": "1", "params.kappa": "0.5",
             "params.eta": "1", "params.nu": "1"},
}

# key -> (valid values, invalid values); None leaves the key unset
TABLE = {
    "params.chi": ([None], ["0", "-1", "nan", "2.5"]),
    "params.eta": ([None], ["0", "-1"]),
    # 1e160 is finite, but the initial record's squared norms overflow
    "init.epsilon": (["0.01", "0.01", "0.01", "1", "300", "1e160"],
                     ["0", "-1", "nan"]),
    "init.seed": (["11", "3"], ["-1", "1.5", "text"]),
    "init.k_peak": ([None, "2"], ["0", "nan"]),
    "time.dt": (["0.05", "0.05", "0.03", "0.1"], ["0", "-0.05", "nan"]),
    "time.cfl": ([None, None, "0.3"], ["0", "1.5"]),
    "time.t_end": (["0", "0.05", "0.1", "0.125", "0.15", "0.2"],
                   ["-0.1", "inf"]),
    "time.max_steps": ([None, None, "1", "2", "3"], ["0", "-2", "1.5"]),
    "time.record_interval": (["0.05", "0.05", "0.1", "0.04", "1"],
                             ["0", "-0.05", "nan", "5e-324"]),
    "output.checkpoint_interval": ([None, "0.05", "0.05", "0.075", "0.1"],
                                   ["0", "nan", "-1"]),
    "validate": ([None, "strict", "permissive"], ["lenient"]),
    "time.horizon": ([None], ["1"]),
    # "blocked" puts the output directory below a regular file
    "output.dir": ([None], ["blocked"]),
}


def draw_config(rng: random.Random) -> dict:
    """One config's assignments; output.dir is set only to "blocked"."""
    variants = sorted(VARIANT_PARAMS)
    system = rng.choice(variants + ["mhd"] if rng.random() < P_INVALID
                        else variants)
    assignments = {"grid.n": "8", "system": system,
                   **VARIANT_PARAMS.get(system, VARIANT_PARAMS["full"])}
    for key, (valid, invalid) in TABLE.items():
        value = rng.choice(invalid if rng.random() < P_INVALID else valid)
        if value is not None:
            assignments[key] = value
    return assignments


def write_config(path, assignments, outdir) -> None:
    lines = [f"{k} = {v}" for k, v in assignments.items()]
    path.write_text("\n".join(lines + [f"output.dir = {outdir}"]) + "\n")


def invoke(*args):
    """`cli_main(args)`: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


def files(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def errors(stderr: str) -> list:
    return [line for line in stderr.splitlines() if line.startswith("error")]


def step_of(checkpoint) -> int:
    return int(re.fullmatch(r"checkpoint_(\d{8})\.mmp", checkpoint.name)[1])


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_resume_reproduces_its_run(tmp_path):
    rng = random.Random(SEED)
    (tmp_path / "blocker").write_text("")
    failures, codes, resumes, no_step = [], [], 0, set()
    for i in range(DRAWS):
        assignments = draw_config(rng)
        outdir = tmp_path / ("blocker" if assignments.pop("output.dir", None)
                             else "") / f"run{i}"
        cfg = tmp_path / f"run{i}.cfg"
        write_config(cfg, assignments, outdir)
        label = f"run{i}: {assignments}"
        try:
            code, out, err = invoke("run", "--config", str(cfg))
        except Exception:
            failures.append(f"{label}: raised\n{traceback.format_exc()}")
            continue
        codes.append(code)
        if code not in (0, 1, 2, 3):
            failures.append(f"{label}: exit {code}\n{err}")
        if code == 1 and outdir.exists():
            failures.append(f"{label}: exit 1 wrote {sorted(files(outdir))}")
        if code not in (0, 2):
            continue
        expected = files(outdir)
        checkpoints = sorted(outdir.glob("checkpoint_*.mmp"))
        for ckpt in checkpoints:
            copy = tmp_path / f"run{i}_from{step_of(ckpt)}"
            shutil.copytree(outdir, copy)
            for later in checkpoints:
                if step_of(later) > step_of(ckpt):
                    (copy / later.name).unlink()
            (copy / "final.mmp").unlink()
            copy_cfg = copy.with_suffix(".cfg")
            write_config(copy_cfg, assignments, copy)
            try:
                got = invoke("run", "--config", str(copy_cfg), "--resume",
                             str(copy / ckpt.name))
            except Exception:
                failures.append(f"{label}: resume from {ckpt.name} raised\n"
                                f"{traceback.format_exc()}")
                continue
            resumes += 1
            where = f"{label}: resume from {ckpt.name}"
            if (got[0], got[1], errors(got[2])) != (code, out, errors(err)):
                failures.append(f"{where}: exit {got[0]}, printed\n{got[1]}"
                                f"{got[2]}instead of exit {code}, printed\n"
                                f"{out}{err}")
            elif files(copy) != expected:
                failures.append(f"{where}: its files differ")
            if f"steps = {step_of(ckpt)}\n" in out:
                no_step.add(out.splitlines()[0])
    assert not failures, "\n\n".join(failures)
    # the draw reaches every exit, and resumes that take no step: at the
    # step cap and at t_end
    assert set(codes) == {0, 1, 2, 3} and resumes >= 50
    assert no_step == {"status = step_cap", "status = completed"}
