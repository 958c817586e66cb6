"""Config grammar, defaults, and strict-mode validation."""

import numpy as np
import pytest

from mmpsim.config import ConfigError, parse_config
from mmpsim.fields import SystemVariant

MINIMAL = """
grid.n = 32
system = zero-kinematic
params.chi = 1
params.eta = 1
params.nu = 1
init.epsilon = 0.01
time.t_end = 20
"""

# the acceptance fixture's grid and variant, less its background vector
PERTURBATION = """
grid.n = 32
system = perturbation
params.chi = 1
params.eta = 1
diophantine.r = 2.5
init.epsilon = 0.01
time.t_end = 1
"""


class TestParseConfig:
    def test_minimal_accepted_with_defaults(self):
        config = parse_config(MINIMAL)
        assert config.n == 32
        assert config.variant is SystemVariant.ZERO_KINEMATIC
        assert config.params.chi == 1.0
        assert config.init.epsilon == 0.01
        assert config.init.sobolev_index == 3.0
        assert config.init.spectrum_slope == 2.0
        assert config.stepper.dt == 0.01
        assert config.stepper.t_end == 20.0
        assert config.stepper.record_interval == 0.25
        assert config.output_dir == "out"
        assert config.checkpoint_interval is None

    def test_comments_and_blanks_ignored(self):
        config = parse_config(MINIMAL + "\n# a comment\n   \n")
        assert config.n == 32

    def test_perturbation_structure_condition_rejected(self):
        text = """
grid.n = 16
system = perturbation
params.chi = 1
params.eta = 1
alpha = 1,1,1
init.epsilon = 0.01
time.t_end = 1
"""
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any("|alpha|^2" in e for e in exc.value.errors)

    def test_perturbation_accepted(self):
        a = 0.9 * np.array([1.0, np.sqrt(2), np.sqrt(3)]) / np.sqrt(6.0)
        text = f"""
grid.n = 16
system = perturbation
params.chi = 1
params.eta = 1
alpha = {a[0]},{a[1]},{a[2]}
diophantine.r = 2.5
init.epsilon = 0.01
init.sobolev_index = 21
time.t_end = 1
"""
        config = parse_config(text)
        settings = config.diagnostics_settings()
        assert settings.hn_index == 21.0
        assert settings.include_hr5 is None  # auto: perturbation enables hr5

    def test_duplicate_key_reports_both_lines(self):
        text = "grid.n = 16\ngrid.n = 32\nsystem = full\n" \
               "init.epsilon = 1\ntime.t_end = 1\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        joined = " ".join(exc.value.errors)
        assert "line 2" in joined and "line 1" in joined

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "grid.m = 2\n")
        assert any("unknown key" in e for e in exc.value.errors)

    def test_type_error_carries_line_number(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("grid.n = often\nsystem = full\n"
                         "init.epsilon = 1\ntime.t_end = 1\n")
        assert any(e.startswith("line 1:") for e in exc.value.errors)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("grid.n = 16\nsystem = full\ninit.epsilon = 1\n")
        assert any("time.t_end" in e for e in exc.value.errors)

    def test_unknown_system_name(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("zero-kinematic", "zero-gravity"))
        assert any("unknown system" in e for e in exc.value.errors)

    def test_permissive_normalizes_forced_coefficients(self):
        text = MINIMAL + "params.mu = 0.5\nvalidate = permissive\n"
        config = parse_config(text)
        assert config.params.mu == 0.0
        assert any("zeroed" in w for w in config.warnings)

    def test_strict_rejects_forced_coefficients(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "params.mu = 0.5\n")
        assert any("forces mu=0" in e for e in exc.value.errors)

    def test_open_problem_warning_surfaces(self):
        text = """
grid.n = 16
system = ideal-mhd
init.epsilon = 0.01
time.t_end = 1
"""
        config = parse_config(text)
        assert any("open problem" in w for w in config.warnings)

    def test_norms_selection(self):
        text = MINIMAL + "output.norms = 3\n"
        settings = parse_config(text).diagnostics_settings()
        assert settings.include_h3 and settings.hn_index is None
        assert settings.include_hr5 is False

    def test_norms_without_column_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "output.norms = 4.25\n")
        assert any("no diagnostics column" in e for e in exc.value.errors)

    # r = 2.5 by default, so the hr5 column reports the index r+5 = 7.5
    @pytest.mark.parametrize("norms, index, columns", [
        ("3", 21, (True, None, False)),
        ("21", 21, (False, 21.0, False)),
        ("7.5", 21, (False, None, True)),
        ("3, 7.5", 21, (True, None, True)),
        ("7.5, 21, 3", 21, (True, 21.0, True)),
        ("3", 3, (True, None, False)),       # N = 3: h3 takes it
        ("7.5", 7.5, (False, 7.5, False)),   # N = r+5: hN takes it
        ("4.25", 21, None),
        ("3, 4.25", 21, None),
        ("21", 5, None),                     # N is 5, not 21
    ])
    def test_norms_mapping(self, norms, index, columns):
        # every accepted index enables a column of diagnostics_settings();
        # an index that would enable none is rejected
        text = MINIMAL + f"init.sobolev_index = {index}\n" \
            f"output.norms = {norms}\n"
        if columns is None:
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            assert any("no diagnostics column" in e for e in exc.value.errors)
            return
        settings = parse_config(text).diagnostics_settings()
        assert (settings.include_h3, settings.hn_index,
                settings.include_hr5) == columns

    def test_k_peak_beyond_cutoff_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "init.k_peak = 11\n")
        assert any("dealias" in e for e in exc.value.errors)

    @pytest.mark.parametrize("key, value", [
        ("params.mu", "-1"), ("params.chi", "-1"), ("params.kappa", "-1"),
        ("params.eta", "-1"), ("params.nu", "-1"), ("alpha", "nan, 0, 0"),
        ("diophantine.r", "2"),
        ("init.epsilon", "-1"), ("init.sobolev_index", "three"),
        ("init.spectrum_slope", "-1"), ("init.k_peak", "0"),
        ("init.k_peak", "11"), ("init.seed", "-1"),
        ("time.dt", "0"), ("time.cfl", "2"), ("time.t_end", "-1"),
        ("time.max_steps", "0"), ("time.record_interval", "0"),
    ])
    def test_bad_value_reported_on_its_key_line(self, key, value):
        # the bad value is set last, so its line is no other key's
        lines = [line for line in MINIMAL.strip().splitlines()
                 if not line.startswith(key + " ")]
        lines.append(f"{key} = {value}")
        with pytest.raises(ConfigError) as exc:
            parse_config("\n".join(lines) + "\n")
        (error,) = exc.value.errors
        assert error.startswith(f"line {len(lines)}: bad value for {key!r}: ")

    @pytest.mark.parametrize("alpha, resonant", [
        ("0, 0, 0.9", True), ("0.5, 0.5, 0.5", True),
        (",".join(repr(float(0.9 * a / np.sqrt(6.0)))
                  for a in (1.0, np.sqrt(2.0), np.sqrt(3.0))), False),
    ], ids=["axis", "diagonal", "fixture"])
    def test_resonant_background_field_warns(self, alpha, resonant):
        # alpha.k = 0 on a plane of the retained box: those magnetic modes
        # are not damped.  The acceptance fixture's alpha is not resonant
        config = parse_config(PERTURBATION + f"alpha = {alpha}\n")
        warned = [w for w in config.warnings if "resonant" in w]
        assert bool(warned) == resonant
        if resonant:
            assert "alpha.k = 0" in warned[0]

    def test_totality_on_garbage(self):
        # arbitrary text must produce a structured error list, never a crash
        for text in ("", "===", "\x00\x01", "a=b=c\n[section]\n",
                     "grid.n\n", "alpha = 1,2\n"):
            try:
                parse_config(text)
            except ConfigError as exc:
                assert exc.errors
