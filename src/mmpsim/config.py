"""Plain-text run configuration.

Grammar: one ``key = value`` assignment per line, UTF-8, ``#`` starts a
comment, blank lines ignored.  Keys are dotted (``time.dt``) or bare
(``system``).  Unknown and duplicate keys are rejected with line numbers;
parsing is total: any input yields either a config or a structured error
list.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields, replace

from .diophantine import MAX_SEARCH_RADIUS, check_diophantine
from .fields import (
    InitSpec,
    PhysParams,
    SystemVariant,
    nonzero_forced,
    validate_params,
)
from .integrator import StepperConfig, check_interval
from .norms import DiagnosticsSettings
from .spectral import GridSpec


class ConfigError(ValueError):
    """Carries the full list of parse/validation errors."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# key -> type tag: int, float, str, vec3, floats
_TYPES: dict[str, str] = {
    "grid.n": "int",
    "system": "str",
    "params.mu": "float",
    "params.chi": "float",
    "params.kappa": "float",
    "params.eta": "float",
    "params.nu": "float",
    "alpha": "vec3",
    "diophantine.r": "float",
    "init.epsilon": "float",
    "init.sobolev_index": "float",
    "init.spectrum_slope": "float",
    "init.k_peak": "float",
    "init.seed": "int",
    "time.dt": "float",
    "time.cfl": "float",
    "time.t_end": "float",
    "time.max_steps": "int",
    "time.record_interval": "float",
    "output.dir": "str",
    "output.norms": "floats",
    "output.checkpoint_interval": "float",
    "validate": "str",
}

_VARIANT_NAMES = {v.value: v for v in SystemVariant}

# The key that sets each field of the dataclasses built from a config.  A
# dataclass's ValueError names the field it rejects; the error is reported
# on the line of that field's key.
_FIELD_KEYS: dict[type, dict[str, str]] = {
    PhysParams: {"mu": "params.mu", "chi": "params.chi",
                 "kappa": "params.kappa", "eta": "params.eta",
                 "nu": "params.nu", "alpha": "alpha", "r": "diophantine.r"},
    InitSpec: {"epsilon": "init.epsilon",
               "sobolev_index": "init.sobolev_index",
               "spectrum_slope": "init.spectrum_slope",
               "k_peak": "init.k_peak", "seed": "init.seed"},
    StepperConfig: {"dt": "time.dt", "t_end": "time.t_end",
                    "cfl_advective": "time.cfl",
                    "max_steps": "time.max_steps",
                    "record_interval": "time.record_interval"},
}

# The value of each key a config leaves unset: a dataclass field's own
# default for the keys of `_FIELD_KEYS`, else the one given here.  A key
# with neither is required: grid.n, system, init.epsilon and time.t_end.
_DEFAULTS: dict[str, object] = {
    "time.dt": 0.01,
    "output.dir": "out",
    "output.norms": None,
    "output.checkpoint_interval": None,
    "validate": "strict",
    **{keys[f.name]: f.default for cls, keys in _FIELD_KEYS.items()
       for f in fields(cls) if f.default is not MISSING},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated declarative description of one simulation."""

    n: int
    variant: SystemVariant
    params: PhysParams
    init: InitSpec
    stepper: StepperConfig
    output_dir: str
    norms: tuple[float, ...] | None
    checkpoint_interval: float | None
    warnings: tuple[str, ...] = ()

    def grid(self) -> GridSpec:
        return GridSpec(self.n)

    def diagnostics_settings(self) -> DiagnosticsSettings:
        perturbation = self.variant is SystemVariant.PERTURBATION
        if self.norms is None:
            hn = self.init.sobolev_index if (
                perturbation and self.init.sobolev_index != 3.0) else None
            return DiagnosticsSettings(hn_index=hn)
        columns = {_norm_column(s, self.init, self.params) for s in self.norms}
        return DiagnosticsSettings(
            include_h3="h3" in columns,
            hn_index=self.init.sobolev_index if "hN" in columns else None,
            include_hr5="hr5" in columns)


def _norm_column(s: float, init: InitSpec, params: PhysParams) -> str | None:
    """The diagnostics column that reports the H^s norm named in
    ``output.norms``: h3 for 3, hN for the initial data's index N, hr5 for
    r+5, tried in that order; None if no column does."""
    for column, index in (("h3", 3.0), ("hN", init.sobolev_index),
                          ("hr5", params.r + 5.0)):
        if math.isclose(s, index, abs_tol=1e-9):
            return column
    return None


def _resonance_warnings(params: PhysParams, grid: GridSpec) -> list[str]:
    """A warning if alpha.k vanishes for some k of the retained box: the
    background transport then damps no magnetic mode on the plane
    alpha.k = 0, and the perturbation decay the variant is run for does
    not apply (see `check_diophantine`)."""
    k_max = min(grid.kmax_dealias, MAX_SEARCH_RADIUS)
    report = check_diophantine(params.alpha, params.r, k_max)
    if not report.degenerate:
        return []
    return [f"alpha={params.alpha} is resonant on the retained box "
            f"|k_i| <= {k_max}: alpha.k = 0 at k={report.argmin_k}, so the "
            f"magnetic modes with alpha.k = 0 are not damped"]


def parse_vec3(raw: str) -> tuple[float, float, float]:
    """Three comma-separated reals, such as the value of ``alpha``."""
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated reals, got {raw!r}")
    return tuple(float(p) for p in parts)


def _parse_value(tag: str, raw: str):
    if tag == "int":
        return int(raw)
    if tag == "float":
        return float(raw)
    if tag == "str":
        return raw
    if tag == "vec3":
        return parse_vec3(raw)
    if tag == "floats":
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ValueError("expected a comma-separated list of reals")
        return tuple(float(p) for p in parts)
    raise AssertionError(tag)


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError carrying every error found."""
    errors: list[str] = []
    values: dict[str, object] = {}
    lines_of: dict[str, int] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _TYPES:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r} "
                          f"(first set on line {lines_of[key]})")
            continue
        try:
            values[key] = _parse_value(_TYPES[key], raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
            continue
        lines_of[key] = lineno

    for key in _TYPES:
        if key in values:
            continue
        if key in _DEFAULTS:
            values[key] = _DEFAULTS[key]
        else:
            errors.append(f"missing required key {key!r}")

    if errors:
        raise ConfigError(errors)

    def at_line(key: str, message: str) -> str:
        if key in lines_of:
            return f"line {lines_of[key]}: {message}"
        return message

    def bad_value(key: str, message) -> str:
        return at_line(key, f"bad value for {key!r}: {message}")

    def build(cls):
        """``cls`` from its keys' values, or None with the error recorded
        against the key of the field it names."""
        keys = _FIELD_KEYS[cls]
        try:
            return cls(**{name: values[key] for name, key in keys.items()})
        except ValueError as exc:
            key = next((keys[word] for word in re.findall(r"\w+", str(exc))
                        if word in keys), None)
            errors.append(str(exc) if key is None else bad_value(key, exc))
            return None

    warnings: list[str] = []

    variant = _VARIANT_NAMES.get(values["system"])
    if variant is None:
        errors.append(at_line("system", f"unknown system {values['system']!r}; "
                              f"expected one of {sorted(_VARIANT_NAMES)}"))

    grid = None
    try:
        grid = GridSpec(values["grid.n"])
    except ValueError as exc:
        errors.append(at_line("grid.n", str(exc)))

    params = build(PhysParams)
    init = build(InitSpec)

    if grid is not None and init is not None and init.k_peak is not None \
            and init.k_peak > grid.kmax_dealias:
        errors.append(bad_value(
            "init.k_peak", f"k_peak={init.k_peak} exceeds the dealias "
            f"cutoff {grid.kmax_dealias}"))

    stepper = build(StepperConfig)

    mode = values["validate"]
    if mode not in ("strict", "permissive"):
        errors.append(at_line("validate",
                              f"validate must be strict|permissive, got {mode!r}"))
    strict = mode == "strict"

    if params is not None and variant is not None:
        report = validate_params(params, variant, strict=strict)
        warnings.extend(report.warnings)
        if not report.ok:
            errors.extend(report.errors)
        elif not strict:
            # normalize structurally forced coefficients so the assembled
            # tendency matches the declared variant
            forced = nonzero_forced(params, variant)
            if forced:
                params = replace(params, **dict.fromkeys(forced, 0.0))
                warnings.append(
                    "permissive mode zeroed " + ", ".join(sorted(forced)))

    norms = values["output.norms"]
    if norms is not None and params is not None and init is not None:
        for s in norms:
            if _norm_column(s, init, params) is None:
                errors.append(at_line(
                    "output.norms",
                    f"no diagnostics column for norm index {s}; available: "
                    f"3 (h3), {init.sobolev_index} (hN), "
                    f"{params.r + 5.0} (hr5)"))

    ckpt = values["output.checkpoint_interval"]
    if ckpt is not None:
        try:
            check_interval("checkpoint_interval", ckpt,
                           stepper.t_end if stepper is not None else 0.0)
        except ValueError as exc:
            errors.append(bad_value("output.checkpoint_interval", exc))

    if params is not None and variant is not None and grid is not None \
            and variant.uses_background:
        warnings.extend(_resonance_warnings(params, grid))

    if errors:
        raise ConfigError(errors)

    return RunConfig(n=values["grid.n"], variant=variant, params=params,
                     init=init, stepper=stepper,
                     output_dir=values["output.dir"], norms=norms,
                     checkpoint_interval=ckpt,
                     warnings=tuple(warnings))
