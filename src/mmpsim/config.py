"""Plain-text run configuration.

Grammar: one ``key = value`` assignment per line, UTF-8, ``#`` starts a
comment, blank lines ignored.  Keys are dotted (``time.dt``) or bare
(``system``).  Unknown and duplicate keys are rejected with line numbers;
parsing is total: any input yields either a config or a structured error
list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .fields import InitSpec, PhysParams, SystemVariant, validate_params
from .integrator import StepperConfig
from .norms import DiagnosticsSettings
from .spectral import GridSpec


class ConfigError(ValueError):
    """Carries the full list of parse/validation errors."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


_REQUIRED = object()

# key -> (type tag, default); type tags: int, float, str, vec3, floats
_SCHEMA: dict[str, tuple[str, object]] = {
    "grid.n": ("int", _REQUIRED),
    "system": ("str", _REQUIRED),
    "params.mu": ("float", 0.0),
    "params.chi": ("float", 0.0),
    "params.kappa": ("float", 0.0),
    "params.eta": ("float", 0.0),
    "params.nu": ("float", 0.0),
    "alpha": ("vec3", (0.0, 0.0, 0.0)),
    "diophantine.r": ("float", 2.5),
    "init.epsilon": ("float", _REQUIRED),
    "init.sobolev_index": ("float", 3.0),
    "init.spectrum_slope": ("float", 2.0),
    "init.k_peak": ("float", None),
    "init.seed": ("int", 0),
    "time.dt": ("float", 0.01),
    "time.cfl": ("float", 0.5),
    "time.t_end": ("float", _REQUIRED),
    "time.max_steps": ("int", 1_000_000),
    "time.record_interval": ("float", 0.25),
    "output.dir": ("str", "out"),
    "output.norms": ("floats", None),
    "output.checkpoint_interval": ("float", None),
    "validate": ("str", "strict"),
}

_VARIANT_NAMES = {v.value: v for v in SystemVariant}


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
    strict: bool
    warnings: tuple[str, ...] = ()

    def grid(self) -> GridSpec:
        return GridSpec(self.n)

    def diagnostics_settings(self) -> DiagnosticsSettings:
        perturbation = self.variant is SystemVariant.PERTURBATION
        if self.norms is None:
            hn = self.init.sobolev_index if (
                perturbation and self.init.sobolev_index != 3.0) else None
            return DiagnosticsSettings(hn_index=hn)
        include_h3 = False
        hn = None
        include_hr5 = False
        for s in self.norms:
            if math.isclose(s, 3.0, abs_tol=1e-9):
                include_h3 = True
            elif math.isclose(s, self.init.sobolev_index, abs_tol=1e-9):
                hn = self.init.sobolev_index
            elif math.isclose(s, self.params.r + 5.0, abs_tol=1e-9):
                include_hr5 = True
        return DiagnosticsSettings(include_h3=include_h3, hn_index=hn,
                                   include_hr5=include_hr5)


def _parse_value(tag: str, raw: str):
    if tag == "int":
        return int(raw)
    if tag == "float":
        return float(raw)
    if tag == "str":
        return raw
    if tag == "vec3":
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated reals, got {raw!r}")
        return tuple(float(p) for p in parts)
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
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r} "
                          f"(first set on line {lines_of[key]})")
            continue
        tag, _ = _SCHEMA[key]
        try:
            values[key] = _parse_value(tag, raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
            continue
        lines_of[key] = lineno

    for key, (_, default) in _SCHEMA.items():
        if key in values:
            continue
        if default is _REQUIRED:
            errors.append(f"missing required key {key!r}")
        else:
            values[key] = default

    if errors:
        raise ConfigError(errors)

    def at_line(key: str, message: str) -> str:
        if key in lines_of:
            return f"line {lines_of[key]}: {message}"
        return message

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

    params = None
    try:
        params = PhysParams(mu=values["params.mu"], chi=values["params.chi"],
                            kappa=values["params.kappa"],
                            eta=values["params.eta"], nu=values["params.nu"],
                            alpha=values["alpha"], r=values["diophantine.r"])
    except ValueError as exc:
        errors.append(str(exc))

    init = None
    try:
        init = InitSpec(epsilon=values["init.epsilon"],
                        sobolev_index=values["init.sobolev_index"],
                        spectrum_slope=values["init.spectrum_slope"],
                        k_peak=values["init.k_peak"],
                        seed=values["init.seed"])
        if values["init.seed"] < 0:
            errors.append(at_line("init.seed", "seed must be >= 0"))
    except ValueError as exc:
        errors.append(at_line("init.epsilon", str(exc)))

    if grid is not None and init is not None and init.k_peak is not None \
            and init.k_peak > grid.kmax_dealias:
        errors.append(at_line(
            "init.k_peak", f"k_peak={init.k_peak} exceeds the dealias "
            f"cutoff {grid.kmax_dealias}"))

    stepper = None
    try:
        stepper = StepperConfig(dt=values["time.dt"],
                                t_end=values["time.t_end"],
                                cfl_advective=values["time.cfl"],
                                max_steps=values["time.max_steps"],
                                record_interval=values["time.record_interval"])
    except ValueError as exc:
        errors.append(at_line("time.dt", str(exc)))

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
            forced = {}
            if variant.forces_zero_mu and params.mu != 0.0:
                forced["mu"] = 0.0
            if variant.forces_zero_nu and params.nu != 0.0:
                forced["nu"] = 0.0
            if variant.forces_zero_chi and params.chi != 0.0:
                forced["chi"] = 0.0
            if forced:
                params = replace(params, **forced)
                warnings.append(
                    "permissive mode zeroed " + ", ".join(sorted(forced)))

    norms = values["output.norms"]
    if norms is not None and params is not None and init is not None:
        for s in norms:
            matches = (math.isclose(s, 3.0, abs_tol=1e-9)
                       or math.isclose(s, init.sobolev_index, abs_tol=1e-9)
                       or math.isclose(s, params.r + 5.0, abs_tol=1e-9))
            if not matches:
                errors.append(at_line(
                    "output.norms",
                    f"no diagnostics column for norm index {s}; available: "
                    f"3 (h3), {init.sobolev_index} (hN), "
                    f"{params.r + 5.0} (hr5)"))

    ckpt = values["output.checkpoint_interval"]
    if ckpt is not None and ckpt <= 0.0:
        errors.append(at_line("output.checkpoint_interval",
                              "checkpoint_interval must be positive"))

    if errors:
        raise ConfigError(errors)

    return RunConfig(n=values["grid.n"], variant=variant, params=params,
                     init=init, stepper=stepper,
                     output_dir=values["output.dir"], norms=norms,
                     checkpoint_interval=ckpt, strict=strict,
                     warnings=tuple(warnings))
