"""Pseudo-spectral simulator and decay diagnostics for the 3D incompressible
magneto-micropolar equations on the periodic torus [0, 2pi)^3."""

from .checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, parse_config
from .diagio import read_diagnostics, write_diagnostics
from .diophantine import (
    DiophantineReport,
    LiftingRatioReport,
    check_diophantine,
    lifting_ratio,
)
from .dynamics import (
    EnergyFluxAudit,
    StiffSymbols,
    advect,
    energy_flux_audit,
    rhs,
    stiff_symbols,
)
from .fields import (
    InitSpec,
    PhysParams,
    State,
    SystemVariant,
    ValidationReport,
    check_state,
    make_random_state,
    validate_params,
)
from .integrator import (
    RunResult,
    RunStatus,
    StepperConfig,
    run,
    stable_dt,
    step,
)
from .norms import (
    DiagnosticsRecord,
    DiagnosticsSettings,
    FitReport,
    compute_record,
    curl_energy_functional,
    fit_decay,
    l2_energy,
    perturbation_energy_functionals,
    sobolev_norm,
    triple_sobolev_norm,
)
from .spectral import (
    GridSpec,
    IntegrityError,
    SpectralScalarField,
    SpectralVectorField,
    curl,
    dealias,
    divergence,
    divergence_residual,
    forward_transform,
    gradient,
    grad_div,
    inner_product,
    inverse_transform,
    laplacian,
    leray_project,
    zero_mean,
)

__version__ = "0.1.0"
