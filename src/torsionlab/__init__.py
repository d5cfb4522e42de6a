"""Virtual torsion-balance laboratory.

Simulates a high-sensitivity torsion balance measuring sphere-plane
forces with a null-feedback readout, and implements the accompanying
analysis: electrostatic calibration, residual-force decomposition,
interferometric actuator calibration, and the noise budget.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants, constants_table
from .control import (
    NullMeasurementResult,
    PidConfig,
    PidState,
    feedback_torque,
    pid_step,
    run_null_measurement,
)
from .calibration import (
    CalibrationResult,
    MichelsonCalibration,
    MichelsonTrace,
    ParabolaFit,
    ResidualDecomposition,
    VoltageSweep,
    calibrate_sweeps,
    contact_point_fit,
    decompose_residual,
    michelson_calibrate,
    parabola_fit,
    run_electrostatic_calibration,
    synthetic_michelson_trace,
)
from .dynamics import (
    PlantParams,
    SimState,
    TraceRow,
    detector_read,
    natural_frequency,
    pzt_actual_position,
    run_langevin,
    step,
    thermal_torque_sample,
)
from .errors import (
    ConfigError,
    DomainError,
    InstabilityError,
    NumericalError,
    SchemaError,
    TorsionLabError,
)
from .forces import (
    ForceBreakdown,
    ForceModelParams,
    casimir_force_ideal,
    casimir_force_thermal,
    electrostatic_force_exact,
    electrostatic_force_pfa,
    force_law,
    patch_force,
    torsion_constant,
    total_force,
)
from .instrument import (
    ActuatorSpec,
    BalanceSpec,
    DetectorSpec,
    FiberSpec,
    GapState,
    InstrumentSpec,
    SPHERE_PRESETS,
    SphereSpec,
    VoltageState,
)
from .scenario import RunSchedule, Scenario, load_scenario, parse_scenario_text, scenario_hash
from .sensitivity import (
    SensitivityReport,
    build_report,
    force_resolution_from_angle,
    jitter_force_floor,
    max_thermal_casimir_distance,
    swing_angle_noise,
    thermal_angle_noise,
)
