"""Virtual torsion-balance laboratory.

Simulates a high-sensitivity torsion balance measuring sphere-plane
forces with a null-feedback readout, and implements the accompanying
analysis: electrostatic calibration, residual-force decomposition,
interferometric actuator calibration, and the noise budget.

Exports resolve on first use (PEP 562), so ``import torsionlab`` loads
no submodule and the math-only paths (scenario, budget) never load numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "constants": "CONSTANTS PhysicalConstants constants_table",
        "control": "NullMeasurementResult run_null_measurement",
        "calibration": "CalibrationResult MichelsonCalibration MichelsonTrace ParabolaFit "
                       "ResidualDecomposition VoltageSweep calibrate_sweeps contact_point_fit "
                       "decompose_residual michelson_calibrate parabola_fit "
                       "run_electrostatic_calibration synthetic_michelson_trace",
        "dynamics": "PlantParams natural_frequency",
        "errors": "ConfigError DomainError InstabilityError NumericalError SchemaError "
                  "TorsionLabError",
        "forces": "ForceBreakdown ForceModelParams casimir_force_ideal casimir_force_thermal "
                  "electrostatic_force_exact electrostatic_force_pfa force_law patch_force "
                  "torsion_constant total_force",
        "instrument": "ActuatorSpec BalanceSpec DetectorSpec FiberSpec GapState InstrumentSpec "
                      "PidConfig SPHERE_PRESETS SphereSpec VoltageState",
        "scenario": "RunSchedule Scenario load_scenario parse_scenario_text scenario_hash",
        "sensitivity": "SensitivityReport build_report force_resolution_from_angle "
                       "jitter_force_floor max_thermal_casimir_distance swing_angle_noise "
                       "thermal_angle_noise",
    }.items()
    for name in names.split()
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS.values():  # a submodule, as the eager imports used to bind
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    globals()[name] = value = getattr(module, name)  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
