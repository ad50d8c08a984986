"""Scenario runner: parse configs, drive the verification pipeline, emit reports.

Configs are flat INI files (diff-friendly, no schema engine); reports are
one JSON file per stage plus `.npy` traces.  Exit status: 0 when all requested
checks pass their tolerances, 1 on numerical failures (partial results are
still written), 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import random
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import bath as bath_mod
from . import reports
from .coupling import (
    builtin_model,
    check_constraints,
    coupling_from_lagrangian,
    structure_tensor,
)
from .diagonalize import momentum_family, streamed_mode_checks, wave_diagnostic
from .errors import ConfigError, DampolError, SingularOperatorError
from .fields import (
    commutator,
    constitutive_check,
    field_forms,
    longitudinal_defect,
    maxwell_check,
    medium_momentum_form,
    medium_polarization_form,
    noise_commutator_residual,
    vector_potential_route_defect,
)
from .green import node_propagator, solve_green, verify_adjoint
from .lattice import FrequencyGrid, Lattice, build_lattice
from .oracle import (
    HERMITICITY_TOL,
    assemble_hamiltonian,
    check_canonical_dim,
    diagonal_form_check,
    heisenberg_residual,
    symplectic_spectrum,
)
from .susceptibility import (
    Susceptibility,
    asymptote_residual,
    reflection_residuals,
    verify_kramers_kronig,
    verify_sum_rules,
)
from .constants import HBAR

EXIT_PASS, EXIT_NUMERICAL, EXIT_USAGE = 0, 1, 2

STAGES = ("model", "chi", "green", "diag", "fields", "bath", "oracle")
VIOLATIONS = ("none", "chi_symmetry", "h1_scale")

#: machine-identity tolerance (relative); scaled by the config's tol_scale
TOL_EXACT = 1e-10

#: largest cell volume, frequency or violation magnitude a config may give: the
#: eighth root of the largest float, about 3.4e38
MAX_SCALE = np.finfo(float).max ** 0.125

#: each config key and the `ScenarioConfig` field it sets, by section; any
#: other `[model]` key is a model parameter, which `builtin_model` checks
CONFIG_KEYS = {
    "lattice": {"n_per_axis": "n_per_axis", "spacing": "spacing", "k0_transverse": "k0_transverse"},
    "grid": {"n_nodes": "n_nodes", "omega_max": "omega_max", "eta_factor": "eta_factor"},
    "model": {"name": "model"},
    "run": {"stages": "stages", "seed": "seed", "tol_scale": "tol_scale", "out": "out",
            "refine_track": "refine_track", "dump_hamiltonian": "dump_hamiltonian"},
    "violation": {"kind": "violation", "magnitude": "violation_magnitude"},
}


@dataclass
class ScenarioConfig:
    n_per_axis: int = 2
    spacing: float = 1.0
    k0_transverse: bool = True
    n_nodes: int = 16
    omega_max: float = 3.0
    eta_factor: float = 1.0
    model: str = "local_lorentz"
    model_params: dict = field(default_factory=dict)
    stages: tuple = STAGES
    seed: int = 1
    tol_scale: float = 1.0
    out: str = "./out"
    violation: str = "none"
    violation_magnitude: float = 0.1
    refine_track: str = "hamiltonian"
    dump_hamiltonian: bool = False

    @classmethod
    def from_file(cls, path, **overrides) -> "ScenarioConfig":
        """Read the config at `path`, set the fields in `overrides` over it, and validate the result."""
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
        except configparser.Error as exc:   # no section header, a key given twice, ...
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for name in parser.sections():
            if name not in CONFIG_KEYS:
                raise ConfigError(f"unknown config section [{name}]; valid: {list(CONFIG_KEYS)}")
            unknown = sorted(set(parser[name]) - set(CONFIG_KEYS[name])) if name != "model" else []
            if unknown:
                raise ConfigError(f"unknown keys {unknown} in [{name}]; valid: {tuple(CONFIG_KEYS[name])}")
        values = {}
        try:
            for name in parser.sections():
                keys, sec = CONFIG_KEYS[name], parser[name]
                for key, text in sec.items():
                    fld = keys.get(key)
                    if fld is None:   # a model parameter
                        values.setdefault("model_params", {})[key] = text if key == "axis" else float(text)
                    elif fld == "stages":
                        values[fld] = STAGES if text in ("all", "") else tuple(s.strip() for s in text.split(","))
                    else:   # read as the field's default is typed
                        kind = type(getattr(cls, fld))
                        values[fld] = sec.getboolean(key) if kind is bool else kind(text)
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(f"bad configuration value: {exc}") from exc
        cfg = cls(**{**values, **overrides})
        cfg.validate()
        return cfg

    def validate(self):
        numbers = {f"[{name}] {key}": getattr(self, fld) for name, keys in CONFIG_KEYS.items()
                   for key, fld in keys.items() if type(getattr(ScenarioConfig, fld)) is float}
        numbers.update({f"[model] {k}": v for k, v in self.model_params.items() if k != "axis"})
        for key, value in numbers.items():
            if not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        unknown = [s for s in self.stages if s not in STAGES]
        if unknown:
            raise ConfigError(f"unknown stages {unknown}; valid: {STAGES}")
        if self.violation not in VIOLATIONS:
            raise ConfigError(f"unknown violation {self.violation!r}; valid: {VIOLATIONS}")
        if self.tol_scale <= 0:
            raise ConfigError("tol_scale must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.n_nodes < 1 or self.omega_max <= 0 or self.eta_factor <= 0:
            raise ConfigError("grid parameters out of range")
        if self.n_per_axis < 1 or self.spacing <= 0:
            raise ConfigError("lattice parameters out of range")
        self.check_scales()
        if self.refine_track not in ("hamiltonian", "kernels"):
            raise ConfigError("refine_track must be 'hamiltonian' or 'kernels'")
        # the model's own parameters are checked where they are used, as `Pipeline` builds the model

    def check_scales(self, level: int = 0):
        """Refuse a scale the stages cannot carry, eta formed as the grid forms it, halved per `level`.

        Floors first: the cell volume and eta must be normal floats, as every
        kernel carries the volume, every resolvent 1 / eta, and each level
        halves eta.  Then ceilings: no scale may exceed `MAX_SCALE`, as the
        stages multiply up to eight factors of one (a frequency enters the
        moment-2 tails as w^4, whose squared norm is w^8).
        """
        with np.errstate(over="ignore", under="ignore"):
            volume = np.float64(self.spacing) ** 3
            eta = np.float64(self.eta_factor) * (self.omega_max / self.n_nodes) / np.float64(2.0) ** level
        at = f" at refinement level {level}" if level else ""
        # key, what it gives, value, and whether it has a floor
        scales = (("[lattice] spacing", " gives the cell volume spacing**3", volume, True),
                  ("[grid] omega_max", "", self.omega_max, False),
                  ("[grid] eta_factor", f" gives the offset eta{at}", eta, True),
                  ("[violation] magnitude", "", abs(self.violation_magnitude), False))
        for key, name, value, normal in scales:
            if normal and not np.finfo(float).tiny <= value < np.inf:
                raise ConfigError(f"{key}{name} = {value:g}, not a finite, positive, normal float")
        for key, name, value, _ in scales:
            if value > MAX_SCALE:
                raise ConfigError(f"{key}{name} = {value:g}, above {MAX_SCALE:.3g}: products of up to "
                                  "eight factors of it overflow")

    def provenance(self) -> dict:
        return {
            "lattice": {"n_per_axis": self.n_per_axis, "spacing": self.spacing,
                        "k0_transverse": self.k0_transverse},
            "grid": {"n_nodes": self.n_nodes, "omega_max": self.omega_max,
                     "eta_factor": self.eta_factor},
            "model": {"name": self.model, **{k: v for k, v in self.model_params.items()}},
            "seed": self.seed,
            "tol_scale": self.tol_scale,
            "violation": self.violation,
            **({"violation_magnitude": self.violation_magnitude} if self.violation != "none" else {}),
        }


def violation_blocks(lattice: Lattice, magnitude: float) -> np.ndarray:
    """The `chi_symmetry` violation, the site operator whose one entry, at [0, 1], is `magnitude`,
    as its (d*d,) `Lattice.one_block` block, complex as the chi blocks it is added to.

    The block is magnitude outer(B[0], B[1]), B = kron(F, I_3) with F the
    momentum basis: rows 0 and 1 of B are row 0 of F times the unit vectors
    e_x and e_y.  No d x d operator is formed or rotated.
    """
    (cos, sin), row = lattice.momentum_pairs, np.full(lattice.n_sites, 1.0 / np.sqrt(lattice.n_sites))
    row[cos], row[sin] = row[cos] * np.sqrt(2.0), 0.0   # row 0 of F: every column's wave at site 0
    b0, b1 = np.kron(row, [1.0, 0.0, 0.0]), np.kron(row, [0.0, 1.0, 0.0])
    return np.outer(magnitude * b0, b1).ravel().astype(complex)


class Pipeline:
    """Lazy shared state for the staged verification run.

    The model's per-k symbols are built once, on construction: `builtin_model`
    checks the `[model]` parameters as it builds them and raises `ModelError`,
    a usage error, so a run constructs its pipeline before it writes anything.
    The refinement levels share one `lattice`, which does not depend on the grid.
    """

    def __init__(self, config: ScenarioConfig, lattice: Lattice | None = None):
        self.config = config
        self.lattice = lattice or build_lattice(config.n_per_axis, config.spacing, config.k0_transverse)
        self.grid = FrequencyGrid.midpoint(config.n_nodes, config.omega_max, config.eta_factor)
        self.model = builtin_model(config.model, self.lattice, self.grid, dict(config.model_params))
        self._sweep_failure = None

    @property
    def coupling(self):
        """The coupling in the run's layout, the one every derived operator inherits: chi's source."""
        return self.chi.source

    @cached_property
    def structure(self):
        return structure_tensor(self.coupling)

    @cached_property
    def chi(self):
        """chi of the model's coupling; the chi_symmetry violation perturbs it, which picks the run's layout."""
        chi = Susceptibility(coupling_from_lagrangian(self.model))
        if self.config.violation == "chi_symmetry":
            chi = chi.perturbed(violation_blocks(self.lattice, self.config.violation_magnitude))
        return chi

    @cached_property
    def propagator(self):
        """The node propagator; a failed sweep is kept and raised again, never re-solved."""
        if self._sweep_failure is None:
            chi = self.chi
            try:
                return node_propagator(chi)
            except SingularOperatorError as exc:
                self._sweep_failure = exc
        raise self._sweep_failure

    @cached_property
    def streamed(self):
        return streamed_mode_checks(self.propagator, self.structure)

    @cached_property
    def bath(self):
        b = bath_mod.bath_coefficients(self.coupling, self.chi)
        if self.config.violation == "h1_scale":
            b = b.perturbed_delta(1.0 + self.config.violation_magnitude)
        return b

    @cached_property
    def hamiltonian(self):
        return assemble_hamiltonian(self.coupling, self.structure)

    def entry(self, check_id, residual, tolerance, **extra):
        return reports.check_entry(
            check_id, residual, tolerance * self.config.tol_scale,
            eta=self.grid.eta, n_nodes=self.grid.n_nodes, lattice=self.lattice,
            extra=extra or None)


# -- stages ---------------------------------------------------------------


def stage_model(pipe: Pipeline, out: Path | None = None) -> dict:
    report = check_constraints(pipe.coupling)
    st = pipe.structure
    evals = st.eigenvalues
    sym = np.linalg.norm(st.blocks - st.layout.transpose(st.blocks)) / max(np.linalg.norm(st.blocks), 1e-300)
    checks = [
        pipe.entry("model.constraint_moment0", report.moment0 / report.scale, TOL_EXACT),
        pipe.entry("model.constraint_moment2", report.moment2 / report.scale, TOL_EXACT),
        pipe.entry("model.structure_symmetry", sym, 1e-12),
        pipe.entry("model.structure_positive", max(0.0, -evals[0] / abs(evals[-1])), 0.0,
                   min_eigenvalue=float(evals[0])),
    ]
    return reports.stage_report("model", checks)


def stage_chi(pipe: Pipeline, out: Path | None) -> dict:
    rng = random.Random(pipe.config.seed)
    coupling = pipe.coupling
    st = pipe.structure
    checks = []
    zs = [complex(rng.uniform(-3, 3), rng.uniform(0.2, 1.5)) for _ in range(5)]
    checks.append(pipe.entry("chi.kramers_kronig", verify_kramers_kronig(pipe.chi, zs), TOL_EXACT))
    rules = verify_sum_rules(coupling, st)
    checks.append(pipe.entry("chi.sum_rule_moment0", rules.moment0, TOL_EXACT))
    checks.append(pipe.entry("chi.sum_rule_moment1", rules.moment1, TOL_EXACT))
    checks.append(pipe.entry("chi.sum_rule_moment2", rules.moment2, TOL_EXACT))
    zs = [complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.5) * rng.choice([-1, 1])) for _ in range(5)]
    sym = reflection_residuals(pipe.chi.layout, pipe.chi.blocks_at, zs)
    checks.append(pipe.entry("chi.symmetry_transpose", sym["transpose"], TOL_EXACT))
    checks.append(pipe.entry("chi.symmetry_conjugation", sym["conjugation"], TOL_EXACT))
    z0 = 50.0 * pipe.grid.omega_max * 1j
    near, far = asymptote_residual(coupling, st, z0), asymptote_residual(coupling, st, 2 * z0)
    ratio = near / far if far > 0 else float("inf")   # a correction that underflows has no measured decay
    checks.append(pipe.entry("chi.asymptote_quartic_ratio", abs(ratio / 16.0 - 1.0), 0.3,
                             measured_ratio=float(ratio)))
    if out is not None:
        zs = pipe.grid.nodes + 1j * pipe.grid.eta
        reports.chi_trace(out / "chi_trace.npy", pipe.chi, zs)
    return reports.stage_report("chi", checks)


def stage_green(pipe: Pipeline, out: Path | None) -> dict:
    rng = random.Random(pipe.config.seed + 1)
    prop = pipe.propagator
    checks = [pipe.entry("green.defining_residual", float(prop.residual.max()), TOL_EXACT)]
    adj = verify_adjoint(prop.chi, prop.z, prop.blocks)
    checks.append(pipe.entry("green.adjoint_residual", adj, 1e-9))
    zs = [complex(rng.uniform(0.3, 0.9) * pipe.grid.omega_max, -rng.uniform(0.5, 2.0) * pipe.grid.eta)
          for _ in range(4)]
    sym = reflection_residuals(pipe.chi.layout, partial(solve_green, pipe.chi), zs)
    checks.append(pipe.entry("green.reciprocity", sym["transpose"], 1e-9))
    checks.append(pipe.entry("green.conjugation", sym["conjugation"], 1e-9))
    if out is not None:
        reports.green_trace(out / "green_trace.npy", prop)
    return reports.stage_report("green", checks)


def stage_diag(pipe: Pipeline, out: Path | None = None) -> dict:
    sc = pipe.streamed
    checks = [
        pipe.entry("diag.potential_ratio", sc.potential_ratio, TOL_EXACT),
        pipe.entry("diag.wave_diagnostic", wave_diagnostic(pipe.propagator), TOL_EXACT),
        # regularized residuals: values are resolution-dependent; the cap is
        # a sanity bound and their acceptance lives in the refinement study
        pipe.entry("diag.wave_equation", sc.wave, 2.0),
        pipe.entry("diag.resonant_relation", max(sc.resonant.values()), 1.0),
        pipe.entry("diag.antiresonant_relation", max(sc.antiresonant.values()), 1.0),
        pipe.entry("diag.commutation_deviation", max(sc.commutation.values()), 1.0),
        pipe.entry("diag.annihilator_norm", max(sc.annihilator.values()), 1.0),
    ]
    return reports.stage_report("diag", checks)


def stage_fields(pipe: Pipeline, out: Path | None = None) -> dict:
    coupling, prop = pipe.coupling, pipe.propagator
    green_res = float(prop.residual.max())
    forms = field_forms(prop)
    checks = [
        pipe.entry("fields.vector_potential_routes",
                   vector_potential_route_defect(forms["A"], momentum_family(prop)), TOL_EXACT),
        pipe.entry("fields.displacement_transverse", longitudinal_defect(forms["D"]), 1e-12),
        pipe.entry("fields.constitutive",
                   constitutive_check(forms["P"], forms["E"], forms["Pn"], pipe.chi),
                   max(10.0 * green_res, 1e-12), green_solve_residual=green_res),
        pipe.entry("fields.maxwell", maxwell_check(forms["B"], forms["D"]),
                   max(10.0 * green_res, 1e-12), green_solve_residual=green_res),
    ]
    e_form = forms["E"]
    del forms   # the trace reads E alone, the commutator checks below no field form
    if out is not None:
        shape = (pipe.grid.n_nodes, pipe.lattice.dim)
        bits = np.frombuffer(random.Random(pipe.config.seed + 2).randbytes(16 * shape[0] * shape[1]), dtype="<u8")
        # real and imaginary parts uniform on [-1, 1), 53 random bits each
        amp = ((bits >> 11) * 2.0**-52 - 1.0).view(complex).reshape(shape)
        reports.field_trace(out / "field_trace.npy", e_form, amp,
                            np.linspace(0.0, 4.0 * np.pi / pipe.grid.omega_max, 32))
    worst = max(noise_commutator_residual(coupling, k) for k in (0, pipe.grid.n_nodes // 2, pipe.grid.n_nodes - 1))
    checks.append(pipe.entry("fields.noise_commutator", worst, TOL_EXACT))
    w_form = medium_momentum_form(coupling, pipe.structure)
    p_form = medium_polarization_form(coupling)
    ident = coupling.layout.identity / pipe.lattice.cell_volume   # the delta kernel's blocks
    scale = HBAR * np.linalg.norm(ident)
    wp = commutator(w_form, p_form)
    wp += 1j * HBAR * ident   # [W, P] - (-i hbar) delta
    checks.append(pipe.entry("fields.canonical_pair", float(np.linalg.norm(wp) / scale), TOL_EXACT))
    pp = np.linalg.norm(commutator(p_form, p_form)) / scale
    ww = np.linalg.norm(commutator(w_form, w_form)) / scale
    checks.append(pipe.entry("fields.polarization_selfcommutator", float(pp), TOL_EXACT))
    checks.append(pipe.entry("fields.momentum_selfcommutator", float(ww), TOL_EXACT))
    return reports.stage_report("fields", checks)


def stage_bath(pipe: Pipeline, out: Path | None = None) -> dict:
    bath = pipe.bath
    coupling = pipe.coupling
    checks = [
        pipe.entry("bath.linkage", bath_mod.verify_linkage(bath, coupling, pipe.chi), TOL_EXACT),
        pipe.entry("bath.canonical_identity",
                   bath_mod.verify_bath_canonical(bath, coupling), TOL_EXACT),
    ]
    indep = bath_mod.verify_bath_independence(bath, coupling, pipe.structure)
    checks.append(pipe.entry("bath.independence_polarization", indep["polarization"], 1.0))
    checks.append(pipe.entry("bath.independence_momentum", indep["momentum"], 1.0))
    checks.append(pipe.entry("bath.route_agreement", indep["route_agreement"], 1e-9))
    return reports.stage_report("bath", checks)


def stage_oracle(pipe: Pipeline, out: Path | None = None) -> dict:
    ham = pipe.hamiltonian
    res = heisenberg_residual(ham, pipe.coupling, pipe.structure)
    checks = [pipe.entry("oracle.hermiticity", ham.hermiticity_defect(), HERMITICITY_TOL)]
    for name, value in res.items():
        checks.append(pipe.entry(f"oracle.heisenberg_{name}", value, TOL_EXACT))
    spec = symplectic_spectrum(ham)
    checks.append(pipe.entry("oracle.spectrum_real", spec["max_imag_rel"], 1e-6,
                             n_zero_modes=spec["n_zero_modes"], n_sectors=spec["n_sectors"],
                             sector_leak=spec["sector_leak"]))
    expected_pairs = (ham.dim - spec["n_zero_modes"]) // 2
    checks.append(pipe.entry("oracle.spectrum_positive",
                             float(spec["n_positive"] != expected_pairs or spec["n_negative"] != expected_pairs),
                             0.0, min_positive=spec["min_positive"]))
    master = diagonal_form_check(ham, pipe.propagator)
    peak = max(pipe.streamed.max_residual(), 1e-300)
    agreement = abs(np.log(max(master, 1e-300) / peak)) / np.log(3.0)
    checks.append(pipe.entry("oracle.mode_eigen_residual", master, 2.0))
    checks.append(pipe.entry("oracle.route_agreement_factor3", agreement, 1.0,
                             oracle_residual=master, kernel_residual=peak))
    equiv = bath_mod.hamiltonian_equivalence(pipe.coupling, pipe.structure, pipe.bath, ham)
    checks.append(pipe.entry("oracle.hamiltonian_forms_weak", equiv["weak"], 2.0,
                             frobenius=equiv["frobenius"]))
    if out is not None and pipe.config.dump_hamiltonian:
        from .serialize import dump_quadratic_form
        dump_quadratic_form(out / "hamiltonian.dak", ham)
    return reports.stage_report("oracle", checks)


_STAGE_FUNCS = {
    "model": stage_model,
    "chi": stage_chi,
    "green": stage_green,
    "diag": stage_diag,
    "fields": stage_fields,
    "bath": stage_bath,
    "oracle": stage_oracle,
}


def run(config: ScenarioConfig, stages=None) -> int:
    """Execute the requested stages in dependency order; write reports."""
    stages = [s for s in STAGES if s in (stages or config.stages)]
    pipe = Pipeline(config)
    if "oracle" in stages:
        check_canonical_dim(pipe.lattice, pipe.grid.n_nodes)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"format_version": reports.FORMAT_VERSION, "config": config.provenance(),
               "stages": {}, "passed": True}
    status = EXIT_PASS
    for stage in stages:
        try:
            report = _STAGE_FUNCS[stage](pipe, out)
        except ConfigError:
            raise
        except DampolError as exc:
            report = reports.stage_report(stage, [], extra={"error": str(exc)})
            report["passed"] = False
        report["config"] = config.provenance()
        reports.write_json(out / f"{stage}.json", report)
        summary["stages"][stage] = report["passed"]
        if not report["passed"]:
            summary["passed"] = False
            status = EXIT_NUMERICAL
    reports.write_json(out / "run.json", summary)
    return status


#: refinement checks that close exactly and must stay at machine precision
EXACT_UNDER_REFINEMENT = ("kramers_kronig", "sum_rule", "noise_commutator", "bath_canonical")

#: refinement checks whose residuals must fall by this factor per level
CONVERGENCE_FACTOR = 1.8


def refine(config: ScenarioConfig, levels: int) -> int:
    """Re-run the regularized checks at doubled resolution and halved offset.

    Emits the residual sequences, their level-to-level ratios, and fitted
    convergence orders; exit status reflects the ratio targets for the
    convergence-class checks and the unchanged machine precision of the
    exactly-closing ones.

    Two tracks exist because the checks live at different scales.  The
    `hamiltonian` track carries the dense assembled-form comparisons
    (canonical dimension capped, coarse bases suffice: those residuals
    converge early); the `kernels` track carries the streamed mode-kernel
    identities, including the commutator deviations whose subleading
    corrections decay slowly, and therefore starts deep.
    """
    if levels < 2:
        raise ConfigError("refine needs at least 2 levels")
    config.check_scales(levels - 1)   # the deepest level's eta is the smallest
    track = config.refine_track
    lattice = build_lattice(config.n_per_axis, config.spacing, config.k0_transverse)   # shared by every level
    if track == "hamiltonian":
        check_canonical_dim(lattice, config.n_nodes * 2 ** (levels - 1))
    pipe = Pipeline(config, lattice)   # level 0, built before anything is written
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    level_meta = []
    seq = {}
    for lvl in range(levels):
        if lvl:
            pipe = Pipeline(replace(config, n_nodes=config.n_nodes * 2**lvl), lattice)
        level_meta.append((pipe.grid.n_nodes, pipe.grid.eta))
        # the streamed pass sets the kernels track's peak memory (traced at
        # K = 256: 4.6 MB, against 4.0 MB in the bath sums), so it runs
        # before the bath sums cache chi above the cut
        sc = pipe.streamed if track == "kernels" else None
        indep = bath_mod.verify_bath_independence(pipe.bath, pipe.coupling, pipe.structure)
        vals = {
            "bath_independence_polarization": indep["polarization"],
            "bath_independence_momentum": indep["momentum"],
            "kramers_kronig": verify_kramers_kronig(pipe.chi, [1j * pipe.grid.omega_max / 3]),
            "sum_rule": verify_sum_rules(pipe.coupling, pipe.structure).max_residual(),
            "bath_canonical": bath_mod.verify_bath_canonical(pipe.bath, pipe.coupling),
            "noise_commutator": noise_commutator_residual(pipe.coupling, pipe.grid.n_nodes // 2),
        }
        if sc is not None:
            vals["wave_equation"] = sc.wave
            vals["resonant_relation"] = max(sc.resonant.values())
            vals["antiresonant_relation"] = max(sc.antiresonant.values())
            vals["commutation_deviation"] = max(sc.commutation.values())
            vals["annihilator_norm"] = max(sc.annihilator.values())
        else:
            ham = pipe.hamiltonian
            equiv = bath_mod.hamiltonian_equivalence(pipe.coupling, pipe.structure, pipe.bath, ham)
            vals["hamiltonian_forms_weak"] = equiv["weak"]
            vals["mode_eigen_residual"] = diagonal_form_check(ham, pipe.propagator)
        for name, value in vals.items():
            seq.setdefault(name, []).append(value)

    checks = []
    for name, values in sorted(seq.items()):
        if any(name.startswith(prefix) for prefix in EXACT_UNDER_REFINEMENT):
            worst = max(values)
            checks.append(reports.check_entry(
                f"refine.{name}", worst, TOL_EXACT * config.tol_scale,
                eta=level_meta[-1][1], n_nodes=level_meta[-1][0],
                lattice=lattice, extra={"values": values}))
        else:
            ratios = [a / b if b > 0 else float("inf") for a, b in zip(values[:-1], values[1:])]
            worst_ratio = min(ratios)
            checks.append(reports.check_entry(
                f"refine.{name}", CONVERGENCE_FACTOR / max(worst_ratio, 1e-300), 1.0,
                eta=level_meta[-1][1], n_nodes=level_meta[-1][0],
                lattice=lattice,
                extra={"values": values, "ratios": ratios,
                       "orders": reports.convergence_orders(values)}))
    report = reports.stage_report("refine", checks,
                                  extra={"levels": [list(m) for m in level_meta],
                                         "config": config.provenance()})
    reports.write_json(out / "refine.json", report)
    reports.refinement_csv(out / "refinement.csv", level_meta, seq)
    return EXIT_PASS if report["passed"] else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dampol",
                                     description="damped-polariton verification engine")
    parser.add_argument("command", choices=list(STAGES) + ["verify-all", "refine"])
    parser.add_argument("--config", required=True, help="scenario INI file")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="random-seed override")
    parser.add_argument("--tol-scale", type=float, help="tolerance multiplier override")
    parser.add_argument("--levels", type=int, default=3, help="refinement levels (refine)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        flags = {"out": args.out, "seed": args.seed, "tol_scale": args.tol_scale}
        config = ScenarioConfig.from_file(args.config, **{k: v for k, v in flags.items() if v is not None})
        if args.command == "refine":
            return refine(config, args.levels)
        stages = None if args.command == "verify-all" else [args.command]
        return run(config, stages=stages)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DampolError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
