"""Scenario runner: parse configs, drive the verification pipeline, emit reports.

Configs are flat INI files (diff-friendly, no schema engine); reports are
one JSON file per stage plus CSV traces.  Exit status: 0 when all requested
checks pass their tolerances, 1 on numerical failures (partial results are
still written), 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field
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
from .diagonalize import mode_coefficients, momentum_family, streamed_mode_checks, wave_diagnostic
from .errors import ConfigError, DampolError
from .fields import (
    constitutive_check,
    field_form,
    commutator,
    maxwell_check,
    medium_momentum_form,
    medium_polarization_form,
    noise_commutator_expected,
    noise_mode_form,
    vector_potential_route_defect,
)
from .green import sweep_at_nodes, verify_adjoint, verify_conjugation, verify_reciprocity
from .lattice import FrequencyGrid, TensorKernel, build_lattice
from .oracle import assemble_hamiltonian, diagonal_form_check, heisenberg_residual, symplectic_spectrum
from .susceptibility import (
    Susceptibility,
    asymptote_residual,
    symmetry_residuals,
    verify_kramers_kronig,
    verify_sum_rules,
)
from .constants import HBAR

EXIT_PASS, EXIT_NUMERICAL, EXIT_USAGE = 0, 1, 2

STAGES = ("model", "chi", "green", "diag", "fields", "bath", "oracle")
VIOLATIONS = ("none", "chi_symmetry", "h1_scale")

#: machine-identity tolerance (relative); scaled by the config's tol_scale
TOL_EXACT = 1e-10


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
    dim_cap: int = 4000
    refine_track: str = "hamiltonian"
    dump_hamiltonian: bool = False

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        cfg = cls()
        try:
            if parser.has_section("lattice"):
                sec = parser["lattice"]
                cfg.n_per_axis = sec.getint("n_per_axis", cfg.n_per_axis)
                cfg.spacing = sec.getfloat("spacing", cfg.spacing)
                cfg.k0_transverse = sec.getboolean("k0_transverse", cfg.k0_transverse)
            if parser.has_section("grid"):
                sec = parser["grid"]
                cfg.n_nodes = sec.getint("n_nodes", cfg.n_nodes)
                cfg.omega_max = sec.getfloat("omega_max", cfg.omega_max)
                cfg.eta_factor = sec.getfloat("eta_factor", cfg.eta_factor)
            if parser.has_section("model"):
                sec = parser["model"]
                cfg.model = sec.get("name", cfg.model)
                cfg.model_params = {k: float(v) if k != "axis" else v
                                    for k, v in sec.items() if k != "name"}
            if parser.has_section("run"):
                sec = parser["run"]
                stages = sec.get("stages", "all").strip()
                cfg.stages = STAGES if stages in ("all", "") else \
                    tuple(s.strip() for s in stages.split(","))
                cfg.seed = sec.getint("seed", cfg.seed)
                cfg.tol_scale = sec.getfloat("tol_scale", cfg.tol_scale)
                cfg.out = sec.get("out", cfg.out)
                cfg.dim_cap = sec.getint("dim_cap", cfg.dim_cap)
                cfg.refine_track = sec.get("refine_track", cfg.refine_track)
                cfg.dump_hamiltonian = sec.getboolean("dump_hamiltonian", cfg.dump_hamiltonian)
            if parser.has_section("violation"):
                sec = parser["violation"]
                cfg.violation = sec.get("kind", cfg.violation)
                cfg.violation_magnitude = sec.getfloat("magnitude", cfg.violation_magnitude)
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(f"bad configuration value: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self):
        unknown = [s for s in self.stages if s not in STAGES]
        if unknown:
            raise ConfigError(f"unknown stages {unknown}; valid: {STAGES}")
        if self.violation not in VIOLATIONS:
            raise ConfigError(f"unknown violation {self.violation!r}; valid: {VIOLATIONS}")
        if self.tol_scale <= 0:
            raise ConfigError("tol_scale must be positive")
        if self.n_nodes < 1 or self.omega_max <= 0 or self.eta_factor <= 0:
            raise ConfigError("grid parameters out of range")
        if self.n_per_axis < 1 or self.spacing <= 0:
            raise ConfigError("lattice parameters out of range")
        if self.refine_track not in ("hamiltonian", "kernels"):
            raise ConfigError("refine_track must be 'hamiltonian' or 'kernels'")

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
        }


class Pipeline:
    """Lazy shared state for the staged verification run."""

    def __init__(self, config: ScenarioConfig, n_nodes: int | None = None):
        self.config = config
        self.lattice = build_lattice(config.n_per_axis, config.spacing, config.k0_transverse)
        self.grid = FrequencyGrid.midpoint(n_nodes or config.n_nodes, config.omega_max,
                                           config.eta_factor)
        self._cache = {}

    def _get(self, name, builder):
        if name not in self._cache:
            self._cache[name] = builder()
        return self._cache[name]

    @property
    def coupling(self):
        return self._get("coupling", lambda: coupling_from_lagrangian(
            builtin_model(self.config.model, self.lattice, self.grid,
                          dict(self.config.model_params))))

    @property
    def structure(self):
        return self._get("structure", lambda: structure_tensor(self.coupling))

    @property
    def chi(self):
        def build():
            chi = Susceptibility(self.coupling)
            if self.config.violation == "chi_symmetry":
                d = self.lattice.dim
                pert = np.zeros((d, d))
                pert[0, 1] = self.config.violation_magnitude
                chi = chi.perturbed(TensorKernel(self.lattice, pert))
            return chi
        return self._get("chi", build)

    @property
    def sweep(self):
        return self._get("sweep", lambda: sweep_at_nodes(self.chi, side=-1))

    @property
    def streamed(self):
        return self._get("streamed", lambda: streamed_mode_checks(
            self.coupling, self.sweep, self.structure))

    @property
    def modes(self):
        """Node-pair kernel stacks; only the oracle's explicit rows need them."""
        return self._get("modes", lambda: mode_coefficients(self.coupling, self.sweep))

    @property
    def bath(self):
        def build():
            b = bath_mod.bath_coefficients(self.coupling, self.chi)
            if self.config.violation == "h1_scale":
                b = b.perturbed_delta(1.0 + self.config.violation_magnitude)
            return b
        return self._get("bath", build)

    @property
    def hamiltonian(self):
        def build():
            mt = self.lattice.transverse_basis.shape[1]
            dim = 2 * mt + 2 * self.grid.n_nodes * self.lattice.dim
            if dim > self.config.dim_cap:
                raise ConfigError(
                    f"projected canonical dimension {dim} exceeds the cap {self.config.dim_cap}")
            return assemble_hamiltonian(self.coupling, self.structure)
        return self._get("hamiltonian", build)

    def entry(self, check_id, residual, tolerance, **extra):
        return reports.check_entry(
            check_id, residual, tolerance * self.config.tol_scale,
            eta=self.grid.eta, n_nodes=self.grid.n_nodes, lattice=self.lattice,
            extra=extra or None)


# -- stages ---------------------------------------------------------------


def stage_model(pipe: Pipeline) -> dict:
    report = check_constraints(pipe.coupling)
    st = pipe.structure
    evals = np.linalg.eigvalsh(st.kernel.mat)
    sym = (st.kernel - st.kernel.T).norm() / max(st.kernel.norm(), 1e-300)
    checks = [
        pipe.entry("model.constraint_moment0", report.moment0 / report.scale, TOL_EXACT),
        pipe.entry("model.constraint_moment2", report.moment2 / report.scale, TOL_EXACT),
        pipe.entry("model.structure_symmetry", sym, 1e-12),
        pipe.entry("model.structure_positive", max(0.0, -evals[0] / abs(evals[-1])), 0.0,
                   min_eigenvalue=float(evals[0])),
    ]
    return reports.stage_report("model", checks)


def stage_chi(pipe: Pipeline, out: Path | None) -> dict:
    rng = np.random.default_rng(pipe.config.seed)
    coupling = pipe.coupling
    st = pipe.structure
    checks = []
    kk_worst = max(verify_kramers_kronig(coupling, complex(rng.uniform(-3, 3), rng.uniform(0.2, 1.5)))
                   for _ in range(5))
    checks.append(pipe.entry("chi.kramers_kronig", kk_worst, TOL_EXACT))
    rules = verify_sum_rules(coupling, st)
    checks.append(pipe.entry("chi.sum_rule_moment0", rules.moment0, TOL_EXACT))
    checks.append(pipe.entry("chi.sum_rule_moment1", rules.moment1, TOL_EXACT))
    checks.append(pipe.entry("chi.sum_rule_moment2", rules.moment2, TOL_EXACT))
    sym_worst = {"transpose": 0.0, "conjugation": 0.0}
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.5) * rng.choice([-1, 1]))
        res = symmetry_residuals(pipe.chi, z)
        sym_worst = {k: max(sym_worst[k], res[k]) for k in sym_worst}
    checks.append(pipe.entry("chi.symmetry_transpose", sym_worst["transpose"], TOL_EXACT))
    checks.append(pipe.entry("chi.symmetry_conjugation", sym_worst["conjugation"], TOL_EXACT))
    z0 = 50.0 * pipe.grid.omega_max * 1j
    ratio = asymptote_residual(coupling, st, z0) / asymptote_residual(coupling, st, 2 * z0)
    checks.append(pipe.entry("chi.asymptote_quartic_ratio", abs(ratio / 16.0 - 1.0), 0.3,
                             measured_ratio=float(ratio)))
    if out is not None:
        zs = pipe.grid.nodes + 1j * pipe.grid.eta
        reports.chi_trace_csv(out / "chi_trace.csv", coupling, zs)
    return reports.stage_report("chi", checks)


def stage_green(pipe: Pipeline, out: Path | None) -> dict:
    rng = np.random.default_rng(pipe.config.seed + 1)
    sweep = pipe.sweep
    sweep.require_complete()
    checks = [pipe.entry("green.defining_residual",
                         max(sweep[k].residual for k in range(len(sweep))), TOL_EXACT)]
    adj = max(verify_adjoint(sweep[k]) for k in range(len(sweep)))
    checks.append(pipe.entry("green.adjoint_residual", adj, 1e-9))
    rec = con = 0.0
    for _ in range(4):
        z = complex(rng.uniform(0.3, 0.9) * pipe.grid.omega_max,
                    -rng.uniform(0.5, 2.0) * pipe.grid.eta)
        rec = max(rec, verify_reciprocity(pipe.chi, z))
        con = max(con, verify_conjugation(pipe.chi, z))
    checks.append(pipe.entry("green.reciprocity", rec, 1e-9))
    checks.append(pipe.entry("green.conjugation", con, 1e-9))
    if out is not None:
        reports.green_trace_csv(out / "green_trace.csv", sweep)
    return reports.stage_report("green", checks)


def stage_diag(pipe: Pipeline) -> dict:
    sc = pipe.streamed
    checks = [
        pipe.entry("diag.potential_ratio", sc.potential_ratio, TOL_EXACT),
        pipe.entry("diag.wave_diagnostic", wave_diagnostic(pipe.coupling, pipe.sweep), TOL_EXACT),
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
    coupling, sweep, chi = pipe.coupling, pipe.sweep, pipe.chi
    green_res = max(sweep[k].residual for k in range(len(sweep)))
    forms = {kind: field_form(kind, coupling, sweep) for kind in ("A", "B", "E", "P", "Pn", "D")}
    checks = [
        pipe.entry("fields.vector_potential_routes",
                   vector_potential_route_defect(forms["A"], momentum_family(coupling, sweep)),
                   TOL_EXACT),
        pipe.entry("fields.displacement_transverse",
                   float(np.linalg.norm(pipe.lattice.longitudinal_matrix[None] @ forms["D"].alpha)
                         / max(np.linalg.norm(forms["D"].alpha), 1e-300)), 1e-12),
        pipe.entry("fields.constitutive",
                   constitutive_check(forms["P"], forms["E"], forms["Pn"], chi),
                   max(10.0 * green_res, 1e-12), green_solve_residual=green_res),
        pipe.entry("fields.maxwell", maxwell_check(forms["B"], forms["D"]),
                   max(10.0 * green_res, 1e-12), green_solve_residual=green_res),
    ]
    worst = 0.0
    for k in (0, pipe.grid.n_nodes // 2, pipe.grid.n_nodes - 1):
        pn = noise_mode_form(coupling, k)
        got = commutator(pn, pn.dagger())
        expected = noise_commutator_expected(coupling, k)
        worst = max(worst, (got - expected).norm() / max(expected.norm(), 1e-300))
    checks.append(pipe.entry("fields.noise_commutator", worst, TOL_EXACT))
    w_form = medium_momentum_form(coupling, pipe.structure)
    p_form = medium_polarization_form(coupling)
    ident = TensorKernel.identity(pipe.lattice)
    wp_res = (commutator(w_form, p_form) - (-1j * HBAR) * ident).norm() / (HBAR * ident.norm())
    checks.append(pipe.entry("fields.canonical_pair", float(wp_res), TOL_EXACT))
    pp = commutator(p_form, p_form).norm() / (HBAR * ident.norm())
    ww = commutator(w_form, w_form).norm() / (HBAR * ident.norm())
    checks.append(pipe.entry("fields.polarization_selfcommutator", float(pp), TOL_EXACT))
    checks.append(pipe.entry("fields.momentum_selfcommutator", float(ww), TOL_EXACT))
    if out is not None:
        rng = np.random.default_rng(pipe.config.seed + 2)
        amp = rng.standard_normal((pipe.grid.n_nodes, pipe.lattice.dim)) \
            + 1j * rng.standard_normal((pipe.grid.n_nodes, pipe.lattice.dim))
        reports.field_trace_csv(out / "field_trace.csv", forms["E"], amp,
                                np.linspace(0.0, 4.0 * np.pi / pipe.grid.omega_max, 32))
    return reports.stage_report("fields", checks)


def stage_bath(pipe: Pipeline) -> dict:
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
    checks = [pipe.entry("oracle.hermiticity", ham.hermiticity_defect(), 1e-12)]
    for name, value in res.items():
        checks.append(pipe.entry(f"oracle.heisenberg_{name}", value, TOL_EXACT))
    spec = symplectic_spectrum(ham)
    checks.append(pipe.entry("oracle.spectrum_real", spec["max_imag_rel"], 1e-6,
                             n_zero_modes=spec["n_zero_modes"]))
    expected_pairs = (ham.dim - spec["n_zero_modes"]) // 2
    checks.append(pipe.entry("oracle.spectrum_positive",
                             float(spec["n_positive"] != expected_pairs or spec["n_negative"] != expected_pairs),
                             0.0, min_positive=spec["min_positive"]))
    master = diagonal_form_check(ham, pipe.modes)
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
    "model": lambda pipe, out: stage_model(pipe),
    "chi": stage_chi,
    "green": stage_green,
    "diag": lambda pipe, out: stage_diag(pipe),
    "fields": stage_fields,
    "bath": lambda pipe, out: stage_bath(pipe),
    "oracle": stage_oracle,
}


def run(config: ScenarioConfig, stages=None) -> int:
    """Execute the requested stages in dependency order; write reports."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    stages = [s for s in STAGES if s in (stages or config.stages)]
    pipe = Pipeline(config)
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
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    track = config.refine_track
    if track == "hamiltonian":
        mt = build_lattice(config.n_per_axis, config.spacing, config.k0_transverse).transverse_basis.shape[1]
        final_nodes = config.n_nodes * 2 ** (levels - 1)
        dim = 2 * mt + 2 * final_nodes * 3 * config.n_per_axis**3
        if dim > config.dim_cap:
            raise ConfigError(
                f"refinement would reach canonical dimension {dim} > cap {config.dim_cap}; "
                "lower n_nodes, levels, or raise dim_cap")

    level_meta = []
    seq = {}
    for lvl in range(levels):
        pipe = Pipeline(config, n_nodes=config.n_nodes * 2**lvl)
        level_meta.append((pipe.grid.n_nodes, pipe.grid.eta))
        indep = bath_mod.verify_bath_independence(pipe.bath, pipe.coupling, pipe.structure)
        vals = {
            "bath_independence_polarization": indep["polarization"],
            "bath_independence_momentum": indep["momentum"],
            "kramers_kronig": verify_kramers_kronig(pipe.coupling, 1j * pipe.grid.omega_max / 3),
            "sum_rule": verify_sum_rules(pipe.coupling, pipe.structure).max_residual(),
            "bath_canonical": bath_mod.verify_bath_canonical(pipe.bath, pipe.coupling),
            "noise_commutator": _noise_residual(pipe),
        }
        if track == "kernels":
            sc = pipe.streamed
            vals["wave_equation"] = sc.wave
            vals["resonant_relation"] = max(sc.resonant.values())
            vals["antiresonant_relation"] = max(sc.antiresonant.values())
            vals["commutation_deviation"] = max(sc.commutation.values())
            vals["annihilator_norm"] = max(sc.annihilator.values())
        else:
            ham = pipe.hamiltonian
            equiv = bath_mod.hamiltonian_equivalence(pipe.coupling, pipe.structure, pipe.bath, ham)
            vals["hamiltonian_forms_weak"] = equiv["weak"]
            vals["mode_eigen_residual"] = diagonal_form_check(ham, pipe.modes)
        for name, value in vals.items():
            seq.setdefault(name, []).append(value)

    checks = []
    for name, values in sorted(seq.items()):
        if any(name.startswith(prefix) for prefix in EXACT_UNDER_REFINEMENT):
            worst = max(values)
            checks.append(reports.check_entry(
                f"refine.{name}", worst, TOL_EXACT * config.tol_scale,
                eta=level_meta[-1][1], n_nodes=level_meta[-1][0],
                lattice=Pipeline(config).lattice, extra={"values": values}))
        else:
            ratios = [a / b if b > 0 else float("inf") for a, b in zip(values[:-1], values[1:])]
            worst_ratio = min(ratios)
            checks.append(reports.check_entry(
                f"refine.{name}", CONVERGENCE_FACTOR / max(worst_ratio, 1e-300), 1.0,
                eta=level_meta[-1][1], n_nodes=level_meta[-1][0],
                lattice=Pipeline(config).lattice,
                extra={"values": values, "ratios": ratios,
                       "orders": reports.convergence_orders(values)}))
    report = reports.stage_report("refine", checks,
                                  extra={"levels": [list(m) for m in level_meta],
                                         "config": config.provenance()})
    reports.write_json(out / "refine.json", report)
    reports.refinement_csv(out / "refinement.csv", level_meta, seq)
    return EXIT_PASS if report["passed"] else EXIT_NUMERICAL


def _noise_residual(pipe: Pipeline) -> float:
    k = pipe.grid.n_nodes // 2
    pn = noise_mode_form(pipe.coupling, k)
    expected = noise_commutator_expected(pipe.coupling, k)
    return (commutator(pn, pn.dagger()) - expected).norm() / max(expected.norm(), 1e-300)


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
        config = ScenarioConfig.from_file(args.config)
        if args.out:
            config.out = args.out
        if args.seed is not None:
            config.seed = args.seed
        if args.tol_scale is not None:
            config.tol_scale = args.tol_scale
            config.validate()
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
