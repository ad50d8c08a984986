import configparser
import json
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st_

from dampol.cli import (CONFIG_KEYS, EXIT_NUMERICAL, EXIT_PASS, EXIT_USAGE, STAGES, TOL_EXACT, VIOLATIONS,
                        ScenarioConfig, main, refine, run, violation_blocks)
from dampol.coupling import builtin_model
from dampol.errors import ConfigError
from dampol.lattice import SECTOR_LEAK_TOL, build_lattice

from reference import split

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

#: the `[model]` parameters most shipped configs give
LORENTZ = {"resonance": 1.5, "width": 0.6, "strength": 1.0}


def read_report(out, stage):
    with open(Path(out) / f"{stage}.json") as fh:
        return json.load(fh)


class TestConfigParsing:
    def test_shipped_configs_parse(self):
        for name in ("lorentz.ini", "uniaxial.ini", "gaussian.ini", "refine.ini",
                     "refine_kernels.ini", "violator_chi.ini", "violator_bath.ini"):
            cfg = ScenarioConfig.from_file(CONFIG_DIR / name)
            assert cfg.n_per_axis >= 1

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_file("/nonexistent/file.ini")

    def test_bad_values(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nstages = chi,warp\n")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_file(bad)

    def test_schema_sets_each_field_once(self):
        # every field but the model's parameters is set by exactly one key
        keys = [fld for section in CONFIG_KEYS.values() for fld in section.values()]
        assert sorted(keys) == sorted(f.name for f in fields(ScenarioConfig) if f.name != "model_params")

    @pytest.mark.parametrize("name,expected", [
        ("degenerate.ini", dict(n_nodes=8, model_params=dict(LORENTZ, strength=0.0), stages=("bath",),
                                out="./out/degenerate")),
        ("gaussian.ini", dict(n_nodes=12, model="gaussian_nonlocal", model_params=dict(LORENTZ, corr_length=0.35),
                              seed=1234, out="./out/gaussian")),
        ("lorentz.ini", dict(n_nodes=12, model_params=LORENTZ, seed=1234, out="./out/lorentz")),
        ("refine.ini", dict(n_nodes=8, model_params=LORENTZ, seed=1234, out="./out/refine")),
        ("refine_kernels.ini", dict(n_nodes=64, model_params=LORENTZ, seed=1234, out="./out/refine_kernels",
                                    refine_track="kernels")),
        ("uniaxial.ini", dict(n_nodes=12, model="uniaxial_local", model_params=dict(LORENTZ, axis="z", ratio=2.0),
                              seed=1234, out="./out/uniaxial")),
        ("violator_bath.ini", dict(n_nodes=10, model_params=LORENTZ, stages=("bath",), seed=77,
                                   out="./out/violator_bath", violation="h1_scale", violation_magnitude=0.1)),
        ("violator_chi.ini", dict(n_nodes=10, model_params=LORENTZ, stages=("green",), seed=77,
                                  out="./out/violator_chi", violation="chi_symmetry", violation_magnitude=0.05)),
    ])
    def test_shipped_config_fields(self, name, expected):
        # each shipped config reads the field values it read before the key table
        assert asdict(ScenarioConfig.from_file(CONFIG_DIR / name)) == asdict(ScenarioConfig(**expected))

    def test_one_validation_after_the_flags(self, tmp_path, monkeypatch):
        # the flags are applied before the config is validated, once per command
        validate, seen = ScenarioConfig.validate, []

        def spy(self):
            seen.append((self.out, self.seed, self.tol_scale))
            return validate(self)
        monkeypatch.setattr(ScenarioConfig, "validate", spy)
        out = str(tmp_path / "o")
        argv = ["model", "--config", str(CONFIG_DIR / "lorentz.ini"), "--out", out]
        assert main([*argv, "--seed", "5", "--tol-scale", "2"]) == EXIT_PASS
        assert seen == [(out, 5, 2.0)]
        seen.clear()
        assert main(argv) == EXIT_PASS
        assert seen == [(out, 1234, 1.0)]

    @pytest.mark.parametrize("command,builds", [
        (["verify-all", "--config", "lorentz.ini"], 1),
        (["refine", "--levels", "3", "--config", "refine.ini"], 3),
        (["refine", "--levels", "3", "--config", "refine_kernels.ini"], 3),
    ], ids=["verify_all", "refine", "refine_kernels"])
    def test_one_model_build_per_pipeline(self, tmp_path, monkeypatch, command, builds):
        # the per-k symbols are built once per pipeline, the build checking the
        # [model] parameters: none is built to validate the config alone
        import dampol.cli as cli
        built = []

        def counted(*args):
            built.append(args[2].n_nodes)
            return builtin_model(*args)
        monkeypatch.setattr(cli, "builtin_model", counted)
        *head, config = command
        assert main([*head, str(CONFIG_DIR / config), "--out", str(tmp_path)]) == EXIT_PASS
        assert len(built) == builds and len(set(built)) == builds

    @pytest.mark.parametrize("config", ["refine.ini", "refine_kernels.ini"])
    def test_one_lattice_per_refine(self, tmp_path, monkeypatch, config):
        # the lattice does not depend on n_nodes: every level, and the dimension
        # check, share one, so its symbols and sector layout are built once
        import dampol.cli as cli
        from dampol.lattice import Lattice
        built = []

        def counted(name, build):
            def counting(*args, **kwargs):
                built.append(name)
                return build(*args, **kwargs)
            return counting
        monkeypatch.setattr(cli, "build_lattice", counted("build_lattice", cli.build_lattice))
        for name in ("_symbols", "_conjugate", "sector_layout"):
            prop = Lattice.__dict__[name]
            monkeypatch.setattr(prop, "func", counted(name, prop.func))
        argv = ["refine", "--levels", "3", "--config", str(CONFIG_DIR / config), "--out", str(tmp_path)]
        assert main(argv) == EXIT_PASS
        assert sorted(built) == ["_conjugate", "_symbols", "build_lattice", "sector_layout"]

    def test_refine_kernels_takes_no_singular_values(self, tmp_path, monkeypatch):
        # every node of the sweep and of the bath stacks is cleared by its
        # Frobenius bound, and refine writes no condition numbers
        svd, calls = np.linalg.svd, []

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", spy)
        argv = ["refine", "--levels", "3", "--config", str(CONFIG_DIR / "refine_kernels.ini"), "--out", str(tmp_path)]
        assert main(argv) == EXIT_PASS
        assert calls == []

    def test_bad_model_refine_writes_nothing(self, tmp_path, capsys):
        # refine builds its first level's pipeline, and so the model, before its output directory
        cfg, out = tmp_path / "bad_model.ini", tmp_path / "o"
        cfg.write_text((CONFIG_DIR / "refine.ini").read_text().replace("width = 0.6", "width = -1"))
        assert main(["refine", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "line-shape parameters out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["n_nodes = 8\n", "[grid]\nn_nodes = 8\nn_nodes = 9\n"],
                             ids=["no_section", "duplicate_key"])
    def test_unparsable_file_exits_usage(self, tmp_path, capsys, text):
        cfg = tmp_path / "broken.ini"
        cfg.write_text(text)
        assert main(["model", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err and "cannot parse config file" in err

    @pytest.mark.parametrize("name,recorded", [("lorentz.ini", None), ("violator_chi.ini", 0.05),
                                               ("violator_bath.ini", 0.1)])
    def test_provenance_records_the_violation_magnitude(self, name, recorded):
        # a violator's reports carry what reproduces it; a clean run's are unchanged
        provenance = ScenarioConfig.from_file(CONFIG_DIR / name).provenance()
        assert provenance.get("violation_magnitude") == recorded

    def test_usage_exit_code(self, tmp_path):
        assert main(["verify-all", "--config", str(tmp_path / "none.ini")]) == EXIT_USAGE

    @pytest.mark.parametrize("key,value", [("name", "bogus"), ("width", "-1")])
    def test_bad_model_exits_usage(self, tmp_path, key, value):
        text = (CONFIG_DIR / "lorentz.ini").read_text().replace(
            f"\n{key} = ", f"\n{key} = {value}\n# was: ", 1)
        cfg = tmp_path / "bad_model.ini"
        cfg.write_text(text)
        assert main(["model", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize("old,new", [
        ("\n[run]\n", "\n[run]\ndim_cap = 8000\n"),         # a key that no longer exists
        ("\nn_nodes = ", "\nn_node = "),                       # a typo
        ("\n[run]\n", "\n[solver]\nmethod = lu\n\n[run]\n"),  # an unknown section
    ], ids=["dim_cap", "typo", "section"])
    def test_unknown_input_exits_usage(self, tmp_path, old, new):
        text = (CONFIG_DIR / "lorentz.ini").read_text()
        assert old in text
        cfg = tmp_path / "unknown.ini"
        cfg.write_text(text.replace(old, new, 1))
        assert main(["model", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE


    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section,key", [
        ("lattice", "spacing"), ("grid", "omega_max"), ("grid", "eta_factor"), ("run", "tol_scale"),
        ("violation", "magnitude"), ("model", "resonance"), ("model", "width"),
        ("model", "strength"), ("flag", "--tol-scale")])
    def test_nonfinite_number_exits_usage(self, tmp_path, capsys, section, key, value):
        # NaN passes every range test written as `<= 0`, and inf some: the
        # config names the key and refuses it before any stage runs
        parser = configparser.ConfigParser()
        parser.read(CONFIG_DIR / "lorentz.ini")
        extra = [key, value] if section == "flag" else []
        if not extra:
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = value
        cfg, out = tmp_path / "nonfinite.ini", tmp_path / "o"
        with open(cfg, "w") as fh:
            parser.write(fh)
        assert main(["verify-all", "--config", str(cfg), "--out", str(out), *extra]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{key.lstrip('-').replace('-', '_')} must be finite, got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value,message", [
        ("lattice", "spacing", "1e300", "[lattice] spacing gives the cell volume spacing**3 = inf"),
        ("lattice", "spacing", "1e-200", "[lattice] spacing gives the cell volume spacing**3 = 0"),
        ("grid", "eta_factor", "1e-320", "[grid] eta_factor gives the offset eta = "),
        ("model", "width", "1e300", "line-shape parameters out of range"),
        ("model", "corr_length", "1e300", "corr_length must be positive, with a finite square"),
        ("model", "strength", "1e200", "[model] strength = 1e+200 makes the spectral densities overflow"),
        ("grid", "omega_max", "1e200", "[grid] omega_max = 1e+200, above 3.4e+38"),
        ("lattice", "spacing", "1e100", "[lattice] spacing gives the cell volume spacing**3 = 1e+300, above 3.4e+38"),
        ("grid", "eta_factor", "1e300", "[grid] eta_factor gives the offset eta = 2.5e+299, above 3.4e+38"),
        ("violation", "magnitude", "1e200", "[violation] magnitude = 1e+200, above 3.4e+38"),
    ])
    def test_extreme_number_exits_usage(self, tmp_path, capsys, section, key, value, message):
        # finite, but the cell volume overflows or underflows to 0 (I / v is
        # NaN), eta is subnormal (1 / eta overflows), a squared length
        # overflows, the spectral densities do, or a cell volume, frequency or
        # violation magnitude has an eighth power that overflows: refused with
        # the usage exit code and the key named, before any stage runs or numpy warns
        parser = configparser.ConfigParser()
        parser.read(CONFIG_DIR / "lorentz.ini")
        if key == "corr_length":
            parser["model"]["name"] = "gaussian_nonlocal"
        if section == "violation":
            parser.add_section(section)
            parser[section]["kind"] = "chi_symmetry"
        parser[section][key] = value
        cfg, out = tmp_path / "extreme.ini", tmp_path / "o"
        with open(cfg, "w") as fh:
            parser.write(fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_usage(self, tmp_path, where):
        # random.Random seeds with |seed|, so -3 would repeat the test points
        # of 3; the config refuses a negative seed before any stage runs,
        # whether it comes from [run] or --seed
        cfg = CONFIG_DIR / "lorentz.ini"
        extra = ["--seed", "-1"]
        if where == "config":
            cfg = tmp_path / "seed.ini"
            cfg.write_text((CONFIG_DIR / "lorentz.ini").read_text().replace(
                "seed = 1234", "seed = -3"))
            extra = []
        proc = subprocess.run([sys.executable, "-m", "dampol.cli", "chi", "--config", str(cfg),
                               "--out", str(tmp_path / "o"), *extra],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert "seed must be non-negative" in proc.stderr
        assert not (tmp_path / "o").exists()


#: each number a random config sets: the open range it is drawn from, and
#: the values at or just past the range's ends that one key may take instead
#: (besides `FAR` and the non-finite ones)
CONFIG_NUMBERS = {
    ("lattice", "spacing"): (0.5, 2.0, [0.0, -1.0]),
    ("grid", "eta_factor"): (0.1, 3.0, [0.0, -0.1]),
    ("model", "resonance"): (0.0, 3.0, [0.0, 3.0, 3.001, -0.1]),
    ("model", "width"): (0.1, 2.0, [0.0, -1e-3]),
    ("model", "strength"): (0.0, 2.0, [0.0, -1e-3]),
    ("model", "ratio"): (0.1, 3.0, [0.0, -1e-3]),
    ("model", "corr_length"): (0.1, 1.0, [0.0, -1e-3]),
    ("violation", "magnitude"): (0.0, 0.2, [0.0]),
}

#: finite values far outside every range, the largest and the smallest
#: positive (subnormal) float among them
FAR = ["1e300", "-1e300", "1e-300", "1.7976931348623157e308", "5e-324"]


@st_.composite
def small_configs(draw):
    """The text of a random small config.

    At most one number is at or past its range, far outside it, or not finite.
    """
    model = draw(st_.sampled_from(["local_lorentz", "uniaxial_local", "gaussian_nonlocal"]))
    own = {"uniaxial_local": ("model", "ratio"), "gaussian_nonlocal": ("model", "corr_length")}
    keys = [k for k in CONFIG_NUMBERS if k not in own.values() or k == own.get(model)]
    defect = draw(st_.one_of(st_.none(), st_.sampled_from(keys)))
    sections = {"lattice": {"n_per_axis": draw(st_.integers(1, 2))},
                "grid": {"n_nodes": draw(st_.integers(1, 12)), "omega_max": 3.0},
                "model": {"name": model},
                "run": {"stages": ",".join(draw(st_.lists(st_.sampled_from(STAGES), min_size=1,
                                                          unique=True))), "seed": 1},
                "violation": {"kind": draw(st_.sampled_from(VIOLATIONS))}}
    for key in keys:
        low, high, edges = CONFIG_NUMBERS[key]
        sections[key[0]][key[1]] = draw(
            st_.sampled_from(edges + FAR + ["nan", "inf", "-inf"]) if key == defect
            else st_.floats(low, high, exclude_min=True, exclude_max=True))
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items()) + "\n"
                   for name, sec in sections.items())


class TestRobustness:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=small_configs())
    def test_random_small_configs_exit_cleanly(self, tmp_path, text):
        # a config is run, refused with exit 2, or fails a check with exit 1,
        # and nothing escapes as an exception
        run_dir = tmp_path / str(len(list(tmp_path.iterdir())))
        run_dir.mkdir()
        cfg = run_dir / "random.ini"
        cfg.write_text(text)
        assert main(["verify-all", "--config", str(cfg), "--out", str(run_dir / "o")]) in (
            EXIT_PASS, EXIT_NUMERICAL, EXIT_USAGE)

    def test_underflowing_asymptote_fails_its_check(self, tmp_path):
        # at strength 1e-101 the squared entries of the asymptotic correction
        # underflow and its norm at 2 z0 reads 0: the quartic ratio has no
        # measured value, so its check fails instead of dividing by zero
        text = (CONFIG_DIR / "lorentz.ini").read_text().replace(
            "strength = 1.0", "strength = 1e-101").replace("stages = all", "stages = chi")
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        checks = {c["check_id"]: c for c in read_report(out, "chi")["checks"]}
        assert not checks["chi.asymptote_quartic_ratio"]["passed"]
        assert checks["chi.asymptote_quartic_ratio"]["measured_ratio"] == float("inf")

    def test_tiny_spacing_names_the_singular_coupling(self, tmp_path):
        # at spacing 1e-34 (cell volume 1e-102) the coupling kernel's smallest
        # singular value is 0 beside a largest one above 1e300: the bath stage
        # names node 0 with an infinite condition number, where the ratio
        # largest / max(smallest, 1e-300) overflowed
        text = (CONFIG_DIR / "gaussian.ini").read_text().replace("spacing = 1.0", "spacing = 1e-34")
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert read_report(out, "bath")["error"].startswith("coupling kernel not invertible at node 0 ")


def over_cap_config(tmp_path):
    # n = 3, K = 25: canonical dimension 2 * 55 + 2 * 25 * 81 = 4160 > 4000
    text = (CONFIG_DIR / "lorentz.ini").read_text().replace(
        "n_per_axis = 2", "n_per_axis = 3").replace("n_nodes = 12", "n_nodes = 25")
    cfg = tmp_path / "big.ini"
    cfg.write_text(text)
    return cfg


class TestDimensionCap:
    def test_oracle_over_cap_exits_usage(self, tmp_path, capsys):
        cfg = over_cap_config(tmp_path)
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "4160" in capsys.readouterr().err

    def test_verify_all_refused_before_any_stage(self, tmp_path, capsys):
        # the cap depends on the config alone, so model..bath must not run first
        cfg = over_cap_config(tmp_path)
        out = tmp_path / "o"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "4160" in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_refine_over_cap_exits_before_level_zero(self, tmp_path, capsys, monkeypatch):
        # refine.ini at 5 levels ends at K = 128: 2 * 17 + 2 * 128 * 24 = 6178 > 4000
        import dampol.cli as cli

        def no_level(*args, **kwargs):
            raise AssertionError("a refinement level ran")
        monkeypatch.setattr(cli.Pipeline, "__init__", no_level)
        argv = ["refine", "--config", str(CONFIG_DIR / "refine.ini"), "--levels", "5",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "6178" in capsys.readouterr().err


class TestRun:
    def test_smoke_two_stages(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.out = str(tmp_path / "o")
        cfg.n_nodes = 8
        status = run(cfg, stages=["chi", "green"])
        assert status == EXIT_PASS
        for stage in ("chi", "green"):
            rep = read_report(cfg.out, stage)
            assert rep["passed"]
            assert all(c["passed"] for c in rep["checks"])
        assert (Path(cfg.out) / "chi_trace.npy").exists()
        assert (Path(cfg.out) / "green_trace.npy").exists()

    def test_determinism(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.n_nodes = 6
        outs = []
        for sub in ("a", "b"):
            cfg.out = str(tmp_path / sub)
            run(cfg, stages=["chi", "green"])
            outs.append({p.name: p.read_bytes() for p in Path(cfg.out).iterdir()})
        assert outs[0] == outs[1]

    def test_chi_violator_flagged(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "violator_chi.ini")
        cfg.out = str(tmp_path / "v")
        cfg.n_nodes = 8
        assert run(cfg) == EXIT_NUMERICAL
        rep = read_report(cfg.out, "green")
        failed = {c["check_id"] for c in rep["checks"] if not c["passed"]}
        assert "green.adjoint_residual" in failed

    def test_chi_violator_flagged_in_every_stage(self, tmp_path):
        # the perturbation leaks across sectors, so every check runs in one
        # dense block; the stacked checks keep the per-point values
        text = (CONFIG_DIR / "violator_chi.ini").read_text().replace("stages = green", "stages = all")
        cfg = tmp_path / "violator_all.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        checks = {c["check_id"]: c for stage in ("chi", "green") for c in read_report(out, stage)["checks"]}
        # the symmetry residuals are taken at the config seed's random.Random points
        expected = {"chi.symmetry_transpose": 0.11592079459981658,
                    "green.reciprocity": 0.014455411021346584,
                    "green.adjoint_residual": 0.022201714029470045}
        for check_id, residual in expected.items():
            assert not checks[check_id]["passed"]
            assert checks[check_id]["residual"] == pytest.approx(residual, rel=1e-12)
        assert {c for c, entry in checks.items() if not entry["passed"]} == set(expected)

    @pytest.mark.parametrize("strength", ["1e-4", "1e-6"])
    def test_weak_coupling_passes(self, tmp_path, strength):
        # L A and the second potential rate nearly cancel to the source term,
        # which shrinks with the coupling: the wave-source check is scaled by
        # the largest of the three terms, so its rounding stays at 1e-15
        text = (CONFIG_DIR / "lorentz.ini").read_text().replace("strength = 1.0", f"strength = {strength}")
        cfg = tmp_path / "weak.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        wave = {c["check_id"]: c for c in read_report(out, "oracle")["checks"]}["oracle.heisenberg_wave_source"]
        assert wave["residual"] <= 1e-14

    def test_bath_violator_flagged(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "violator_bath.ini")
        cfg.out = str(tmp_path / "v")
        cfg.n_nodes = 8
        assert run(cfg) == EXIT_NUMERICAL
        rep = read_report(cfg.out, "bath")
        failed = {c["check_id"] for c in rep["checks"] if not c["passed"]}
        assert "bath.canonical_identity" in failed

    def test_degenerate_model_reports_error(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "degenerate.ini")
        cfg.out = str(tmp_path / "v")
        assert run(cfg) == EXIT_NUMERICAL
        rep = read_report(cfg.out, "bath")
        assert "not invertible" in rep["error"]


class TestRunImports:
    def test_verify_all_imports_no_numpy_random(self, tmp_path):
        # the random test points come from the stdlib random.Random, which
        # `import dampol.cli` already loads; numpy.random would pull in
        # secrets, hashlib and OpenSSL, about 5 MB of peak RSS
        argv = ["verify-all", "--config", str(CONFIG_DIR / "lorentz.ini"), "--out", str(tmp_path / "o")]
        code = ("import sys\nfrom dampol.cli import main\n"
                f"status = main({argv!r})\n"
                "print(status, 'numpy.random' in sys.modules, '_hashlib' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split()[-3:] == [str(EXIT_PASS), "False", "False"], proc.stderr


class TestOneBlockBathForm:
    def test_violator_chi_oracle_matches_dense(self, tmp_path, monkeypatch):
        # the chi_symmetry violation leaks across momentum sectors, so the whole
        # run is dense: the coupling is re-laid into one block, and the bath
        # form and the reference are each one block; the values are the dense
        # oracle's, whose form was one dim x dim matrix
        import dampol.bath as bath_mod
        assemble, blocks = bath_mod.assemble_bath_hamiltonian, []

        def spy(*args):
            form = assemble(*args)
            blocks.append(len(form.blocks))
            return form
        monkeypatch.setattr(bath_mod, "assemble_bath_hamiltonian", spy)
        out = tmp_path / "o"
        argv = ["oracle", "--config", str(CONFIG_DIR / "violator_chi.ini"), "--out", str(out)]
        assert main(argv) == EXIT_PASS
        assert blocks == [1]
        checks = {c["check_id"]: c for c in read_report(out, "oracle")["checks"]}
        assert checks["oracle.spectrum_real"]["n_sectors"] == 1
        # the leak that chose the dense layout: the perturbation's
        assert checks["oracle.spectrum_real"]["sector_leak"] > SECTOR_LEAK_TOL
        weak = checks["oracle.hamiltonian_forms_weak"]
        assert weak["residual"] == pytest.approx(0.057270887986579914, rel=1e-10)
        assert weak["frobenius"] == pytest.approx(0.05982854450409224, rel=1e-10)


class TestSusceptibilityReuse:
    def test_above_cut_values_evaluated_once(self, tmp_path, monkeypatch):
        # bath coefficients, linkage, the P form and the constitutive check
        # share one chi(w_k + i eta) stack (36 evaluations fewer at K = 12),
        # the asymptote check sums moments instead (2 fewer), the green
        # stage solves each random point once (4 fewer), and the wave
        # diagnostic reads the operator the node sweep inverted (12 fewer):
        # 134 -> 80 points, counted through the one stacked evaluator every
        # point goes through
        import dampol.susceptibility as sus
        points = []
        evaluate = sus.chi_stack

        def counted(coupling, zs, *layout):
            points.extend(zs)
            return evaluate(coupling, zs, *layout)
        monkeypatch.setattr(sus, "chi_stack", counted)
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.out = str(tmp_path / "o")
        assert run(cfg) == EXIT_PASS
        assert len(points) == 80

    def test_moments_evaluated_once(self, tmp_path, monkeypatch):
        # the constraints, S, the sum rules, both asymptote residuals, the
        # bath self-energy and the oracle's polarization rate share one sum
        import dampol.coupling as cpl
        calls = []
        evaluate = cpl.spectral_moments

        def counted(*args):
            calls.append(args)
            return evaluate(*args)
        monkeypatch.setattr(cpl, "spectral_moments", counted)
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.out = str(tmp_path / "o")
        assert run(cfg, stages=("model", "chi")) == EXIT_PASS
        assert len(calls) == 1
        cfg.out = str(tmp_path / "all")
        calls.clear()
        assert run(cfg) == EXIT_PASS
        assert len(calls) == 1


class TestSweepFailure:
    def test_failed_sweep_solved_once(self, tmp_path, monkeypatch):
        import dampol.green as green
        from dampol.errors import SingularOperatorError
        from dampol.lattice import FrequencyGrid
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.out = str(tmp_path / "o")
        node1 = FrequencyGrid.midpoint(cfg.n_nodes, cfg.omega_max, cfg.eta_factor).nodes[1]
        solve, calls = green.solve_stack, []

        def failing(chi, zs):
            calls.append(len(zs))
            kernels, residual, failures, operator = solve(chi, zs)
            failures.update({i: "forced failure" for i, z in enumerate(zs) if z.real == node1})
            return kernels, residual, failures, operator
        monkeypatch.setattr(green, "solve_stack", failing)
        assert run(cfg) == EXIT_NUMERICAL
        # the sweep is attempted once, over all K nodes at once
        assert calls == [cfg.n_nodes]
        errors = {stage: read_report(cfg.out, stage)["error"]
                  for stage in ("green", "diag", "fields", "oracle")}
        assert errors["green"].startswith("sweep failed at indices [1]")
        assert set(errors.values()) == {errors["green"]}


class TestEvenLattice:
    def test_verify_all_n4_passes(self, tmp_path):
        # the Nyquist components drop out of the derivative blocks, so every
        # exact check closes on an even lattice with n_per_axis >= 4
        text = (CONFIG_DIR / "lorentz.ini").read_text().replace(
            "n_per_axis = 2", "n_per_axis = 4").replace("n_nodes = 12", "n_nodes = 4").replace(
            "stages = all", "stages = model,chi,green,diag,fields,bath")
        cfg = tmp_path / "n4.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        assert read_report(out, "fields")["passed"]

    #: the susceptibility of gaussian at n = 4, spacing 0.37, is below the invertibility
    #: ratio at node 0, whichever k0_transverse
    GAUSSIAN_N4_BATH = "susceptibility not invertible at node 0 (singular-value ratio 1.922e-11"

    @pytest.mark.parametrize("name, n, k0_transverse, n_nodes, last", [
        # a mixed-radix FFT rounds q and -q apart; the odd part it left in
        # the Gaussian symbol, about 1e-16, made the coupling not exactly
        # real, and the momentum self-commutator read 9.3e-10 at n = 6 and
        # 3.2e-7 at n = 9.  The exit code is not asserted: the sanity cap
        # diag.wave_equation reads 2.07 against 2.0 at n = 9
        *(pytest.param("gaussian", n, True, 12, "fields", id=str(n)) for n in (6, 9)),
        # every model on the lattices no shipped config reaches, both k0_transverse
        # values, stages model..bath: only the weak-form sanity caps may fail
        *(pytest.param(name, n, k0, 8, "bath", id=f"{name}-{n}-{k0}") for name in ("lorentz", "gaussian", "uniaxial")
          for n in (3, 4, 5, 6) for k0 in (True, False)),
    ])
    def test_gaussian_exact_checks_close(self, tmp_path, name, n, k0_transverse, n_nodes, last):
        stages = STAGES[:STAGES.index(last) + 1]
        cfg = ScenarioConfig.from_file(CONFIG_DIR / f"{name}.ini", n_per_axis=n, spacing=0.37, k0_transverse=k0_transverse,
                                       n_nodes=n_nodes, stages=stages, out=str(tmp_path / "o"))
        run(cfg)
        reports = [read_report(cfg.out, stage) for stage in stages]
        errors = {r["stage"]: r["error"][:len(self.GAUSSIAN_N4_BATH)] for r in reports if "error" in r}
        assert errors == ({"bath": self.GAUSSIAN_N4_BATH} if (name, n) == ("gaussian", 4) else {})
        exact = [c for r in reports for c in r["checks"] if c["tolerance"] <= TOL_EXACT]
        assert len(exact) >= 15
        assert [c["check_id"] for c in exact if not c["passed"]] == []

    @pytest.mark.parametrize("n, spacing, n_nodes, stage, message", [
        # the minimum-image Gaussian on a periodic box of 1.6 is not a positive kernel
        (8, 0.2, 4, "model", "structure tensor not positive-definite (min eigenvalue 6.569e-08 "
                             "at q = (7.85398, 7.85398, 7.85398))"),
        (4, 0.37, 8, "bath", GAUSSIAN_N4_BATH + " at q = (-8.49079, -8.49079, -8.49079))"),
    ])
    def test_degenerate_kernels_name_the_wave_vector(self, tmp_path, n, spacing, n_nodes, stage, message):
        # each per-q block is one wave vector: the error names the one holding the
        # smallest eigenvalue or singular value, a zone corner here
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "gaussian.ini", n_per_axis=n, spacing=spacing, n_nodes=n_nodes,
                                       stages=(stage,), out=str(tmp_path / "o"))
        assert run(cfg) == EXIT_NUMERICAL
        assert read_report(cfg.out, stage)["error"] == message


class TestGreenStage:
    def test_each_point_solved_once(self, tmp_path, monkeypatch):
        # the K node points, then each random z and its reflections -z and
        # -conj(z): 12 + 4 * 3 points, counted through the one stacked solve
        # every point goes through, and no point solved twice
        import dampol.green as green
        solve, points = green.solve_stack, []

        def counted(chi, zs):
            points.extend(complex(z) for z in zs)
            return solve(chi, zs)
        monkeypatch.setattr(green, "solve_stack", counted)
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.out = str(tmp_path / "o")
        assert run(cfg, stages=("green",)) == EXIT_PASS
        assert len(points) == 24
        assert len(set(points)) == 24


class TestPointChecksStacked:
    def test_one_call_per_check(self, tmp_path, monkeypatch):
        # Kramers-Kronig is one chi_stack of its 5 points, the chi reflection
        # check one blocks_at of 5 points and their reflections, and the green
        # reflection check one solve_green of 4 points and their reflections
        import dampol.cli as cli
        import dampol.susceptibility as sus
        calls = []

        def spy(name, evaluate):
            def counted(*args):
                calls.append((name, len(args[1])))
                return evaluate(*args)
            return counted
        monkeypatch.setattr(sus, "chi_stack", spy("chi_stack", sus.chi_stack))
        monkeypatch.setattr(sus.Susceptibility, "blocks_at", spy("blocks_at", sus.Susceptibility.blocks_at))
        monkeypatch.setattr(cli, "solve_green", spy("solve_green", cli.solve_green))
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.out = str(tmp_path / "o")
        assert run(cfg, stages=("chi",)) == EXIT_PASS
        # the last evaluation is the chi trace's, at the 12 nodes, perturbation included
        assert calls == [("chi_stack", 5), ("blocks_at", 15), ("chi_stack", 15),
                         ("blocks_at", 12), ("chi_stack", 12)]
        calls.clear()
        assert run(cfg, stages=("green",)) == EXIT_PASS
        assert [c for c in calls if c[0] == "solve_green"] == [("solve_green", 12)]


def _forbid_stack_route(monkeypatch):
    """Make every binding of the node-pair stack builders fail when called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("node-pair stacks built in a production run")
    for name, mod in list(sys.modules.items()):
        if name == "dampol" or name.startswith("dampol."):
            for attr in ("mode_coefficients", "fano_residual"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, forbidden)


class TestViolationBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k0_transverse", [True, False])
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(magnitude=st_.floats(-1e3, 1e3))
    def test_blocks_are_the_rotated_site_entry(self, n, k0_transverse, magnitude):
        # the blocks built from two rows of the basis against the rotation of
        # the site matrix with the one entry: equal in value, with the same
        # leak; a zero entry may differ in sign, so they compare by ==
        lat = build_lattice(n, 1.0, k0_transverse)
        site = np.zeros((lat.dim, lat.dim), dtype=complex)
        site[0, 1] = magnitude
        leak, dense = split(lat, site)
        blocks = violation_blocks(lat, magnitude)
        assert blocks.dtype == dense.dtype and np.array_equal(blocks, dense)
        assert lat.leak(blocks) == leak

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_leak_reads_real_blocks_as_complex(self, n):
        # the violator's block has real entries: held as real data or as its
        # complex copy, its leak is the same to the bit
        lat = build_lattice(n, 1.0)
        blocks = violation_blocks(lat, 1.0)
        assert lat.leak(blocks.real).hex() == lat.leak(blocks).hex()

    def test_violator_rotates_no_site_operator(self, tmp_path, monkeypatch):
        # the violator's perturbation is built as its block, once, and the
        # run works in the dense layout; the package has no site rotation
        # (tests/test_layout.py), so no shipped command splits a site operator
        import dampol.cli as cli
        built, pipes, init = [], [], cli.Pipeline.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pipes.append(self)

        def counted(lattice, magnitude):
            built.append(magnitude)
            return violation_blocks(lattice, magnitude)
        monkeypatch.setattr(cli.Pipeline, "__init__", recording)
        monkeypatch.setattr(cli, "violation_blocks", counted)
        argv = ["verify-all", "--config", str(CONFIG_DIR / "violator_chi.ini"), "--out", str(tmp_path)]
        assert main(argv) == EXIT_NUMERICAL
        assert len(built) == 1 and [pipe.chi.layout for pipe in pipes] == [pipes[0].lattice.one_block]
        assert not read_report(tmp_path, "green")["passed"]


class TestStackFreeProduction:
    def test_every_stage(self, tmp_path, monkeypatch):
        _forbid_stack_route(monkeypatch)
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.out = str(tmp_path / "o")
        cfg.n_nodes = 8
        assert run(cfg, stages=STAGES) == EXIT_PASS
        assert read_report(cfg.out, "oracle")["passed"]

    def test_kernel_stages_rotate_back_no_site_stack(self, tmp_path, monkeypatch):
        # on a translation-invariant medium the model and the lattice
        # operators are built from their per-k symbols, and the coupling's
        # derived operators, the node sweep and its condition numbers, the
        # streamed pass, the chi trace, the field forms, the noise and
        # canonical-pair commutators and the bath cross-check stay in the
        # sector blocks; the package has no site rotation (tests/test_layout.py)
        import dampol.cli as cli
        pipes, init = [], cli.Pipeline.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pipes.append(self)
        monkeypatch.setattr(cli.Pipeline, "__init__", recording)
        for config in ("lorentz", "gaussian", "uniaxial"):
            cfg = ScenarioConfig.from_file(CONFIG_DIR / f"{config}.ini")
            cfg.out = str(tmp_path / config)
            cfg.n_nodes = 16
            assert run(cfg, stages=("model", "chi", "green", "diag", "fields", "bath")) == EXIT_PASS
            pipe = pipes[-1]
            assert pipe.coupling.sector_leak == 0.0, config
            assert pipe.propagator.layout is pipe.bath.layout is pipe.lattice.sector_layout, config
            assert (Path(cfg.out) / "chi_trace.npy").exists()
            assert (Path(cfg.out) / "field_trace.npy").exists()

    def test_hamiltonian_refine_track(self, tmp_path, monkeypatch):
        _forbid_stack_route(monkeypatch)
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "refine.ini")
        cfg.out = str(tmp_path)
        cfg.n_nodes = 4
        assert refine(cfg, 2) in (EXIT_PASS, EXIT_NUMERICAL)
        assert "refine.mode_eigen_residual" in {
            c["check_id"] for c in read_report(cfg.out, "refine")["checks"]}

    def test_kernels_refine_track(self, tmp_path, monkeypatch):
        _forbid_stack_route(monkeypatch)
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "refine_kernels.ini")
        cfg.out = str(tmp_path)
        cfg.n_nodes = 8
        assert refine(cfg, 2) in (EXIT_PASS, EXIT_NUMERICAL)
        assert read_report(cfg.out, "refine")["checks"]


class TestRefine:
    def test_streamed_pass_precedes_chi_above_cut(self, tmp_path, monkeypatch):
        # the cached chi blocks above the cut must not be alive at the streamed pass's peak
        import dampol.cli as cli
        pipes, calls = [], []
        init, streamed = cli.Pipeline.__init__, cli.streamed_mode_checks

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pipes.append(self)

        def checked(*args):
            assert "above_cut_blocks" not in pipes[-1].chi.__dict__
            calls.append(1)
            return streamed(*args)
        monkeypatch.setattr(cli.Pipeline, "__init__", recording)
        monkeypatch.setattr(cli, "streamed_mode_checks", checked)
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "refine_kernels.ini")
        cfg.out = str(tmp_path)
        cfg.n_nodes = 8
        assert refine(cfg, 2) in (EXIT_PASS, EXIT_NUMERICAL)
        assert len(calls) == 2

    def test_kernels_track_builds_no_site_stack(self, tmp_path, monkeypatch):
        # the kernel stages run on sector blocks; the package has no site
        # rotation (tests/test_layout.py), so no operator is rotated back
        import dampol.cli as cli
        pipes, init = [], cli.Pipeline.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pipes.append(self)
        monkeypatch.setattr(cli.Pipeline, "__init__", recording)
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "refine_kernels.ini")
        cfg.out = str(tmp_path)
        cfg.n_nodes = 8
        assert refine(cfg, 2) in (EXIT_PASS, EXIT_NUMERICAL)
        assert pipes
        for pipe in pipes:
            assert pipe.propagator.layout is pipe.lattice.sector_layout

    def test_subnormal_deepest_eta_exits_usage(self, tmp_path, capsys, monkeypatch):
        # level 0's eta is normal, but three levels halve it twice into the
        # subnormals: refused before any level runs, with the level named
        import dampol.cli as cli
        pipes, init = [], cli.Pipeline.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pipes.append(self)
        monkeypatch.setattr(cli.Pipeline, "__init__", recording)
        cfg = tmp_path / "refine.ini"
        cfg.write_text((CONFIG_DIR / "refine.ini").read_text().replace(
            "eta_factor = 1.0", "eta_factor = 2e-307"))
        out = tmp_path / "o"
        argv = ["refine", "--config", str(cfg), "--out", str(out)]
        assert main([*argv, "--levels", "3"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "[grid] eta_factor gives the offset eta at refinement level 2 = " in err
        assert pipes == [] and not out.exists()
        ScenarioConfig.from_file(cfg).check_scales(1)   # two levels stay normal

    def test_requires_two_levels(self):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "refine.ini")
        with pytest.raises(ConfigError):
            refine(cfg, 1)

    def test_dimension_guard(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "refine.ini")
        cfg.out = str(tmp_path)
        cfg.n_nodes = 64
        with pytest.raises(ConfigError):
            refine(cfg, 4)

    def test_smoke_hamiltonian_track(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "refine.ini")
        cfg.out = str(tmp_path)
        cfg.n_nodes = 6
        status = refine(cfg, 2)
        rep = read_report(cfg.out, "refine")
        names = {c["check_id"] for c in rep["checks"]}
        assert "refine.hamiltonian_forms_weak" in names
        assert "refine.kramers_kronig" in names
        assert (Path(cfg.out) / "refinement.csv").exists()
        # exact identities hold even when coarse ratios may fluctuate
        for c in rep["checks"]:
            if c["check_id"].startswith(("refine.kramers", "refine.sum", "refine.noise",
                                         "refine.bath_canonical")):
                assert c["passed"]
        assert status in (EXIT_PASS, EXIT_NUMERICAL)


class TestOptionalOutputs:
    def test_field_trace_and_hamiltonian_dump(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.out = str(tmp_path / "o")
        cfg.n_nodes = 6
        cfg.dump_hamiltonian = True
        assert run(cfg, stages=["fields", "oracle"]) == EXIT_PASS
        assert (Path(cfg.out) / "field_trace.npy").exists()
        assert (Path(cfg.out) / "hamiltonian.dak").exists()
        from dampol.serialize import load_quadratic_form
        blocks, groups, header = load_quadratic_form(Path(cfg.out) / "hamiltonian.dak")
        dim = header["canonical_basis"]["transverse_dim"] * 2 + 2 * 6 * 24
        assert header["shape"] == [dim, dim] and len(blocks) == len(groups) > 1
        assert [b.shape for b in blocks] == [(g.size, g.size) for g in groups]
        assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(dim))
