import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driven_lattice as dl
from driven_lattice import analysis, cli, floquet

REF = dl.LatticeSpec()
REFERENCE_CFG = Path(__file__).resolve().parents[1] / "scripts" / "reference.cfg"

CONFIG_TEXT = """
# reference run
mass = 1.0
hbar = 1.0
v0 = 1.0
delta = 0.5
spacing = 10.0
amplitude = 1.0
omega = 1.0
phases = 0,pi,0
np = 3
sigma = 62.83185307179586
center = 240.0
domain = ring
supercells = 16
substeps = 2048
horizon = 100
omega_start = 2.4
omega_stop = 3.2
omega_step = 0.01
outdir = out
grid_points = 600
basis_size = 63
workers = 2
refine_peaks = 0
"""


def tiny_config(**kwargs):
    defaults = dict(
        lattice=dl.LatticeSpec(),
        initial=dl.UniformState(),
        domain="supercell",
        horizon=20,
        substeps=512,
        refine_peaks=False,
    )
    defaults.update(kwargs)
    return dl.ExperimentConfig(**defaults)


# a valid value different from the default of every ExperimentConfig field
CHANGED_FIELD = {
    "lattice": dl.LatticeSpec(omega=2.0),
    "initial": dl.GaussianState(center=15.0, width=2.0),
    "domain": "ring",
    "supercells": 8,
    "grid_points": 600,
    "substeps": 512,
    "horizon": 10,
    "omega_start": 2.5,
    "omega_stop": 3.0,
    "omega_step": 0.02,
    "outdir": "elsewhere",
    "basis_size": 61,
    "refine_peaks": False,
    "workers": 2,
}


def resonance_rows(sweep):
    return dl.pair_resonances(
        sweep.config.lattice, sweep.column("omega"), sweep.column("overlap")
    )


class TestConfigParsing:
    def test_full_file_round_trip(self):
        values = analysis.parse_config_text(CONFIG_TEXT)
        config = analysis.config_from_values(values)
        assert config.lattice.phases == (0.0, math.pi, 0.0)
        assert config.lattice.omega == 1.0
        assert isinstance(config.initial, dl.GaussianState)
        assert config.initial.center == 240.0
        assert config.domain == "ring"
        assert config.supercells == 16
        assert len(config.omega_grid()) == 81
        assert config.omega_grid()[-1] == pytest.approx(3.2)
        assert config.grid_points == 600
        assert config.basis_size == 63
        assert config.workers == 2
        assert config.refine_peaks is False

    def test_unset_keys_take_the_dataclass_defaults(self):
        assert analysis.config_from_values({}) == dl.ExperimentConfig(
            lattice=dl.LatticeSpec(), initial=dl.UniformState()
        )

    def test_default_config_and_default_spectrum_share_one_grid(self):
        config = dl.ExperimentConfig(lattice=dl.LatticeSpec(), initial=dl.UniformState())
        dec = dl.decompose(config.make_initial_state(), [dl.labeled_spectrum(config.lattice)])
        assert dec.residual <= 1e-4

    def test_reference_file_hash_is_pinned(self):
        # the hash every reference CSV header carries; any change in how a
        # key is read or defaulted moves it
        assert dl.load_config(REFERENCE_CFG).config_hash() == "fda3affe9695d4b9"

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(dl.ExperimentConfig)])
    def test_config_hash_covers_every_field_but_workers(self, name):
        base = dl.ExperimentConfig(
            lattice=dl.LatticeSpec(), initial=dl.UniformState(),
            omega_start=2.4, omega_stop=3.2, omega_step=0.01,
        )
        changed = dataclasses.replace(base, **{name: CHANGED_FIELD[name]})
        assert getattr(changed, name) != getattr(base, name)
        if name == "workers":
            assert changed.config_hash() == base.config_hash()
        else:
            assert changed.config_hash() != base.config_hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(dl.ConfigError, match="unknown key"):
            analysis.parse_config_text("flux_capacitor = 1\n")

    def test_only_equals_separates_key_and_value(self):
        with pytest.raises(dl.ConfigError, match="expected 'key = value'"):
            analysis.parse_config_text("omega: 2.0\n")

    def test_negative_sigma_rejected(self):
        with pytest.raises(dl.ConfigError, match="sigma"):
            analysis.config_from_values({"sigma": "-5"})
        assert analysis.config_from_values({"sigma": "0"}).initial == dl.UniformState()

    def test_phase_token_forms(self):
        values = {"phases": "0.5pi,-pi,0", "np": "3"}
        config = analysis.config_from_values(values)
        assert config.lattice.phases == (0.5 * math.pi, -math.pi, 0.0)

    def test_np_phase_mismatch(self):
        with pytest.raises(dl.ConfigError, match="does not match"):
            analysis.config_from_values({"phases": "0,pi,0", "np": "2"})

    def test_sigma_zero_means_uniform(self):
        config = analysis.config_from_values({"sigma": "0"})
        assert isinstance(config.initial, dl.UniformState)

    def test_default_gaussian_center_is_mid_ring_site(self):
        config = analysis.config_from_values(
            {"sigma": "62.8", "domain": "ring", "supercells": "16"}
        )
        assert config.initial.center == 240.0

    def test_invalid_values(self):
        with pytest.raises(dl.ConfigError):
            analysis.config_from_values({"omega": "not-a-number"})
        with pytest.raises(dl.ConfigError):
            analysis.config_from_values({"v0": "-1"})
        with pytest.raises(dl.ConfigError):
            tiny_config(horizon=0)
        with pytest.raises(dl.ConfigError):
            tiny_config(domain="torus")
        with pytest.raises(dl.ConfigError):
            tiny_config(omega_start=1.0, omega_stop=None, omega_step=None)
        with pytest.raises(dl.ConfigError):
            tiny_config(substeps=100)

    def test_overrides_beat_file_values(self):
        values = analysis.parse_config_text(CONFIG_TEXT)
        config = analysis.config_from_values(values, {"omega": "2.5", "sigma": "0"})
        assert config.lattice.omega == 2.5
        assert isinstance(config.initial, dl.UniformState)


class TestSweeps:
    def test_static_drive_gives_thirds_and_flat_overlap(self):
        config = tiny_config(
            lattice=dl.LatticeSpec(amplitude=0.0),
            horizon=40,
            omega_start=3.0, omega_stop=3.2, omega_step=0.1,
            basis_size=61,
        )
        sweep = dl.run_nmax_sweep(config)
        assert len(sweep.records) == 3
        assert not sweep.failures
        assert np.abs(sweep.column("n_max") - 1.0 / 3.0).max() < 1e-10
        assert np.ptp(sweep.column("overlap")) < 1e-8

    def test_overlap_sweep_skips_populations(self):
        config = tiny_config(omega_start=1.0, omega_stop=1.1, omega_step=0.1)
        sweep = dl.run_overlap_sweep(config)
        assert np.all(np.isnan(sweep.column("n_max")))
        assert not np.any(np.isnan(sweep.column("overlap")))

    def test_failures_recorded_not_dropped(self, monkeypatch):
        config = tiny_config(omega_start=1.0, omega_stop=1.2, omega_step=0.1)
        real = analysis.spectrum_at

        def flaky(config, omega, *args, **kwargs):
            if abs(omega - 1.1) < 1e-9:
                raise dl.UnitarityError("synthetic failure")
            return real(config, omega, *args, **kwargs)

        monkeypatch.setattr(analysis, "spectrum_at", flaky)
        sweep = dl.run_nmax_sweep(config)
        assert len(sweep.records) == 3
        assert len(sweep.failures) == 1
        assert sweep.failures[0][0] == pytest.approx(1.1)
        failed = [r for r in sweep.records if r.error]
        assert len(failed) == 1 and math.isnan(failed[0].n_max)
        assert failed[0].quasienergies is None and failed[0].overlaps is None
        # a computed record carries its spectrum's label-ordered arrays
        for record in sweep.records:
            if record.error is None:
                spectrum = real(config, record.omega)
                np.testing.assert_array_equal(record.quasienergies, spectrum.quasienergies)
                np.testing.assert_array_equal(record.overlaps, spectrum.uniform_weights())

    @pytest.mark.parametrize("error", [IndexError, ValueError])
    def test_programming_errors_propagate(self, monkeypatch, error):
        # a shape or broadcast bug is not a per-frequency failure
        config = tiny_config(omega_start=1.0, omega_stop=1.1, omega_step=0.1)

        def broken(*args, **kwargs):
            raise error("synthetic bug")

        monkeypatch.setattr(analysis, "spectrum_at", broken)
        with pytest.raises(error, match="synthetic bug"):
            dl.run_nmax_sweep(config)

    def test_overlap_sweep_rejects_ring(self):
        config = tiny_config(domain="ring", omega_start=1.0, omega_stop=1.1, omega_step=0.1)
        with pytest.raises(dl.ConfigError, match="supercell"):
            dl.run_overlap_sweep(config)

    def test_peak_refinement_inserts_points(self):
        config = tiny_config(
            horizon=400,
            omega_start=2.70, omega_stop=2.76, omega_step=0.02,
            refine_peaks=True,
        )
        sweep = dl.run_nmax_sweep(config)
        requested = set(np.round(config.omega_grid(), 9))
        produced = set(np.round(sweep.column("omega"), 9))
        assert requested <= produced
        assert len(produced) > len(requested)
        omegas = sweep.column("omega")
        assert np.all(np.diff(omegas) > 0)

    def test_pool_forks_no_more_workers_than_frequencies(self, monkeypatch):
        # a process pool forks all max_workers at its first submit, so a
        # sweep asks for no more than it has frequencies; this pool forks none
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                pools.append((self.max_workers, len(tasks)))
                return map(fn, tasks)

        def peaked(config, omega, with_populations):
            n_max = 0.9 - 5.0 * abs(omega - 2.731)
            return dl.SweepRecord(omega=omega, n_max=n_max, argmax_site=0, argmax_m=0,
                                  overlap=0.5, eps_fgs=0.0, gap=0.1)

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(analysis, "_sweep_point", peaked)
        config = tiny_config(omega_start=2.70, omega_stop=2.76, omega_step=0.02,
                             refine_peaks=True, workers=8)
        dl.run_nmax_sweep(config)
        # the grid's four frequencies, then refinement rounds of two
        assert pools[0] == (4, 4)
        assert pools[1:] and all(pool == (2, 2) for pool in pools[1:])
        pools.clear()
        sweep = dl.run_nmax_sweep(dataclasses.replace(config, omega_stop=2.70))
        assert len(sweep.records) == 1 and pools == []  # one frequency runs in process


class TestDeterminism:
    @pytest.mark.parametrize("command", ["sweep", "spectrum"])
    def test_identical_config_identical_bytes(self, tmp_path, command):
        def run(workers, name):
            if command == "sweep":
                config = tiny_config(
                    omega_start=1.0, omega_stop=1.1, omega_step=0.1,
                    workers=workers, outdir=str(tmp_path),
                )
                sweep = dl.run_nmax_sweep(config)
                return dl.write_sweep_csv(tmp_path / name, sweep).read_bytes()
            assert cli.main([
                "spectrum", "--substeps", "512", "--workers", str(workers),
                "--omega-start", "1.0", "--omega-stop", "1.1", "--omega-step", "0.1",
                "--outdir", str(tmp_path), "--output", name,
            ]) == 0
            return (tmp_path / name).read_bytes()

        first = run(1, "a.csv")
        second = run(1, "b.csv")
        parallel = run(2, "c.csv")
        assert first == second == parallel

    def test_workers_record_the_numerics_they_ran(self, tmp_path, monkeypatch):
        # with workers the drive is checked only in the worker processes,
        # and the sidecar carries what they ran
        checks = []
        drive_symmetries = dl.LatticeSpec.drive_symmetries
        monkeypatch.setattr(dl.LatticeSpec, "drive_symmetries",
                            lambda self: checks.append(self) or drive_symmetries(self))
        numerics = {}
        for workers in (1, 2):
            checks.clear()
            assert cli.main([
                "sweep", "--overlap-only", "--substeps", "512", "--workers", str(workers),
                "--omega-start", "2.7", "--omega-stop", "2.8", "--omega-step", "0.1",
                "--outdir", str(tmp_path), "--output", f"w{workers}.csv",
            ]) == 0
            meta = json.loads((tmp_path / f"w{workers}.csv.meta.json").read_text())
            numerics[workers] = meta["numerics"]
            assert bool(checks) == (workers == 1)
        assert numerics[1] == numerics[2]
        assert [n["route"] for n in numerics[1]] == ["quarter", "quarter"]

    def test_import_leaves_out_scipy_signal_and_optimize(self, tmp_path):
        # only dip detection, peak refinement and band matching need them,
        # so they are imported there and a run that does none never pays,
        # neither on import nor in a lone spectrum's labeling; the split step
        # transforms with numpy.fft and needs no linear algebra, so neither
        # the import nor a direct run loads any of these, and the first
        # Floquet product loads scipy.linalg (the check is not vacuous)
        src = str(Path(dl.__file__).resolve().parents[1])
        modules = ("scipy.fft", "scipy.linalg", "scipy.signal", "scipy.optimize")
        runs = [["evolve", "--method", "direct", "--substeps", "256", "--horizon", "1"],
                ["sweep", "--overlap-only", "--no-refine", "--substeps", "256",
                 "--omega-start", "2.8", "--omega-stop", "2.8", "--omega-step", "0.1"],
                ["modes", "--count", "1"]]
        code = ("import sys, driven_lattice.cli as cli\n"
                f"loaded = lambda: [m for m in {modules!r} if m in sys.modules]\n"
                "print(loaded(), file=sys.stderr)\n"
                f"for argv in {runs!r}:\n"
                f"    assert cli.main(argv + ['--outdir', {str(tmp_path)!r}]) == 0\n"
                "    print(loaded(), file=sys.stderr)\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        linalg = "['scipy.linalg']"
        assert run.stderr.splitlines() == ["[]", "[]", linalg, linalg], run.stderr


class TestCsvEmission:
    def test_sweep_csv_format(self, tmp_path):
        config = tiny_config(omega_start=1.0, omega_stop=1.0, omega_step=0.1)
        sweep = dl.run_nmax_sweep(config)
        path = dl.write_sweep_csv(tmp_path / "sweep.csv", sweep)
        lines = path.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        assert any("config_hash" in line for line in header)
        columns = [line for line in lines if not line.startswith("#")][0]
        assert columns == "omega,n_max,argmax_site,argmax_m,overlap,eps_fgs,gap"
        assert path.with_suffix(".csv.meta.json").exists()

    def test_seventeen_digit_round_trip(self, tmp_path):
        config = tiny_config(omega_start=1.0, omega_stop=1.0, omega_step=0.1)
        sweep = dl.run_nmax_sweep(config)
        path = dl.write_sweep_csv(tmp_path / "sweep.csv", sweep)
        omegas, overlaps = analysis.read_sweep_csv(path, config.lattice)
        assert omegas[0] == sweep.records[0].omega
        assert overlaps[0] == sweep.records[0].overlap

    def test_evolution_csv(self, tmp_path):
        config = tiny_config(horizon=3)
        trace = dl.run_evolution(config)
        path = dl.write_evolution_csv(tmp_path / "evolve.csv", config, trace)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "m,t,s,n_s"
        assert len(rows) - 1 == 4 * 3  # (horizon+1) periods x 3 sites

    def test_modes_csv_reports_twenty(self, tmp_path, spectrum_w1):
        config = tiny_config()
        path = dl.write_modes_csv(tmp_path / "modes.csv", config, spectrum_w1)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "kappa,alpha,eps,x,re_phi,im_phi"
        assert len(rows) - 1 == 20 * config.grid_points
        # each mode's phase makes a sample of its largest |phi| real and
        # positive (an odd mode reaches it at two mirrored samples, of both signs)
        table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        for alpha in np.unique(table[:, 1]):
            mode = table[table[:, 1] == alpha]
            phi = mode[:, 4] + 1j * mode[:, 5]
            peak = np.abs(phi) >= np.abs(phi).max() - 1e-12
            assert np.any(peak & (phi.real > 0) & (np.abs(phi.imag) < 1e-12)), alpha


class TestEvolutionMethods:
    def test_floquet_and_direct_agree(self):
        config = tiny_config(horizon=5, substeps=1024)
        floquet = dl.run_evolution(config, method="floquet")
        direct = dl.run_evolution(config, method="direct")
        assert np.abs(floquet.values - direct.values).max() < 1e-3

    def test_direct_rejects_truncations(self):
        with pytest.raises(dl.ConfigError):
            dl.run_evolution(tiny_config(horizon=2), bands=range(3), method="direct")

    def test_truncated_evolutions_keep_reduced_weight(self):
        config = tiny_config(horizon=3)
        first_three = dl.run_evolution(config, bands=range(3))
        by_bands = dl.run_evolution(config, bands=(0, 2))
        assert np.all(first_three.totals() < 1.0)
        assert np.all(by_bands.totals() < 1.0)
        assert np.all(first_three.totals() > 0.8)  # dominant modes retained


class TestResonanceReport:
    def test_requires_sweep_data(self):
        config = tiny_config(omega_start=1.0, omega_stop=1.1, omega_step=0.1)
        empty = dl.SweepResult(records=(), config=config)
        with pytest.raises(dl.ConfigError):
            resonance_rows(empty)

    def test_free_lattice_has_flat_overlap_and_no_dips(self):
        config = tiny_config(
            lattice=dl.LatticeSpec(v0=0.0),
            omega_start=2.60, omega_stop=2.70, omega_step=0.01,
        )
        sweep = dl.run_overlap_sweep(config)
        assert np.abs(sweep.column("overlap") - 1.0).max() < 1e-10
        rows = resonance_rows(sweep)
        assert rows and all(math.isnan(r.residual) for r in rows)

    def test_dip_is_the_vertex_of_unequally_spaced_samples(self):
        # a refined sweep is not equispaced: the dip at 2.4905 has neighbours
        # 0.0005 and 0.0095 away
        omegas = np.array([2.48, 2.49, 2.4905, 2.50, 2.51])
        overlaps = 0.2 + 3.0 * (omegas - 2.4903) ** 2
        (dip,) = dl.detect_dips(omegas, overlaps, prominence=0.0)
        assert dip.omega == pytest.approx(2.4903, abs=1e-12)
        assert dip.depth == overlaps[2]

    def test_rows_cover_predictions_in_window(self, sweep_window):
        rows = resonance_rows(sweep_window)
        keys = {(r.prediction.band_index, r.prediction.fold_count) for r in rows}
        assert (11, 1) in keys and (16, 2) in keys
        assert all(not math.isnan(r.residual) for r in rows)
        # predictions away from the window edges pair with a dip within 0.1
        for row in rows:
            if 2.5 <= row.prediction.omega <= 3.1:
                assert row.residual <= 0.1

    def test_every_prediction_has_a_nearby_local_minimum(self, sweep_window):
        dips = dl.detect_dips(
            sweep_window.column("omega"), sweep_window.column("overlap"),
            prominence=0.0,
        )
        for pred in dl.predict_resonances(sweep_window.config.lattice, 20, 2):
            if 2.4 <= pred.omega <= 3.2:
                assert min(abs(d.omega - pred.omega) for d in dips) <= 0.1

    def test_population_peaks_colocate_with_overlap_minima(self, sweep_window):
        import scipy.signal

        omegas = sweep_window.column("omega")
        n_max = sweep_window.column("n_max")
        dips = dl.detect_dips(
            omegas, sweep_window.column("overlap"), prominence=0.0
        )
        peaks, _ = scipy.signal.find_peaks(n_max, prominence=0.02)
        strong = [i for i in peaks if n_max[i] > 0.45]
        assert strong
        for i in strong:
            assert min(abs(d.omega - omegas[i]) for d in dips) <= 0.05


class TestCli:
    def test_invalid_config_exit_code(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key = 1\n")
        assert cli.main(["sweep", "--config", str(bad)]) == 2

        def no_spectra(*args, **kwargs):
            raise AssertionError("input must be rejected before the ring spectra")

        monkeypatch.setattr(analysis, "ring_spectra", no_spectra)
        capsys.readouterr()
        for argv in (
            ["evolve", "--phases", "0,pi/2,0"],
            ["evolve", "--bands", "a,b"],
            ["evolve", "--bands", "0,999"],
            ["evolve", "--bands", "0,1,-1"],
            ["evolve", "--bands", ""],
            ["evolve", "--domain", "ring", "--supercells", "0"],
            ["modes", "--count", "-1"],
            # non-finite values fail every check instead of passing them
            ["modes", "--kappa", "nan"],
            ["modes", "--omega", "nan"],
            ["modes", "--delta", "nan"],
            ["modes", "--v0", "nan"],
            ["modes", "--omega", "inf"],
            ["modes", "--phases", "0,nan,0"],
            ["sweep", "--omega-start", "2.7", "--omega-stop", "2.8", "--omega-step", "nan"],
            ["evolve", "--sigma", "nan"],
            # only sigma = 0 selects the uniform state
            ["evolve", "--sigma", "-5"],
            # a Gaussian centred off the ring, far enough that its samples
            # would underflow to nothing or its square overflow a float
            ["evolve", "--domain", "ring", "--supercells", "2", "--sigma", "5",
             "--center", "100000"],
            ["evolve", "--domain", "ring", "--supercells", "2", "--sigma", "5",
             "--center", "100000", "--method", "direct"],
            ["evolve", "--domain", "ring", "--supercells", "2", "--sigma", "5",
             "--center", "1e308"],
            # or just off the 60-long ring, where it would sample to a one-sided tail
            *(["evolve", "--domain", "ring", "--supercells", "2", "--horizon", "2",
                "--sigma", "1", "--center", center, "--method", method]
              for center in ("-5", "70") for method in ("floquet", "direct")),
            # an omega grid whose point count overflows an array or a float
            ["spectrum", "--omega-start", "2.4", "--omega-stop", "3.2",
             "--omega-step", "1e-300"],
            ["sweep", "--omega-start", "1e308", "--omega-stop", "1.7e308",
             "--omega-step", "1e-5"],
            # an omega grid that starts at or below zero frequency
            ["sweep", "--overlap-only", "--omega-start", "0", "--omega-stop", "0.1",
             "--omega-step", "0.05"],
            ["spectrum", "--omega-start", "-0.1", "--omega-stop", "0.0", "--omega-step", "0.05"],
            ["evolve", "--sigma", "1e-200"],
            ["evolve", "--sigma", "1e200"],
            # a Gaussian narrower than the grid spacing (0.0625) is not sampled
            *(["evolve", "--domain", "ring", "--supercells", "2", "--horizon", "2",
                "--sigma", sigma] for sigma in ("1e-160", "0.01", "0.05")),
            # a basis that is not odd and positive is bad input, not a failed frequency
            *([command, "--basis-size", basis, "--omega-start", "2.8", "--omega-stop", "2.8",
               "--omega-step", "0.01"]
              for command in ("spectrum", "sweep") for basis in ("52", "0", "-3")),
            # and the 41 plane waves `modes` samples
            ["modes", "--delta", "4", "--grid-points", "40"],
            # 40 points (the least delta = 4 allows is 30) alias the 61 plane
            # waves of the ring spectra, so `evolve` stops before building them
            ["evolve", "--delta", "4", "--grid-points", "40"],
            # a drive so slow that its period, and so the horizon, overflows
            ["evolve", "--omega", "1e-320", "--method", "direct"],
            ["evolve", "--omega", "1e-320", "--horizon", "1"],
            ["modes", "--omega", "1e-320"],
            # a drive so fast that its default basis has more elements than an array
            ["modes", "--omega", "1e300"],
            # or a count that overflows a float
            ["modes", "--omega", "1e308"],
        ):
            code = cli.main([*argv, "--substeps", "512", "--outdir", str(tmp_path)])
            assert code == 2, argv
            assert "invalid configuration:" in capsys.readouterr().err, argv
        # and its default substep count more than an array holds
        argv = ["evolve", "--method", "direct", "--omega", "1e300", "--horizon", "1"]
        assert cli.main([*argv, "--outdir", str(tmp_path)]) == 2
        assert "substeps per period cannot be allocated" in capsys.readouterr().err
        # or a default substep count that overflows a float
        argv = ["evolve", "--method", "direct", "--omega", "1e305", "--horizon", "1"]
        assert cli.main([*argv, "--outdir", str(tmp_path)]) == 2
        assert "substep count 2048*omega overflows a float" in capsys.readouterr().err

    def test_unwritable_output_exit_code_before_the_run(self, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("output paths must be checked before the run")

        for module, name in ((analysis, "spectrum_at"), (analysis, "ring_spectra"),
                             (analysis, "direct_population_trace"), (cli, "spectrum_at")):
            monkeypatch.setattr(module, name, no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        (tmp_path / "taken.csv").mkdir()
        (tmp_path / "meta.csv.meta.json").mkdir()
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text("# driven-lattice 0.1.0 sweep\nomega,overlap\n2.5,0.1\n")
        grid = ["--omega-start", "2.8", "--omega-stop", "2.8", "--omega-step", "0.1"]
        commands = (["evolve"], ["evolve", "--method", "direct"], ["spectrum", *grid],
                    ["sweep", *grid], ["modes", "--count", "1"],
                    ["resonances", "--sweep-csv", str(sweep_csv)])
        # an existing file as the directory or its parent, an existing
        # directory as the file or as its sidecar
        for where in (["--outdir", str(blocker)], ["--outdir", str(blocker / "sub")],
                      ["--outdir", str(tmp_path), "--output", "taken.csv"],
                      ["--outdir", str(tmp_path), "--output", "meta.csv"]):
            for argv in commands:
                code = cli.main([*argv, "--substeps", "512", *where])
                assert code == 2, (argv, where)
                assert "cannot write" in capsys.readouterr().err, (argv, where)
        assert not (tmp_path / "meta.csv").exists()

    def test_missing_omega_grid_exit_code(self):
        assert cli.main(["sweep", "--substeps", "512"]) == 2

    def test_evolve_and_resonances_flow(self, tmp_path):
        base = [
            "--substeps", "512", "--horizon", "3", "--outdir", str(tmp_path),
        ]
        assert cli.main(["evolve", *base, "--output", "evolve.csv"]) == 0
        assert (tmp_path / "evolve.csv").exists()
        # any non-empty label list selects bands, not only a pair
        assert cli.main(["evolve", *base, "--bands", "0,1,2", "--output", "three.csv"]) == 0

        sweep_args = [
            "sweep", "--substeps", "512", "--horizon", "3",
            "--omega-start", "1.0", "--omega-stop", "1.1", "--omega-step", "0.1",
            "--outdir", str(tmp_path), "--overlap-only", "--output", "sweep.csv",
        ]
        assert cli.main(sweep_args) == 0
        reso_args = [
            "resonances", "--outdir", str(tmp_path),
            "--sweep-csv", str(tmp_path / "sweep.csv"), "--output", "reso.csv",
        ]
        assert cli.main(reso_args) == 0
        assert (tmp_path / "reso.csv").exists()
        for bad in (["--alpha-max", "0"], ["--folds", "0"], ["--alpha-max", "-3"]):
            assert cli.main([*reso_args, *bad]) == 2, bad

    def test_missing_sweep_file_exit_code(self, tmp_path, capsys):
        code = cli.main([
            "resonances", "--outdir", str(tmp_path),
            "--sweep-csv", str(tmp_path / "nope.csv"),
        ])
        assert code == 2
        # other outputs of the package are not sweeps
        grid = ["--omega-start", "1.0", "--omega-stop", "1.0", "--omega-step", "0.1"]
        for argv in (["modes", "--count", "1"], ["spectrum", *grid]):
            assert cli.main([*argv, "--substeps", "512", "--outdir", str(tmp_path)]) == 0
            capsys.readouterr()
            code = cli.main([
                "resonances", "--outdir", str(tmp_path),
                "--sweep-csv", str(tmp_path / f"{argv[0]}.csv"),
            ])
            assert code == 2, argv
            assert "not a driven-lattice sweep" in capsys.readouterr().err, argv
        # sweep files with a valid header but unreadable columns
        header = "# driven-lattice 0.1.0 sweep\n"
        for name, body in (("no_overlap", "omega,gap\n2.5,0.1\n"),
                           ("short_row", "omega,n_max,overlap\n2.5,0.1\n"),
                           ("not_a_number", "omega,overlap\n2.5,abc\n")):
            path = tmp_path / f"{name}.csv"
            path.write_text(header + body)
            code = cli.main(["resonances", "--outdir", str(tmp_path), "--sweep-csv", str(path)])
            assert code == 2, name
            assert f"{name}.csv" in capsys.readouterr().err, name
        # a config or sweep file that is a directory or not UTF-8 text
        latin = tmp_path / "latin.txt"
        latin.write_bytes("omega = 1.0  # \xe9\n".encode("latin-1"))
        for path in (tmp_path, latin):
            for argv in (["--config", str(path), "--sweep-csv", "unread.csv"],
                         ["--sweep-csv", str(path)]):
                assert cli.main(["resonances", "--outdir", str(tmp_path), *argv]) == 2, argv
                assert f"cannot read {path}" in capsys.readouterr().err, argv

    def test_tolerance_violation_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise dl.UnitarityError("synthetic")

        monkeypatch.setattr(cli, "spectrum_at", boom)
        code = cli.main([
            "modes", "--substeps", "512", "--outdir", str(tmp_path),
        ])
        assert code == 3

    def test_sweep_failures_exit_code(self, tmp_path, monkeypatch):
        real = analysis.spectrum_at

        def flaky(config, omega, *args, **kwargs):
            if abs(omega - 1.1) < 1e-9:
                raise dl.UnitarityError("synthetic failure")
            return real(config, omega, *args, **kwargs)

        monkeypatch.setattr(analysis, "spectrum_at", flaky)
        code = cli.main([
            "sweep", "--substeps", "512", "--horizon", "3",
            "--omega-start", "1.0", "--omega-stop", "1.2", "--omega-step", "0.1",
            "--outdir", str(tmp_path), "--overlap-only",
        ])
        assert code == 4

    def test_grid_coarser_than_the_basis(self, tmp_path):
        # populations meet the grid in `decompose`, so a 40-point cell fails
        # a sweep's frequency; the spectrum samples no mode and runs as at 480
        run = ["--delta", "4", "--substeps", "512", "--horizon", "3",
               "--omega-start", "2.8", "--omega-stop", "2.8", "--omega-step", "0.1"]
        assert cli.main(["sweep", *run, "--grid-points", "40", "--outdir", str(tmp_path)]) == 4
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert "40 points" in meta["failures"][0]["error"]
        rows = {}
        for points in ("40", "480"):
            outdir = tmp_path / points
            argv = ["spectrum", *run, "--grid-points", points, "--outdir", str(outdir)]
            assert cli.main(argv) == 0
            lines = (outdir / "spectrum.csv").read_text().splitlines()
            rows[points] = [line for line in lines if not line.startswith("#")]
        assert len(rows["40"]) > 1 and rows["40"] == rows["480"]

    @pytest.mark.parametrize("command", ["sweep", "spectrum"])
    def test_basis_below_cutoff_is_a_recorded_failure(self, tmp_path, command):
        # B = 41 clears 5 hbar omega at 1.70 but not at 1.80
        code = cli.main([
            command, "--basis-size", "41", "--substeps", "512", "--horizon", "3",
            "--omega-start", "1.70", "--omega-stop", "1.80", "--omega-step", "0.1",
            "--outdir", str(tmp_path),
        ])
        assert code == 4
        meta = json.loads((tmp_path / f"{command}.csv.meta.json").read_text())
        assert [f["omega"] for f in meta["failures"]] == [pytest.approx(1.80)]
        assert "cutoff" in meta["failures"][0]["error"]
        if command == "spectrum":
            # the failed frequency writes no rows
            rows = (tmp_path / "spectrum.csv").read_text().splitlines()
            data = [r for r in rows if not r.startswith("#")][1:]
            assert data and {r.split(",")[0] for r in data} == {"1.7"}

    def test_sidecar_records_the_resolution_each_integrator_ran_with(self, tmp_path):
        # substeps unset: the monodromy's own rule (33 steps, rounded up to
        # 36, at omega = 2.8 on its 53-mode basis, 32 at omega = 1 on 61 modes)
        # and the grid integrator's default_params, while the config echo
        # keeps null; a static lattice is exponentiated exactly, no substeps
        grid = ["--omega-start", "2.8", "--omega-stop", "2.8", "--omega-step", "0.1"]
        ring = ["--domain", "ring", "--supercells", "1", "--horizon", "1"]
        expected = {
            ("sweep", "--overlap-only", *grid):
                {"omega": 2.8, "substeps": 216, "basis_size": 53, "route": "quarter"},
            ("sweep", "--overlap-only", *grid, "--amplitude", "0"):
                {"omega": 2.8, "substeps": None, "basis_size": 53, "route": "exact"},
            ("modes", "--amplitude", "0"):
                {"omega": 1.0, "substeps": None, "basis_size": 41, "route": "exact"},
            ("evolve", *ring):
                {"omega": 1.0, "substeps": 192, "basis_size": 61, "route": "quarter"},
            ("evolve", "--method", "direct", *ring):
                {"omega": 1.0, "substeps": 2048, "basis_size": None, "route": None},
        }
        for argv, numerics in expected.items():
            assert cli.main([*argv, "--outdir", str(tmp_path)]) == 0
            meta = json.loads((tmp_path / f"{argv[0]}.csv.meta.json").read_text())
            assert meta["config"]["substeps"] is None
            assert meta["numerics"] == [numerics]

        # the library writers record what the written object ran with, not
        # what the config they are handed would have run: a default-resolution
        # spectrum (41 modes, 32 steps at omega = 1) under a config of
        # 512 substeps and 61 modes, a direct trace without a method argument,
        # and nothing for a monodromy built outside the package
        def written(write, config, result):
            path = write(tmp_path / "library.csv", config, result)
            return json.loads(path.with_suffix(".csv.meta.json").read_text())["numerics"]

        spec = dl.LatticeSpec()
        config = tiny_config(basis_size=61)
        spectrum = dl.labeled_spectrum(spec, 0.0)
        assert written(dl.write_modes_csv, config, spectrum) == [
            {"omega": 1.0, "substeps": 192, "basis_size": 41, "route": "quarter"}]
        outside = dl.diagonalize_monodromy(dl.monodromy_matrix(spec, 0.0), spec)
        assert written(dl.write_modes_csv, config, outside) == []
        assert dl.labeled_spectrum(dl.LatticeSpec(amplitude=0.0), 0.0).numerics == {
            "omega": 1.0, "substeps": None, "basis_size": 41, "route": "exact"}
        ring = tiny_config(domain="ring", supercells=1, horizon=1, substeps=None)
        trace = dl.run_evolution(ring, method="direct")
        assert written(dl.write_evolution_csv, ring, trace) == [
            {"omega": 1.0, "substeps": 2048, "basis_size": None, "route": None}]

    @pytest.mark.parametrize(
        "phases, route",
        [("0,pi,0", "quarter"), ("0,0.5pi,0", "half"), ("0,0,pi", "full"), ("0,1,2", "full")])
    def test_sidecar_route_and_substeps_are_what_the_monodromy_ran(
            self, tmp_path, monkeypatch, phases, route):
        # count the potential factors the step loop exponentiates: a route
        # over 1/pieces of the period runs substeps / pieces of them, and the
        # closing factor of its last step, which no next step merges with
        ran = []
        taylor_exp = floquet._taylor_exp
        monkeypatch.setattr(floquet, "_taylor_exp",
                            lambda x, *args: ran.append(len(x)) or taylor_exp(x, *args))
        assert cli.main([
            "spectrum", "--phases", phases, "--substeps", "256",
            "--omega-start", "2.8", "--omega-stop", "2.8", "--omega-step", "0.1",
            "--outdir", str(tmp_path),
        ]) == 0
        meta = json.loads((tmp_path / "spectrum.csv.meta.json").read_text())
        [numerics] = meta["numerics"]
        assert numerics["route"] == route
        pieces = {"full": 1, "half": 2, "quarter": 4}[route]
        assert (sum(ran) - 1) * pieces == numerics["substeps"]

    def test_resonances_reject_a_sweep_of_another_lattice(self, tmp_path, capsys):
        # the predictions read mass, hbar, spacing and the phase count, so
        # they must be those the sweep ran with
        sweep = tmp_path / "sweep.csv"
        lattice = ["--spacing", "12", "--grid-points", "576"]
        assert cli.main([
            "sweep", "--overlap-only", *lattice, "--substeps", "512",
            "--omega-start", "1.0", "--omega-stop", "1.1", "--omega-step", "0.1",
            "--outdir", str(tmp_path),
        ]) == 0
        reso = ["resonances", "--sweep-csv", str(sweep), "--outdir", str(tmp_path)]
        assert cli.main([*reso, *lattice]) == 0
        capsys.readouterr()
        for field, argv in (("spacing", []), ("mass", [*lattice, "--mass", "2"]),
                            ("hbar", [*lattice, "--hbar", "0.5"]),
                            ("sites_per_cell", [*lattice, "--phases", "0,pi"])):
            assert cli.main([*reso, *argv]) == 2, field
            assert f"swept at {field} = " in capsys.readouterr().err, field
        # a field the predictions do not read may differ
        assert cli.main([*reso, *lattice, "--v0", "2"]) == 0

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        # one parser per process; a parse leaves nothing in it for the next,
        # whichever subcommand ran before
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        modes = parser.parse_args(["modes", "--kappa", "0.1", "--count", "3", "--v0", "2"])
        assert (modes.kappa, modes.count, modes.v0) == (0.1, 3, "2")
        sweep = parser.parse_args(["sweep", "--overlap-only"])
        assert sweep.overlap_only and sweep.v0 is None and not hasattr(sweep, "kappa")
        again = parser.parse_args(["modes"])
        assert (again.kappa, again.count, again.v0) == (0.0, floquet.REPORTED_MODES, None)
        # two subcommands through main in one process, each with its own output
        grid = ["--omega-start", "2.8", "--omega-stop", "2.8", "--omega-step", "0.1"]
        assert cli.main(["modes", "--substeps", "256", "--count", "2",
                         "--outdir", str(tmp_path)]) == 0
        assert cli.main(["sweep", "--overlap-only", "--substeps", "256", *grid,
                         "--outdir", str(tmp_path)]) == 0
        modes_meta = json.loads((tmp_path / "modes.csv.meta.json").read_text())
        sweep_meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert modes_meta["numerics"][0]["omega"] == 1.0
        assert sweep_meta["numerics"][0]["omega"] == 2.8

    def test_modes_keep_the_ground_mode(self, tmp_path):
        # at this resonance label 0 ranks beyond 20 by mean kinetic energy
        assert cli.main(["modes", "--omega", "2.75", "--substeps", "512",
                         "--outdir", str(tmp_path)]) == 0
        rows = [l for l in (tmp_path / "modes.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        alphas = {int(row.split(",")[1]) for row in rows}
        assert 0 in alphas and len(alphas) == floquet.REPORTED_MODES

    def test_basis_below_cutoff_exit_code(self, tmp_path):
        code = cli.main([
            "modes", "--basis-size", "21", "--substeps", "512", "--outdir", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("command", [["sweep", "--overlap-only"], ["spectrum"]],
                             ids=lambda argv: argv[0])
    def test_ring_overlap_sweep_exit_code(self, tmp_path, capsys, command):
        code = cli.main([
            *command, "--domain", "ring", "--substeps", "512",
            "--omega-start", "1.0", "--omega-stop", "1.1", "--omega-step", "0.1",
            "--outdir", str(tmp_path),
        ])
        assert code == 2
        assert "supercell" in capsys.readouterr().err
