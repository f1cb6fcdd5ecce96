"""Batch experiment driver: configs, frequency sweeps (the one engine behind
both ``sweep`` and ``spectrum``), population traces, resonance reports and CSV
emission.  `detect_dips` finds the local minima of any sweep column: the
overlap dips of the resonance report and the gap minima.

Output files are plain CSV (UTF-8, '.' decimal, 17 significant digits) with
a '#'-prefixed header block carrying the package version, a hash of the
resolved configuration and the configuration echo; a JSON sidecar stores the
full resolved configuration.  Identical configurations produce byte-identical
files regardless of worker count.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .version import __version__
from .errors import ConfigError, ToleranceError
from .dynamics import (
    decompose,
    dynamics_basis_size,
    population_trace,
    ring_spectra,
    select_bands,
    direct_population_trace,
)
from .floquet import (
    FloquetSpectrum,
    ResonancePrediction,
    fold_quasienergy,
    labeled_spectrum,
    predict_resonances,
    REPORTED_MODES,
)
from .lattice import (
    DEFAULT_GRID_POINTS,
    ComplexState,
    GaussianState,
    LatticeSpec,
    RingDomain,
    SupercellGrid,
    UniformState,
    make_initial_state,
)
from .propagate import PropagationParams, default_params

DIP_PROMINENCE = 0.01       # smallest overlap dip counted as detected
PEAK_PROMINENCE = 0.02      # smallest n_max peak considered for refinement
REFINE_ABOVE = 0.4          # only refine n_max peaks above this level
REFINE_MIN_STEP = 1e-3
# the most float64 elements numpy allocates in one array
_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one batch computation."""

    lattice: LatticeSpec
    initial: GaussianState | UniformState
    domain: str = "supercell"            # "supercell" (kappa = 0) or "ring"
    supercells: int = 16
    grid_points: int = DEFAULT_GRID_POINTS  # per supercell
    substeps: int | None = None          # None: each integrator's default
    horizon: int = 400
    omega_start: float | None = None
    omega_stop: float | None = None
    omega_step: float | None = None
    outdir: str = "out"
    basis_size: int | None = None
    refine_peaks: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.domain not in ("supercell", "ring"):
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.basis_size is not None and (self.basis_size < 1 or self.basis_size % 2 == 0):
            raise ConfigError("basis_size must be odd and positive")
        grid = (self.omega_start, self.omega_stop, self.omega_step)
        if any(v is not None for v in grid):
            if any(v is None for v in grid):
                raise ConfigError("omega grid needs start, stop and step together")
            if not (all(map(math.isfinite, grid)) and self.omega_step > 0
                    and self.omega_start <= self.omega_stop):
                raise ConfigError("omega grid must be finite and monotone increasing")
            count = (self.omega_stop - self.omega_start) / self.omega_step
            if not count < _MAX_GRID_POINTS:
                raise ConfigError(f"omega grid of {count + 1:.3g} points cannot be built")
        # constructing the domain objects validates every module invariant;
        # the grid ascends, so its start is its smallest frequency
        try:
            if self.substeps is not None:
                PropagationParams(substeps_per_period=self.substeps)
            if self.omega_start is not None:
                replace(self.lattice, omega=self.omega_start)
            self.make_domain()
            if isinstance(self.initial, GaussianState):
                make_initial_state(self.initial, self.make_domain())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def params(self) -> PropagationParams | None:
        """The configured resolution, or None: the grid integrator then uses
        `default_params` and the monodromy its own basis-aware rule."""
        if self.substeps is None:
            return None
        return PropagationParams(substeps_per_period=self.substeps)

    def make_domain(self) -> RingDomain:
        cell = SupercellGrid.for_spec(self.lattice, self.grid_points)
        cells = self.supercells if self.domain == "ring" else 1
        return RingDomain(cell, cells)

    def make_initial_state(self) -> ComplexState:
        return make_initial_state(self.initial, self.make_domain())

    def omega_grid(self) -> np.ndarray:
        if self.omega_start is None:
            raise ConfigError("configuration has no omega grid")
        count = int(math.floor((self.omega_stop - self.omega_start) / self.omega_step + 1e-9))
        return self.omega_start + self.omega_step * np.arange(count + 1)

    def as_dict(self) -> dict:
        """The echo behind `config_hash`: every field but `workers`, which changes no result."""
        initial: dict = {"kind": type(self.initial).__name__}
        if isinstance(self.initial, GaussianState):
            initial.update(sigma=self.initial.width, center=self.initial.center)
        echo = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name not in ("lattice", "initial", "workers")}
        return {"lattice": dataclasses.asdict(self.lattice), "initial": initial, **echo}

    def config_hash(self) -> str:
        payload = json.dumps(self.as_dict(), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _parse_phase(token: str) -> float:
    token = token.strip()
    if token in ("pi", "+pi"):
        return math.pi
    if token == "-pi":
        return -math.pi
    if token.endswith("pi"):
        return float(token[:-2]) * math.pi
    return float(token)


def _parse_phases(value) -> tuple[float, ...]:
    """Comma-separated phase tokens ('0.5pi', '-pi', '1.2'), or a sequence."""
    if isinstance(value, str):
        return tuple(_parse_phase(tok) for tok in value.split(","))
    return tuple(float(p) for p in value)


def _parse_flag(value) -> bool:
    return bool(int(value))


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


# Every config-file key (and CLI flag) with the cast of its raw value; every
# number must be finite.  The LatticeSpec fields build the lattice; np checks
# the phase count; sigma > 0 selects a Gaussian of that width centred at
# `center`, sigma = 0 the uniform state; the remaining keys are
# ExperimentConfig fields.  A key left unset takes the dataclass default.
_CONFIG_KEYS = {
    "mass": _finite, "hbar": _finite, "v0": _finite, "delta": _finite, "spacing": _finite,
    "amplitude": _finite, "omega": _finite, "phases": _parse_phases,
    "np": int, "sigma": _finite, "center": _finite,
    "domain": str, "supercells": int, "substeps": int, "horizon": int,
    "omega_start": _finite, "omega_stop": _finite, "omega_step": _finite, "outdir": str,
    "grid_points": int, "basis_size": int, "workers": int, "refine_peaks": _parse_flag,
}


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value configuration format (``key = value`` lines,
    '#' comments); returns raw string values keyed by the documented names."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def config_from_values(values: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from raw key-value strings plus overrides."""
    merged = dict(values)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val

    typed = {}
    for key, cast in _CONFIG_KEYS.items():
        if merged.get(key) in ("", None):
            continue
        try:
            typed[key] = cast(merged[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {merged[key]!r}") from exc
    sites = typed.pop("np", None)
    sigma = typed.pop("sigma", 0.0)
    center = typed.pop("center", None)
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0 (0 selects the uniform state), got {sigma!r}")

    lattice_keys = {f.name for f in dataclasses.fields(LatticeSpec)} & typed.keys()
    try:
        lattice = LatticeSpec(**{key: typed.pop(key) for key in lattice_keys})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if sites is not None and sites != lattice.sites_per_cell:
        raise ConfigError(
            f"np={sites} does not match the {lattice.sites_per_cell} supplied phases"
        )

    config = ExperimentConfig(lattice=lattice, initial=UniformState(), **typed)
    if sigma > 0:
        if center is None:
            half = config.make_domain().length / (2 * lattice.spacing)
            center = math.floor(half) * lattice.spacing
        config = replace(config, initial=GaussianState(center=center, width=sigma))
    return config


def _read_text(path) -> str:
    """The text of a UTF-8 input file; one that cannot be read is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    return config_from_values(parse_config_text(_read_text(path)), overrides)


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepRecord:
    """Per-frequency summary; population fields are NaN in spectra-only sweeps.
    ``numerics``, ``quasienergies`` and ``overlaps`` (the spectrum's, in label
    order) are None for a failed frequency."""

    omega: float
    n_max: float
    argmax_site: int
    argmax_m: int
    overlap: float
    eps_fgs: float
    gap: float
    error: str | None = None
    numerics: dict | None = field(default=None, compare=False)
    quasienergies: np.ndarray | None = field(default=None, compare=False, repr=False)
    overlaps: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SweepResult:
    """The records in omega order."""

    records: tuple[SweepRecord, ...]
    config: ExperimentConfig

    @property
    def numerics(self) -> tuple[dict, ...]:
        """The resolution each computed frequency ran with, in omega order."""
        return tuple(r.numerics for r in self.records if r.numerics is not None)

    @property
    def failures(self) -> tuple[tuple[float, str], ...]:
        """(omega, error) of every failed frequency, in omega order."""
        return tuple((r.omega, r.error) for r in self.records if r.error)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def spectrum_at(config: ExperimentConfig, omega: float, kappa: float = 0.0) -> FloquetSpectrum:
    """The labeled spectrum at one driving frequency and quasimomentum, built
    with the config's grid, substeps and basis size."""
    spec = replace(config.lattice, omega=float(omega))
    return labeled_spectrum(
        spec, kappa,
        grid=SupercellGrid.for_spec(spec, config.grid_points),
        params=config.params,
        basis_size=config.basis_size,
    )


def _sweep_point(config: ExperimentConfig, omega: float, with_populations: bool) -> SweepRecord:
    spectrum = spectrum_at(config, omega)
    weights = spectrum.uniform_weights()
    eps = spectrum.quasienergies
    gap = np.abs(fold_quasienergy(eps[1:] - eps[0], spectrum.spec)).min()
    n_max, arg_site, arg_m = math.nan, -1, -1
    if with_populations:
        state = config.make_initial_state()
        # rows are sites and columns periods 0..horizon, so indices are labels
        values = population_trace(decompose(state, [spectrum]), range(config.horizon + 1)).values
        arg_site, arg_m = map(int, np.unravel_index(np.argmax(values), values.shape))
        n_max = float(values[arg_site, arg_m])
    return SweepRecord(
        omega=omega, n_max=n_max, argmax_site=arg_site, argmax_m=arg_m,
        overlap=float(weights[0]), eps_fgs=float(eps[0]), gap=float(gap),
        numerics=spectrum.numerics, quasienergies=eps, overlaps=weights,
    )


def _guarded(task) -> SweepRecord:
    config, omega, with_populations = task
    try:
        return _sweep_point(config, omega, with_populations)
    except (ConfigError, ToleranceError, np.linalg.LinAlgError) as exc:
        return SweepRecord(omega=omega, n_max=math.nan, argmax_site=-1, argmax_m=-1,
                           overlap=math.nan, eps_fgs=math.nan, gap=math.nan, error=str(exc))


def _sweep_records(config: ExperimentConfig, omegas, with_populations: bool) -> list[SweepRecord]:
    """The record of every frequency, on ``config.workers`` processes but
    never more than frequencies (a pool forks them all at once), in the
    order given.  Invalid input and numerical trouble at one frequency give a
    NaN record with the error message; any other exception propagates."""
    tasks = [(config, float(w), with_populations) for w in omegas]
    workers = min(config.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_guarded, tasks))
    return [_guarded(task) for task in tasks]


def _refine_peaks(config: ExperimentConfig, records: list[SweepRecord]) -> list[SweepRecord]:
    """Bisect the grid of records around strong n_max peaks down to
    REFINE_MIN_STEP."""
    import scipy.signal  # its import is slow, and only refinement and dips use it

    while True:
        records.sort(key=lambda r: r.omega)
        omegas = [r.omega for r in records]
        values = np.nan_to_num([r.n_max for r in records], nan=-1.0)
        peaks, _ = scipy.signal.find_peaks(values, prominence=PEAK_PROMINENCE)
        inserts = []
        for i in peaks:
            if values[i] < REFINE_ABOVE:
                continue
            for a, b in ((i - 1, i), (i, i + 1)):
                if omegas[b] - omegas[a] > REFINE_MIN_STEP:
                    inserts.append(0.5 * (omegas[a] + omegas[b]))
        if not inserts:
            return records
        records.extend(_sweep_records(config, inserts, True))


def _sweep(config: ExperimentConfig, with_populations: bool) -> SweepResult:
    if config.domain != "supercell":
        raise ConfigError("sweeps run on the supercell (kappa = 0) domain")
    records = _sweep_records(config, config.omega_grid(), with_populations)
    if with_populations and config.refine_peaks:
        records = _refine_peaks(config, records)
    records.sort(key=lambda r: r.omega)
    return SweepResult(records=tuple(records), config=config)


def run_nmax_sweep(config: ExperimentConfig) -> SweepResult:
    """Maximal site population within the horizon, per driving frequency.

    Runs on the single-supercell (kappa = 0) domain with the configured
    initial state; also records the ground-mode overlap, quasienergy and
    band gap from the same spectra.  Failed frequencies are recorded and
    skipped, never dropped.
    """
    return _sweep(config, True)


def run_overlap_sweep(config: ExperimentConfig) -> SweepResult:
    """Every mode's quasienergy and uniform overlap, and the gap, per frequency."""
    return _sweep(config, False)


def run_evolution(config: ExperimentConfig, bands=None, method: str = "floquet"):
    """Population trace of every site of the configured initial state over
    the horizon.

    `bands` restricts the mode expansion to those band labels (see
    `select_bands`; ``range(k)`` keeps the first k).  `method="direct"`
    integrates the ring directly instead of using the mode expansion.
    """
    spec = config.lattice
    state = config.make_initial_state()
    if method == "direct":
        if bands is not None:
            raise ConfigError("band selections require the floquet method")
        return direct_population_trace(
            state, spec, config.params or default_params(spec), config.horizon
        )
    if method != "floquet":
        raise ConfigError(f"unknown evolution method {method!r}")
    basis = config.basis_size if config.basis_size is not None else dynamics_basis_size(spec)
    if bands is not None and not (len(bands) and all(0 <= b < basis for b in bands)):
        raise ConfigError(f"need band labels in [0, {basis}) for basis size {basis}")
    spectra, _ = ring_spectra(spec, state.grid, params=config.params, basis_size=basis)
    dec = decompose(state, spectra)
    if bands is not None:
        dec = select_bands(dec, bands)
    return population_trace(dec, range(config.horizon + 1))


# ---------------------------------------------------------------------------
# dips and resonance reports

@dataclass(frozen=True)
class Dip:
    """Local minimum of a sweep curve: refined frequency, sampled value."""

    omega: float
    depth: float
    prominence: float


def _parabolic_vertex(x, y) -> float:
    """Vertex abscissa of the parabola through three points (x, y), spaced
    evenly or not (a refined sweep is not), clipped to [x[0], x[2]]."""
    a, b, u, v = x[0] - x[1], x[2] - x[1], y[0] - y[1], y[2] - y[1]
    denom = u * b - v * a
    if denom == 0:
        return x[1]
    return float(min(max(x[1] + 0.5 * (u * b * b - v * a * a) / denom, x[0]), x[2]))


def detect_dips(omegas, values, prominence: float = DIP_PROMINENCE) -> tuple[Dip, ...]:
    """Local minima of a sweep curve (the ground overlap, the gap) with at
    least `prominence`, parabolic-refined on the sampling grid."""
    import scipy.signal  # its import is slow, and only refinement and dips use it

    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=float)
    idx, props = scipy.signal.find_peaks(-values, prominence=prominence)
    return tuple(
        Dip(
            omega=_parabolic_vertex(omegas[i - 1:i + 2], values[i - 1:i + 2]),
            depth=float(values[i]),
            prominence=float(props["prominences"][rank]),
        )
        for rank, i in enumerate(idx)
    )


@dataclass(frozen=True)
class ResonanceRow:
    prediction: ResonancePrediction
    nearest_dip: float      # NaN when no dip was detected in range
    residual: float


def pair_resonances(
    lattice: LatticeSpec,
    omegas,
    overlaps,
    alpha_max: int = 20,
    max_folds: int = 2,
) -> tuple[ResonanceRow, ...]:
    """Pair each predicted resonance inside the sampled window with the
    nearest overlap dip of at least DIP_PROMINENCE."""
    omegas = np.asarray(omegas, dtype=float)
    overlaps = np.asarray(overlaps, dtype=float)
    if omegas.size == 0:
        raise ConfigError("no sweep data to report on")
    good = ~np.isnan(overlaps)
    dips = detect_dips(omegas[good], overlaps[good])
    rows = []
    for pred in predict_resonances(lattice, alpha_max, max_folds):
        if not (omegas.min() <= pred.omega <= omegas.max()):
            continue
        if dips:
            nearest = min(dips, key=lambda d: abs(d.omega - pred.omega))
            rows.append(
                ResonanceRow(pred, nearest.omega, abs(nearest.omega - pred.omega))
            )
        else:
            rows.append(ResonanceRow(pred, math.nan, math.nan))
    return tuple(rows)


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _sidecar(path: Path) -> Path:
    """The ``.meta.json`` written beside the CSV at `path`."""
    return path.with_suffix(path.suffix + ".meta.json")


def _write_csv(path: Path, config: ExperimentConfig, kind: str,
               columns: list[str], rows, failures=(), numerics=()) -> Path:
    """The CSV and its sidecar; ``numerics`` lists the resolution each
    written object carries, None (not recorded) where it was built outside."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    echo, config_hash = config.as_dict(), config.config_hash()
    lines = [f"# driven-lattice {__version__} {kind}", f"# config_hash: {config_hash}",
             *(f"# {key}: {value}" for key, value in sorted(echo.items())), ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {
        "kind": kind,
        "version": __version__,
        "config_hash": config_hash,
        "config": echo,
        "failures": [{"omega": w, "error": e} for w, e in failures],
        "numerics": [n for n in numerics if n is not None],
    }
    _sidecar(path).write_text(
        json.dumps(sidecar, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def write_evolution_csv(path, config: ExperimentConfig, trace) -> Path:
    period = config.lattice.period
    rows = (
        (int(m), m * period, s, trace.values[s, j])
        for j, m in enumerate(trace.periods)
        for s in range(len(trace.values))
    )
    return _write_csv(path, config, "evolve", ["m", "t", "s", "n_s"], rows,
                      numerics=[trace.numerics])


def write_sweep_csv(path, sweep: SweepResult) -> Path:
    rows = (
        (r.omega, r.n_max, r.argmax_site, r.argmax_m, r.overlap, r.eps_fgs, r.gap)
        for r in sweep.records
    )
    return _write_csv(
        path, sweep.config, "sweep",
        ["omega", "n_max", "argmax_site", "argmax_m", "overlap", "eps_fgs", "gap"],
        rows, failures=sweep.failures,
        numerics=sweep.numerics,
    )


def write_spectrum_csv(path, sweep: SweepResult) -> Path:
    """One row per mode of every computed frequency; a failed one writes none."""
    rows = (
        (r.omega, alpha, eps, overlap)
        for r in sweep.records if r.quasienergies is not None
        for alpha, (eps, overlap) in enumerate(zip(r.quasienergies, r.overlaps))
    )
    return _write_csv(path, sweep.config, "spectrum", ["omega", "alpha", "eps", "overlap"],
                      rows, failures=sweep.failures, numerics=sweep.numerics)


def write_modes_csv(path, config: ExperimentConfig, spectrum: FloquetSpectrum,
                    count: int = REPORTED_MODES) -> Path:
    """Sampled mode profiles; only the best-converged (lowest mean kinetic
    energy) `count` modes are reported."""
    if count < 1:
        raise ConfigError("mode count must be >= 1")
    keep = sorted(np.argsort(spectrum.mean_kinetic(), kind="stable")[:count])
    x = spectrum.grid.positions()
    rows = (
        (spectrum.kappa, int(i), spectrum.quasienergies[i],
         x[j], spectrum.samples[j, i].real, spectrum.samples[j, i].imag)
        for i in keep
        for j in range(spectrum.grid.points)
    )
    return _write_csv(
        path, config, "modes",
        ["kappa", "alpha", "eps", "x", "re_phi", "im_phi"], rows,
        numerics=[spectrum.numerics],
    )


def write_resonances_csv(path, config: ExperimentConfig, rows) -> Path:
    data = (
        (r.prediction.band_index, r.prediction.fold_count, r.prediction.omega,
         r.nearest_dip, r.residual)
        for r in rows
    )
    return _write_csv(
        path, config, "resonances",
        ["alpha", "n", "omega_res", "nearest_dip", "residual"], data,
    )


def read_sweep_csv(path, lattice: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(omega, overlap) columns back from a sweep CSV of `lattice`: the lattice
    its header echoes must have the mass, hbar, spacing and phase count of
    `lattice`, what `predict_resonances` reads.  Any other file, another kind
    of output or a sweep of another lattice included, is a ConfigError."""
    lines = [line.strip() for line in _read_text(path).splitlines()]
    # the first line names the kind: "# driven-lattice <version> <kind>"
    first = lines[0].split() if lines else []
    if first[:2] != ["#", "driven-lattice"] or first[-1:] != ["sweep"]:
        raise ConfigError(f"{path} is not a driven-lattice sweep CSV")
    table = [line.split(",") for line in lines if line and not line.startswith("#")]
    if len(table) < 2:
        raise ConfigError(f"no sweep records found in {path}")
    header, *rows = table
    try:
        columns = [header.index("omega"), header.index("overlap")]
        omegas, overlaps = (np.array([float(row[c]) for row in rows]) for c in columns)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{path} has no readable omega and overlap columns: {exc}") from exc
    echo = next((line.partition(": ")[2] for line in lines
                 if line.startswith("# lattice: ")), "")
    try:
        swept = LatticeSpec(**ast.literal_eval(echo))
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ConfigError(f"{path} echoes no readable lattice") from exc
    for name in ("mass", "hbar", "spacing", "sites_per_cell"):
        if getattr(swept, name) != getattr(lattice, name):
            raise ConfigError(f"{path} was swept at {name} = {getattr(swept, name)!r}, "
                              f"not the configured {getattr(lattice, name)!r}")
    return omegas, overlaps


def output_path(config: ExperimentConfig, name: str) -> Path:
    """Output `name` in the configured directory; a ConfigError if it or its
    sidecar is a directory or their nearest existing parent is not one."""
    path = Path(os.path.expanduser(config.outdir)) / name
    parent = next(p for p in path.parents if p.exists())
    for target in (path, _sidecar(path)):
        if target.is_dir():
            raise ConfigError(f"cannot write {target}: it is a directory")
    if not parent.is_dir():
        raise ConfigError(f"cannot write {path}: {parent} is not a directory")
    return path
