"""Floquet-Bloch spectra and stroboscopic wave-packet dynamics of a
periodically driven 1D Gaussian-barrier lattice with per-site drive phases."""

from .version import __version__
from .errors import (
    CompletenessError,
    ConfigError,
    DegenerateModeError,
    GridMismatchError,
    ToleranceError,
    UnitarityError,
)
from .lattice import (
    ComplexState,
    GaussianState,
    InitialStateSpec,
    LatticeSpec,
    RingDomain,
    SupercellGrid,
    UniformState,
    inner,
    make_initial_state,
    potential,
)
from .propagate import (
    PropagationParams,
    default_params,
    evolve_ring,
    evolve_twisted,
    potential_on_grid,
)
from .floquet import (
    FloquetMode,
    FloquetSpectrum,
    GapMinimum,
    QuasienergyScan,
    ResonancePrediction,
    ScanPoint,
    basis_wavenumbers,
    circle_gap,
    default_basis_size,
    diagonalize_monodromy,
    find_gap_minima,
    fold_quasienergy,
    ground_uniform_overlap,
    label_by_overlap,
    labeled_spectrum,
    match_band_labels,
    monodromy_matrix,
    predict_resonances,
    quasienergy_scan,
)
from .dynamics import (
    PopulationTrace,
    SpectralDecomposition,
    decompose,
    direct_population_trace,
    dynamics_basis_size,
    interference_period,
    population_trace,
    ring_kappas,
    ring_spectra,
    select_bands,
    site_populations,
    site_weights,
    stroboscopic_state,
    truncate_modes,
)
from .analysis import (
    ExperimentConfig,
    OverlapDip,
    ResonanceRow,
    SweepRecord,
    SweepResult,
    config_from_values,
    detect_overlap_dips,
    load_config,
    pair_resonances,
    report_resonances,
    run_evolution,
    run_nmax_sweep,
    run_overlap_sweep,
    write_evolution_csv,
    write_modes_csv,
    write_resonances_csv,
    write_sweep_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
