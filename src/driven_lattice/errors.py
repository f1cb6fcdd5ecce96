"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class GridMismatchError(ValueError):
    """Two states (or a state and an operator) live on different grids."""


class ToleranceError(RuntimeError):
    """A numerical sanity bound was violated (under-resolved computation)."""


class UnitarityError(ToleranceError):
    """A propagator or monodromy matrix failed its unitarity bound."""


class CompletenessError(ToleranceError):
    """A spectral decomposition left too much weight outside the basis."""


class DegenerateModeError(ValueError):
    """Operation undefined for a degenerate quasienergy pair."""
