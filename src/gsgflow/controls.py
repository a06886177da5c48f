"""Evaluation strategy selection and series truncation controls."""

from dataclasses import dataclass
from enum import Enum
from numbers import Integral


class Strategy(Enum):
    """How per-mode time kernels are evaluated."""

    DOUBLE_SERIES = "series"
    G_SERIES = "gseries"
    MODE_LAPLACE = "laplace"
    AUTO = "auto"


@dataclass(frozen=True)
class SeriesControls:
    """Truncation caps and tolerances for all series evaluation.

    n_modes: number of radial eigenmodes summed.
    tol_rel: relative quiescence tolerance for the term-stopping rule of the
        series routes.
    max_terms: hard cap on terms per series route before a non-convergence error;
        a term is one outer index of a single-index series (the G-function,
        the G-series over k, the beta = 1 series) and one (j, k) pair of the
        double series. The cap is checked after each step that does not
        complete the three-step quiet run.
    strategy: kernel evaluation route. AUTO (the default) takes the exact
        exponential kernel at beta = 1 and, like MODE_LAPLACE at every beta,
        inverts all modes on a fixed Talbot contour at beta < 1;
        DOUBLE_SERIES and G_SERIES sum the paper's series per mode and time
        and refuse when one of them does. tol_rel and max_terms govern only
        the series routes.
    """

    n_modes: int = 50
    tol_rel: float = 1e-12
    max_terms: int = 10_000
    strategy: Strategy = Strategy.AUTO

    def __post_init__(self):
        for name in ("n_modes", "max_terms"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if not 0.0 < self.tol_rel < 1.0:
            raise ValueError("tol_rel must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not isinstance(self.strategy, Strategy):
            raise ValueError("strategy must be a Strategy member")
