"""Analysis helpers: exponent fits, summary stats, result tables."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, (
    (".scaling", (
        "PowerLawFit",
        "ShapeFit",
        "fit_constant_to_shape",
        "fit_power_law",
        "fit_power_law_rows",
    )),
    (".stats", ("bootstrap_ci", "summarize")),
    (".tables", ("Table",)),
    (".plot", ("ascii_loglog", "ascii_plot")),
))
