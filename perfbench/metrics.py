"""Names, units and meaning of every metric the benchmark reports.

Standard library only: ``run.py`` reads these tables without importing the
package under test.
"""

# End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_err": "abs",
}

LAYERS = ("core", "expr", "gheat", "gbsde", "oracle", "convexity", "cli")

# Per-layer metrics of the traced run: name -> (unit, end-to-end metric it
# should move, workload where it should move it).  Counts and seconds are
# per traced pass; ``us_per_*`` and ratios divide totals.
PER_LAYER = {
    "expr.tri_calls": ("count", "wall_s", "backward-paths"),
    "expr.tri_s": ("s", "wall_s", "backward-paths"),
    "expr.jet_calls": ("count", "wall_s", "convexity-scan"),
    "expr.jet_s": ("s", "wall_s", "convexity-scan"),
    "expr.us_per_jet": ("us", "wall_s", "convexity-scan"),
    "expr.scalar_calls": ("count", "wall_s", "all (small share)"),
    "expr.scalar_s": ("s", "wall_s", "all (small share)"),
    "gheat.solve_calls": ("count", "wall_s", "heat-oracle"),
    "gheat.layers": ("count", "wall_s", "heat-oracle"),
    "gheat.solve_s": ("s", "wall_s", "heat-oracle"),
    "gheat.us_per_layer.nx201": ("us", "wall_s", "heat-oracle"),
    "gheat.us_per_layer.nx401": ("us", "wall_s", "heat-oracle"),
    "gheat.us_per_layer.nx801": ("us", "wall_s", "heat-oracle"),
    "gheat.cond_s": ("s", "wall_s", "heat-oracle"),
    "gheat.field_mb": ("MB", "peak_rss_mb", "heat-oracle"),
    "gheat.bytes_per_layer": ("bytes", "peak_rss_mb", "heat-oracle"),
    "gbsde.solve_calls": ("count", "wall_s", "backward-paths"),
    "gbsde.layers": ("count", "wall_s", "backward-paths"),
    "gbsde.solve_s": ("s", "wall_s", "backward-paths"),
    "gbsde.us_per_layer": ("us", "wall_s", "backward-paths"),
    "gbsde.picard_us_per_layer": ("us", "wall_s", "backward-paths"),
    "gbsde.expectation_calls": ("count", "wall_s", "backward-paths"),
    "gbsde.kpath_calls": ("count", "wall_s", "backward-paths"),
    "gbsde.kpath_s": ("s", "wall_s", "backward-paths"),
    "oracle.tree_calls": ("count", "wall_s", "heat-oracle"),
    "oracle.tree_steps": ("count", "wall_s", "heat-oracle"),
    "oracle.tree_s": ("s", "wall_s", "heat-oracle"),
    "oracle.paths": ("count", "wall_s", "backward-paths"),
    "oracle.path_steps": ("count", "wall_s", "backward-paths"),
    "oracle.path_s": ("s", "wall_s", "backward-paths"),
    "oracle.us_per_path_step": ("us", "wall_s", "backward-paths"),
    "oracle.tree_k_s": ("s", "wall_s", "backward-paths"),
    "convexity.scan_calls": ("count", "wall_s, cli_s", "convexity-scan"),
    "convexity.cells": ("count", "wall_s, cli_s", "convexity-scan"),
    "convexity.reduce_calls": ("count", "wall_s, cli_s", "convexity-scan"),
    "convexity.scan_s": ("s", "wall_s, cli_s", "convexity-scan"),
    "convexity.us_per_cell": ("us", "wall_s, cli_s", "convexity-scan"),
    "convexity.useful_ratio": ("ratio", "cli_s", "convexity-scan"),
    "convexity.cli_cells": ("count", "cli_s", "convexity-scan"),
    "convexity.cli_reduce_calls": ("count", "cli_s", "convexity-scan"),
    "convexity.jensen_s": ("s", "wall_s", "backward-paths"),
    "convexity.replimit_s": ("s", "wall_s", "backward-paths"),
    "cli.runs": ("count", "cli_s", "all"),
    "cli.config_s": ("s", "cli_s", "all"),
    "cli.self_s": ("s", "cli_s", "all"),
    "cli.bytes_written": ("bytes", "cli_s", "all"),
    "core.grid_s": ("s", "setup_s", "all"),
    **{f"{layer}.self_s": ("s", "wall_s", "all") for layer in LAYERS if layer != "cli"},
    "trace.untraced_wall_s": ("s", "nothing (tracing overhead)", "all"),
    "trace.traced_wall_s": ("s", "nothing (tracing overhead)", "all"),
    "trace.overhead_s": ("s", "nothing (tracing overhead)", "all"),
}
