"""Result formatting shared by the CLI, examples and benchmarks."""

from repro import _lazy_exports

_EXPORTS = {
    "ResultTable": "tables",
    "bar_chart": "charts",
    "format_series": "tables",
    "format_table": "tables",
    "grouped_bar_chart": "charts",
    "render": "export",
    "to_csv": "export",
    "to_json": "export",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
